#include "alloc/tirm.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "rrset/kpt_estimator.h"
#include "rrset/rr_collection.h"
#include "rrset/sample_store.h"
#include "rrset/shard_client.h"
#include "rrset/sharded_store.h"
#include "rrset/weighted_rr_collection.h"

namespace tirm {
namespace {

// Coverage bookkeeping behind TIRM's greedy loop: mutable views over the
// ad's pooled RR sets (rrset/sample_store.h). Two implementations:
//  * RemovalBackend — the paper's Algorithm 2 semantics (covered RR sets
//    are removed; seeds treated as deterministically active);
//  * WeightedBackend — the CTP-aware extension (sets carry survival
//    weights Π(1-δ); exact TIC-CTP marginals).
class CoverageBackend {
 public:
  virtual ~CoverageBackend() = default;
  /// Exposes pooled sets [NumSets(), count) to this run's view.
  virtual void AttachUpTo(std::uint32_t count) = 0;
  virtual std::size_t NumSets() const = 0;
  /// Current marginal-coverage mass of `v` (sets for removal mode,
  /// survival mass for weighted mode).
  virtual double CoverageOf(NodeId v) const = 0;
  /// Best candidate by raw coverage subject to `eligible`.
  virtual NodeId BestNode(const std::function<bool(NodeId)>& eligible) = 0;
  /// Commits `v` (δ = accept_prob); returns its coverage mass before.
  virtual double Commit(NodeId v, double accept_prob) = 0;
  /// Attribution of freshly attached sets (ids >= first_set) to seed `v`.
  virtual double CommitOnRange(NodeId v, double accept_prob,
                               std::uint32_t first_set) = 0;
  /// Covered mass across attached sets (for the OPT_s lower bound).
  virtual double CoveredMass() const = 0;
  /// Bytes of this run's mutable view (the shared pool is accounted
  /// separately, once per distinct pool).
  virtual std::size_t MemoryBytes() const = 0;
  /// Fills `out[v]` with CoverageOf(v) for every node — the exact same
  /// values, one dense pass. The linear-scan paths (weight_by_ctp, the
  /// exact-selection fallback) go through this so the sharded backend can
  /// answer them with one per-shard fan-out instead of n per-node fans.
  virtual void SnapshotCoverage(std::vector<double>& out) const = 0;
};

class RemovalBackend : public CoverageBackend {
 public:
  explicit RemovalBackend(const RrSetPool* pool) : collection_(pool) {}

  void AttachUpTo(std::uint32_t count) override {
    collection_.AttachUpTo(count);
    if (heap_ != nullptr) heap_->Rebuild();
  }
  std::size_t NumSets() const override { return collection_.NumSets(); }
  double CoverageOf(NodeId v) const override {
    return collection_.CoverageOf(v);
  }
  NodeId BestNode(const std::function<bool(NodeId)>& eligible) override {
    if (heap_ == nullptr) heap_ = std::make_unique<CoverageHeap>(&collection_);
    const NodeId best = heap_->PopBest(eligible);
    // Tentative pop (another ad may win the iteration): reinsert; the lazy
    // heap tolerates duplicates.
    if (best != kInvalidNode) heap_->Push(best, collection_.CoverageOf(best));
    return best;
  }
  double Commit(NodeId v, double /*accept_prob*/) override {
    return collection_.CommitSeed(v);
  }
  double CommitOnRange(NodeId v, double /*accept_prob*/,
                       std::uint32_t first_set) override {
    return collection_.CommitSeedOnRange(v, first_set);
  }
  double CoveredMass() const override {
    return static_cast<double>(collection_.NumCovered());
  }
  std::size_t MemoryBytes() const override { return collection_.MemoryBytes(); }
  void SnapshotCoverage(std::vector<double>& out) const override {
    std::vector<std::uint32_t> counts;
    collection_.AccumulateCoverage(counts);
    out.assign(counts.begin(), counts.end());
  }

 private:
  RrCollection collection_;
  std::unique_ptr<CoverageHeap> heap_;
};

class WeightedBackend : public CoverageBackend {
 public:
  explicit WeightedBackend(const RrSetPool* pool) : collection_(pool) {}

  void AttachUpTo(std::uint32_t count) override {
    collection_.AttachUpTo(count);
    if (heap_ != nullptr) heap_->Rebuild();
  }
  std::size_t NumSets() const override { return collection_.NumSets(); }
  double CoverageOf(NodeId v) const override {
    return collection_.CoverageOf(v);
  }
  NodeId BestNode(const std::function<bool(NodeId)>& eligible) override {
    // CELF-style lazy heap (weighted coverages only decrease between
    // attach batches) — replaces the per-seed linear scan.
    if (heap_ == nullptr) {
      heap_ = std::make_unique<WeightedCoverageHeap>(&collection_);
    }
    const NodeId best = heap_->PopBest(eligible);
    if (best != kInvalidNode) heap_->Push(best, collection_.CoverageOf(best));
    return best;
  }
  double Commit(NodeId v, double accept_prob) override {
    return collection_.CommitSeed(v, accept_prob);
  }
  double CommitOnRange(NodeId v, double accept_prob,
                       std::uint32_t first_set) override {
    return collection_.CommitSeedOnRange(v, accept_prob, first_set);
  }
  double CoveredMass() const override { return collection_.CoveredMass(); }
  std::size_t MemoryBytes() const override { return collection_.MemoryBytes(); }
  void SnapshotCoverage(std::vector<double>& out) const override {
    collection_.AccumulateCoverage(out);
  }

 private:
  WeightedRrCollection collection_;
  std::unique_ptr<WeightedCoverageHeap> heap_;
};

// Distributed coverage plane (the GreeDIMM shape): the ad's RR sets live
// chunk-interleaved across K shard stores, each shard owning a private
// coverage view and CELF heap behind an RrShardClient. BestNode replaces
// the global heap with a tree-reduced top-L summary protocol whose every
// per-round sum is an exact integer, so the node it returns is the one the
// single-store CoverageHeap would pop — bit-identical selections at any K.
// Commits fan to every shard and replay the returned packed covered-word
// deltas into a coordinator-global covered bitmap.
class ShardedBackend : public CoverageBackend {
 public:
  ShardedBackend(std::vector<RrShardClient*> clients, AdId ad, NodeId num_nodes,
                 std::uint64_t chunk_sets)
      : clients_(std::move(clients)),
        ad_(ad),
        num_nodes_(num_nodes),
        chunk_sets_(chunk_sets) {
    TIRM_CHECK(!clients_.empty());
  }

  void AttachUpTo(std::uint32_t count) override {
    attached_ = count;
    const std::size_t words = CoverageWordsFor(count);
    if (words > covered_words_.size()) covered_words_.resize(words, 0);
    for (RrShardClient* client : clients_) {
      const Status attached = client->Attach(ad_, count);
      TIRM_CHECK(attached.ok()) << attached.ToString();
    }
  }
  std::size_t NumSets() const override { return attached_; }
  double CoverageOf(NodeId v) const override {
    const NodeId nodes[1] = {v};
    std::uint64_t total = 0;
    for (RrShardClient* client : clients_) {
      Result<std::vector<std::uint32_t>> counts =
          client->CoverageCounts(ad_, nodes);
      TIRM_CHECK(counts.ok()) << counts.status().ToString();
      total += counts.value()[0];
    }
    return static_cast<double>(total);
  }
  NodeId BestNode(const std::function<bool(NodeId)>& eligible) override {
    obs::TraceSpan span("shard_reduce");
    span.Counter("ad", ad_);
    const std::size_t num_shards = clients_.size();
    std::uint32_t top_l = 8;
    for (int round = 1;; ++round, top_l *= 2) {
      std::vector<ShardGainSummary> parts;
      parts.reserve(num_shards);
      for (RrShardClient* client : clients_) {
        Result<ShardGainSummary> part = client->Summarize(ad_, top_l);
        TIRM_CHECK(part.ok()) << part.status().ToString();
        parts.push_back(part.MoveValue());
      }
      const ReducedGainSummary reduced = TreeReduceGainSummaries(parts);

      // Complete every candidate's partial sum with exact counts from the
      // shards that did not list it (batched per shard, candidate order).
      std::vector<std::vector<NodeId>> missing(num_shards);
      for (const ReducedGainSummary::Candidate& cand : reduced.candidates) {
        for (std::size_t k = 0; k < num_shards; ++k) {
          if ((cand.shard_mask >> k & 1) == 0) missing[k].push_back(cand.node);
        }
      }
      std::vector<std::vector<std::uint32_t>> fills(num_shards);
      for (std::size_t k = 0; k < num_shards; ++k) {
        if (missing[k].empty()) continue;
        Result<std::vector<std::uint32_t>> counts =
            clients_[k]->CoverageCounts(ad_, missing[k]);
        TIRM_CHECK(counts.ok()) << counts.status().ToString();
        fills[k] = counts.MoveValue();
      }

      // Candidates arrive in ascending node-id order; strict > therefore
      // keeps the smallest id among equal totals — the CoverageHeap
      // tie-break exactly.
      std::vector<std::size_t> cursor(num_shards, 0);
      NodeId best = kInvalidNode;
      std::uint64_t best_total = 0;
      for (const ReducedGainSummary::Candidate& cand : reduced.candidates) {
        std::uint64_t total = cand.partial;
        for (std::size_t k = 0; k < num_shards; ++k) {
          if ((cand.shard_mask >> k & 1) == 0) total += fills[k][cursor[k]++];
        }
        if (total == 0 || !eligible(cand.node)) continue;
        if (total > best_total) {
          best_total = total;
          best = cand.node;
        }
      }

      // Any eligible node NO shard listed is bounded by the sum of the
      // per-shard unlisted bounds; a dry heap contributes 0, so doubling
      // top_l terminates. Strict > preserves the smallest-id tie-break
      // against unlisted nodes too.
      if (reduced.unlisted_bound == 0 || best_total > reduced.unlisted_bound) {
        span.Counter("rounds", round);
        span.Counter("top_l", top_l);
        span.Counter("coverage", static_cast<double>(best_total));
        return best;
      }
    }
  }
  double Commit(NodeId v, double /*accept_prob*/) override {
    return FanCommit(v, /*on_range=*/false, 0);
  }
  double CommitOnRange(NodeId v, double /*accept_prob*/,
                       std::uint32_t first_set) override {
    return FanCommit(v, /*on_range=*/true, first_set);
  }
  double CoveredMass() const override {
    return static_cast<double>(covered_count_);
  }
  std::size_t MemoryBytes() const override {
    // Coordinator-side global covered bitmap only; shard-side view bytes
    // are accounted by the per-shard MemoryStats fan in RunTirm.
    return covered_words_.capacity() * sizeof(std::uint64_t);
  }
  void SnapshotCoverage(std::vector<double>& out) const override {
    out.assign(num_nodes_, 0.0);
    for (RrShardClient* client : clients_) {
      Result<std::vector<std::uint32_t>> counts = client->DenseCoverage(ad_);
      TIRM_CHECK(counts.ok()) << counts.status().ToString();
      const std::vector<std::uint32_t>& local = counts.value();
      for (NodeId u = 0; u < num_nodes_; ++u) {
        out[u] += static_cast<double>(local[u]);
      }
    }
  }

 private:
  // Fans the commit to every shard and replays the returned packed word
  // deltas (local set-id space) into the global covered bitmap.
  double FanCommit(NodeId v, bool on_range, std::uint32_t first_set) {
    std::uint64_t newly = 0;
    const int num_shards = static_cast<int>(clients_.size());
    for (int k = 0; k < num_shards; ++k) {
      Result<CoveredWordDelta> delta =
          on_range ? clients_[static_cast<std::size_t>(k)]->CommitOnRange(
                         ad_, v, first_set)
                   : clients_[static_cast<std::size_t>(k)]->Commit(ad_, v);
      TIRM_CHECK(delta.ok()) << delta.status().ToString();
      for (const auto& [word, bits] : delta.value().words) {
        std::uint64_t rest = bits;
        while (rest != 0) {
          const int bit = std::countr_zero(rest);
          rest &= rest - 1;
          const std::uint64_t local_id =
              std::uint64_t{word} * kCoverageWordBits +
              static_cast<std::uint64_t>(bit);
          const std::uint64_t global_id =
              ShardLocalToGlobalSetId(local_id, chunk_sets_, num_shards, k);
          TIRM_DCHECK(global_id < attached_);
          covered_words_[global_id / kCoverageWordBits] |=
              std::uint64_t{1} << (global_id % kCoverageWordBits);
        }
      }
      newly += delta.value().newly_covered;
    }
    covered_count_ += newly;
    return static_cast<double>(newly);
  }

  std::vector<RrShardClient*> clients_;
  AdId ad_;
  NodeId num_nodes_;
  std::uint64_t chunk_sets_;
  std::uint64_t attached_ = 0;
  std::uint64_t covered_count_ = 0;
  std::vector<std::uint64_t> covered_words_;
};

// Per-ad mutable state of the TIRM main loop. Samples live in the store's
// per-ad pool (`entry`); this struct only owns the run-local view.
struct AdState {
  RrSampleStore::AdPool* entry = nullptr;  // pooled samples (store-owned)
  const KptEstimator* kpt = nullptr;       // cached widths (store-owned)
  std::unique_ptr<CoverageBackend> backend;

  std::uint64_t theta = 0;   // sets attached so far
  std::uint64_t s = 1;       // current seed-count estimate s_j
  double kpt_value = 1.0;    // KPT*(s)
  std::size_t expansions = 0;

  std::vector<NodeId> seeds;           // S_j in selection order
  std::vector<double> seed_coverage;   // Q_j: coverage mass at selection
  std::vector<std::uint8_t> in_seed_set;
  double revenue = 0.0;  // Π̂_j
  double last_marginal_revenue = 0.0;

  // Cached best candidate (valid => node/coverage current).
  bool cand_valid = false;
  NodeId cand_node = kInvalidNode;
  double cand_cov = 0.0;
};

}  // namespace

TirmResult RunTirm(const ProblemInstance& instance, const TirmOptions& options,
                   Rng& rng) {
  TIRM_CHECK(instance.Validate().ok()) << instance.Validate().ToString();
  const Graph& graph = instance.graph();
  const NodeId n = graph.num_nodes();
  const int h = instance.num_ads();
  const double dn = static_cast<double>(n);
  obs::TraceSpan run_span("tirm_run");
  run_span.Counter("ads", h);
  run_span.Counter("nodes", static_cast<double>(n));

  TirmResult result;

  // ------------------------------------------------------------ sample store
  // All sampling goes through an RrSampleStore. A shared store (engine
  // sweeps, head-to-head runs) serves warm pools; otherwise a private store
  // with the same chunked sampling discipline makes this run bit-identical
  // to a store-backed one at the same seed. The run's thread count only
  // decides how many threads sample: pools never depend on it.
  //
  // Sharded mode (the GreeDIMM shape) replaces the single store with K
  // shard clients — in-process LocalShardClients over a (shared or
  // private) ShardedRrSampleStore, or caller-injected clients (the serving
  // router's remote workers). Chunk-interleaved shard pools and the exact
  // integer reduction protocol keep allocations bit-identical to K = 1.
  const bool sharded = !options.shard_clients.empty() || options.num_shards > 1;
  TIRM_CHECK(!sharded || (!options.ctp_aware_coverage && !options.weight_by_ctp))
      << "sharded TIRM supports the paper-faithful unweighted path only";

  RrSampleStore* store = nullptr;
  std::optional<RrSampleStore> local_store;
  std::optional<ShardedRrSampleStore> local_sharded;
  std::vector<std::unique_ptr<LocalShardClient>> owned_clients;
  std::vector<RrShardClient*> clients = options.shard_clients;
  ShardRunConfig run_config;
  if (sharded) {
    run_config.num_ads = h;
    run_config.kpt_ell = options.theta.ell;
    run_config.kpt_max_samples = options.kpt_max_samples;
    if (clients.empty()) {
      ShardedRrSampleStore* sharded_store = options.sharded_sample_store;
      if (sharded_store == nullptr) {
        std::uint64_t store_seed = options.sample_store_seed;
        if (store_seed == 0) store_seed = rng.Fork(0x5707).NextUInt64();
        local_sharded.emplace(&graph,
                              RrSampleStore::Options{.seed = store_seed},
                              options.num_shards);
        sharded_store = &*local_sharded;
      } else {
        TIRM_CHECK(sharded_store->shard(0).graph() == &graph)
            << "shared ShardedRrSampleStore serves a different graph";
        result.cache.shared_store = true;
      }
      const RrSampleStore::Options& store_options =
          sharded_store->base_options();
      run_config.store_seed = store_options.seed;
      run_config.chunk_sets = store_options.chunk_sets;
      owned_clients.reserve(
          static_cast<std::size_t>(sharded_store->num_shards()));
      for (int k = 0; k < sharded_store->num_shards(); ++k) {
        owned_clients.push_back(std::make_unique<LocalShardClient>(
            &sharded_store->shard(k), &instance, options.num_threads));
        clients.push_back(owned_clients.back().get());
      }
    } else {
      // Injected (e.g. remote) clients: pin the store identity exactly the
      // way the private path derives it, so a router-driven run and an
      // in-process run at the same options agree bit for bit.
      std::uint64_t store_seed = options.sample_store_seed;
      if (store_seed == 0) store_seed = rng.Fork(0x5707).NextUInt64();
      run_config.store_seed = store_seed;
      run_config.chunk_sets = RrSampleStore::Options{}.chunk_sets;
    }
    run_span.Counter("shards", static_cast<double>(clients.size()));
    for (RrShardClient* client : clients) {
      const Status begun = client->BeginRun(run_config);
      TIRM_CHECK(begun.ok()) << begun.ToString();
    }
    // Commit-derived eligibility: attention-0 nodes never see an
    // `assigned` increment, so retire them up front to keep shard-side
    // eligibility equal to the coordinator's at every round.
    for (NodeId u = 0; u < n; ++u) {
      if (instance.AttentionBound(u) != 0) continue;
      for (RrShardClient* client : clients) {
        const Status retired = client->Retire(u);
        TIRM_CHECK(retired.ok()) << retired.ToString();
      }
    }
  } else {
    store = options.sample_store;
    if (store == nullptr) {
      std::uint64_t store_seed = options.sample_store_seed;
      if (store_seed == 0) store_seed = rng.Fork(0x5707).NextUInt64();
      local_store.emplace(&graph, RrSampleStore::Options{.seed = store_seed});
      store = &*local_store;
    } else {
      TIRM_CHECK(store->graph() == &graph)
          << "shared RrSampleStore serves a different graph";
      result.cache.shared_store = true;
    }
  }

  std::vector<std::uint16_t> assigned(n, 0);

  // θ growth for one ad, unified over both planes: a single-store top-up,
  // or a per-shard fan-out with one thread per client (distinct stores
  // share no mutable state, so the round costs the slowest shard, not the
  // sum — the per-shard `shard_ensure` spans expose the skew).
  auto ensure_sets = [&](AdId j, AdState& st, std::uint64_t min_sets,
                         std::uint64_t already_attached) {
    if (!sharded) {
      const RrSampleStore::EnsureResult ensured = store->EnsureSets(
          st.entry, min_sets, already_attached, options.num_threads);
      result.cache.sampled_sets += ensured.sampled;
      result.cache.reused_sets += ensured.reused;
      result.cache.max_traversal =
          std::max(result.cache.max_traversal, ensured.max_traversal);
      if (ensured.sampled > 0) ++result.cache.top_ups;
      return;
    }
    const std::size_t num_shards = clients.size();
    std::vector<RrSampleStore::EnsureResult> ensured(num_shards);
    std::vector<Status> statuses(num_shards, Status::OK());
    auto fan = [&](std::size_t k) {
      Result<RrSampleStore::EnsureResult> local =
          clients[k]->EnsureSets(j, min_sets, already_attached);
      if (local.ok()) {
        ensured[k] = local.MoveValue();
      } else {
        statuses[k] = local.status();
      }
    };
    {
      // Declared after the results the threads write: if a thread fails to
      // start or fan(0) throws, unwinding joins the started threads first.
      std::vector<std::jthread> workers;
      workers.reserve(num_shards - 1);
      for (std::size_t k = 1; k < num_shards; ++k) workers.emplace_back(fan, k);
      fan(0);
    }
    bool any_sampled = false;
    for (std::size_t k = 0; k < num_shards; ++k) {
      TIRM_CHECK(statuses[k].ok()) << statuses[k].ToString();
      result.cache.sampled_sets += ensured[k].sampled;
      result.cache.reused_sets += ensured[k].reused;
      result.cache.max_traversal =
          std::max(result.cache.max_traversal, ensured[k].max_traversal);
      any_sampled = any_sampled || ensured[k].sampled > 0;
    }
    if (any_sampled) ++result.cache.top_ups;
  };

  // ------------------------------------------------ initialization (line 1-3)
  std::vector<std::unique_ptr<AdState>> ads;
  ads.reserve(static_cast<std::size_t>(h));
  for (AdId j = 0; j < h; ++j) {
    obs::TraceSpan init_span("tirm_init");
    init_span.Counter("ad", j);
    auto st = std::make_unique<AdState>();
    st->in_seed_set.assign(n, 0);

    bool kpt_hit = false;
    if (sharded) {
      // Every shard store derives the same per-ad base seed, so shard 0's
      // width cache answers KPT*(s) with the single-store value bit for
      // bit (see rrset/shard_client.h).
      const Result<double> kpt = clients[0]->KptEstimate(j, st->s, &kpt_hit);
      TIRM_CHECK(kpt.ok()) << kpt.status().ToString();
      st->kpt_value = kpt.value();
    } else {
      st->entry = store->Acquire(store->SignatureForAd(instance, j),
                                 instance.EdgeProbsForAd(j));
      const KptEstimator::Options kpt_options{
          .ell = options.theta.ell, .max_samples = options.kpt_max_samples};
      st->kpt = &store->EnsureKpt(st->entry, kpt_options, st->s, &kpt_hit,
                                  options.num_threads);
      st->kpt_value = st->kpt->ReEstimate(st->s);
    }
    ++result.cache.kpt_estimations;
    if (kpt_hit) ++result.cache.kpt_cache_hits;

    const double opt_lb = std::max(st->kpt_value, static_cast<double>(st->s));
    st->theta = ComputeTheta(n, st->s, opt_lb, options.theta);
    ensure_sets(j, *st, st->theta, /*already_attached=*/0);

    if (sharded) {
      st->backend = std::make_unique<ShardedBackend>(clients, j, n,
                                                     run_config.chunk_sets);
    } else if (options.ctp_aware_coverage) {
      st->backend = std::make_unique<WeightedBackend>(&st->entry->sets());
    } else {
      st->backend = std::make_unique<RemovalBackend>(&st->entry->sets());
    }
    st->backend->AttachUpTo(static_cast<std::uint32_t>(st->theta));
    ads.push_back(std::move(st));
  }

  std::size_t max_seeds = options.max_total_seeds;
  if (max_seeds == 0) {
    for (NodeId u = 0; u < n; ++u) {
      max_seeds += static_cast<std::size_t>(instance.AttentionBound(u));
    }
  }

  // Per-ad eligibility: attention left and not already in S_j.
  auto make_eligible = [&](AdId j) {
    AdState* st = ads[static_cast<std::size_t>(j)].get();
    return [this_st = st, &assigned, &instance](NodeId u) {
      return assigned[u] < instance.AttentionBound(u) &&
             this_st->in_seed_set[u] == 0;
    };
  };

  // Marginal revenue of a candidate node (Theorem 5 δ-scaling; in weighted
  // mode the coverage mass is already CTP-discounted for *earlier* seeds).
  auto marginal_of = [&](AdId j, NodeId u, double cov) {
    const AdState& st = *ads[static_cast<std::size_t>(j)];
    const double coverage_fraction = cov / static_cast<double>(st.theta);
    return instance.advertiser(j).cpe * dn *
           static_cast<double>(instance.Delta(u, j)) * coverage_fraction;
  };

  // Refreshes ad j's cached candidate: Algorithm 3 (SelectBestNode), with
  // the Algorithm 1-style fallback when the top-coverage node overshoots.
  auto refresh_candidate = [&](AdId j) {
    AdState& st = *ads[static_cast<std::size_t>(j)];
    const auto eligible = make_eligible(j);
    if (options.weight_by_ctp) {
      // Ablation variant: argmax of δ(u,j)·coverage by linear scan over a
      // dense coverage snapshot (identical values to per-node CoverageOf).
      std::vector<double> coverage;
      st.backend->SnapshotCoverage(coverage);
      NodeId best = kInvalidNode;
      double best_score = 0.0;
      for (NodeId u = 0; u < n; ++u) {
        const double cov = coverage[u];
        if (cov <= 0.0 || !eligible(u)) continue;
        const double score = static_cast<double>(instance.Delta(u, j)) * cov;
        if (score > best_score) {
          best_score = score;
          best = u;
        }
      }
      st.cand_node = best;
      st.cand_cov = best == kInvalidNode ? 0.0 : coverage[best];
    } else {
      // Faithful Algorithm 3: argmax raw coverage subject to attention.
      const NodeId best = st.backend->BestNode(eligible);
      st.cand_node = best;
      st.cand_cov = best == kInvalidNode ? 0.0 : st.backend->CoverageOf(best);
    }
    if (options.exact_selection_fallback && st.cand_node != kInvalidNode) {
      const double top_marginal = marginal_of(j, st.cand_node, st.cand_cov);
      const double drop = RegretDrop(instance, j, st.revenue, top_marginal);
      if (drop <= options.min_drop ||
          top_marginal > BudgetRegret(instance, j, st.revenue)) {
        // Top candidate fails to decrease regret, or overshoots the
        // remaining budget gap (a smaller node may then drop regret much
        // further): scan for the largest positive drop (Algorithm 1
        // semantics) over a dense coverage snapshot — one pass (one
        // per-shard fan-out in sharded mode) instead of n per-node reads.
        // Rare — only near budget saturation.
        std::vector<double> coverage;
        st.backend->SnapshotCoverage(coverage);
        NodeId best = kInvalidNode;
        double best_cov = 0.0;
        double best_drop = options.min_drop;
        for (NodeId u = 0; u < n; ++u) {
          const double cov = coverage[u];
          if (cov <= 0.0 || !eligible(u)) continue;
          const double d =
              RegretDrop(instance, j, st.revenue, marginal_of(j, u, cov));
          if (d > best_drop) {
            best_drop = d;
            best = u;
            best_cov = cov;
          }
        }
        st.cand_node = best;
        st.cand_cov = best_cov;
      }
    }
    st.cand_valid = true;
  };

  result.ad_stats.resize(static_cast<std::size_t>(h));

  static obs::Counter& rounds_counter =
      obs::MetricsRegistry::Global().GetCounter("tirm.selection_rounds");
  static obs::Counter& expansion_counter =
      obs::MetricsRegistry::Global().GetCounter("tirm.theta_expansions");

  // ------------------------------------------------------- main loop (line 4)
  while (result.iterations < max_seeds) {
    obs::TraceSpan round_span("tirm_select_round");
    AdId best_ad = kInvalidAd;
    double best_drop = options.min_drop;
    double best_marginal = 0.0;
    for (AdId j = 0; j < h; ++j) {
      AdState& st = *ads[static_cast<std::size_t>(j)];
      const auto eligible = make_eligible(j);
      if (!st.cand_valid ||
          (st.cand_node != kInvalidNode &&
           (!eligible(st.cand_node) ||
            st.backend->CoverageOf(st.cand_node) != st.cand_cov))) {
        refresh_candidate(j);
      }
      if (st.cand_node == kInvalidNode || st.cand_cov <= 0.0) continue;
      const double mg = marginal_of(j, st.cand_node, st.cand_cov);
      if (mg <= 0.0) continue;
      // Line 8: max drop in regret, subject to strict decrease.
      const double drop = RegretDrop(instance, j, st.revenue, mg);
      if (drop > best_drop) {
        best_drop = drop;
        best_ad = j;
        best_marginal = mg;
      }
    }
    if (best_ad == kInvalidAd) break;  // no (user, ad) pair improves: return

    // Lines 10-12: commit the seed; discount/remove covered RR sets.
    AdState& st = *ads[static_cast<std::size_t>(best_ad)];
    const NodeId v = st.cand_node;
    const double delta_v = static_cast<double>(instance.Delta(v, best_ad));
    st.seeds.push_back(v);
    st.seed_coverage.push_back(st.cand_cov);
    st.in_seed_set[v] = 1;
    ++assigned[v];
    if (sharded && assigned[v] >= instance.AttentionBound(v)) {
      // v's global attention budget is exhausted — the exact moment the
      // coordinator's eligibility tightens for every ad, so shard-side
      // eligibility stays equal (commit-derived, no budget state shipped).
      for (RrShardClient* client : clients) {
        const Status retired = client->Retire(v);
        TIRM_CHECK(retired.ok()) << retired.ToString();
      }
    }
    st.revenue += best_marginal;
    st.last_marginal_revenue = best_marginal;
    const double covered = st.backend->Commit(v, delta_v);
    TIRM_DCHECK(std::abs(covered - st.cand_cov) <= 1e-6 * (1.0 + covered));
    (void)covered;
    st.cand_valid = false;
    ++result.iterations;
    rounds_counter.Increment();
    round_span.Counter("ad", best_ad);
    round_span.Counter("drop", best_drop);

    // Lines 14-19: iterative seed-set-size estimation and θ growth.
    if (st.seeds.size() >= st.s) {
      const double budget_regret = BudgetRegret(instance, best_ad, st.revenue);
      std::uint64_t grow = 0;
      if (st.last_marginal_revenue > 0.0) {
        grow = static_cast<std::uint64_t>(budget_regret /
                                          st.last_marginal_revenue);
      }
      // The floor can be 0 right at the budget boundary; allow one more
      // seed so the regret-drop test (not s) decides termination.
      grow = std::max<std::uint64_t>(grow, 1);
      st.s = std::min<std::uint64_t>(st.s + grow, n);
      if (sharded) {
        const Result<double> kpt = clients[0]->KptEstimate(best_ad, st.s);
        TIRM_CHECK(kpt.ok()) << kpt.status().ToString();
        st.kpt_value = kpt.value();
      } else {
        st.kpt_value = st.kpt->ReEstimate(st.s);
      }

      // OPT_s ≥ max(KPT*(s), spread estimate of current seeds, s).
      const double covered_fraction =
          st.backend->CoveredMass() / static_cast<double>(st.theta);
      const double opt_lb = std::max(
          {st.kpt_value, dn * covered_fraction, static_cast<double>(st.s)});
      const std::uint64_t new_theta =
          std::max(ComputeTheta(n, st.s, opt_lb, options.theta), st.theta);
      if (new_theta > st.theta) {
        ++st.expansions;
        expansion_counter.Increment();
        obs::TraceSpan expand_span("theta_expand");
        expand_span.Counter("ad", best_ad);
        expand_span.Counter("old_theta", static_cast<double>(st.theta));
        expand_span.Counter("new_theta", static_cast<double>(new_theta));
        const auto first_new = static_cast<std::uint32_t>(st.theta);
        // θ growth is a store top-up, not a resample: warm pools serve it
        // from already-sampled chunks (fanned per shard in sharded mode).
        ensure_sets(best_ad, st, new_theta, /*already_attached=*/st.theta);
        const std::uint64_t old_theta = st.theta;
        st.theta = new_theta;
        st.backend->AttachUpTo(static_cast<std::uint32_t>(new_theta));

        // Algorithm 4 (UpdateEstimates): attribute the new sets to the
        // existing seeds in selection order, keeping coverages marginal,
        // then recompute Π̂_j under the enlarged collection.
        double revenue = 0.0;
        for (std::size_t q = 0; q < st.seeds.size(); ++q) {
          const NodeId w = st.seeds[q];
          const double delta_w =
              static_cast<double>(instance.Delta(w, best_ad));
          const double extra =
              st.backend->CommitOnRange(w, delta_w, first_new);
          st.seed_coverage[q] += extra;
          revenue += instance.advertiser(best_ad).cpe * dn * delta_w *
                     (st.seed_coverage[q] / static_cast<double>(st.theta));
        }
        st.revenue = revenue;
        TIRM_LOG_DEBUG("tirm ad %d: s=%llu theta %llu -> %llu (expansion %zu)",
                       static_cast<int>(best_ad),
                       static_cast<unsigned long long>(st.s),
                       static_cast<unsigned long long>(old_theta),
                       static_cast<unsigned long long>(new_theta),
                       st.expansions);
      }
    }
  }

  // ------------------------------------------------------------- results
  result.allocation = Allocation::Empty(h);
  result.estimated_revenue.resize(static_cast<std::size_t>(h));
  std::unordered_set<const RrSampleStore::AdPool*> distinct_pools;
  for (AdId j = 0; j < h; ++j) {
    const auto idx = static_cast<std::size_t>(j);
    AdState& st = *ads[idx];
    result.allocation.seeds[idx] = st.seeds;
    result.estimated_revenue[idx] = st.revenue;
    TirmAdStats& stats = result.ad_stats[idx];
    stats.theta = st.theta;
    stats.final_s = st.s;
    stats.kpt = st.kpt_value;
    stats.num_seeds = st.seeds.size();
    stats.estimated_revenue = st.revenue;
    stats.expansions = st.expansions;
    result.cache.view_bytes += st.backend->MemoryBytes();
    if (st.entry != nullptr && distinct_pools.insert(st.entry).second) {
      result.cache.arena_bytes += st.entry->sets().MemoryBytes();
    }
    result.total_rr_sets += st.theta;
  }
  if (sharded) {
    // Shard-side accounting (pooled arenas + per-shard views) comes from
    // one MemoryStats fan; the per-ad loop above only saw the
    // coordinator-global covered bitmaps.
    for (RrShardClient* client : clients) {
      Result<ShardMemoryStats> stats = client->MemoryStats();
      TIRM_CHECK(stats.ok()) << stats.status().ToString();
      result.cache.arena_bytes += stats.value().arena_bytes;
      result.cache.view_bytes += stats.value().view_bytes;
    }
  }
  result.rr_memory_bytes = result.cache.arena_bytes + result.cache.view_bytes;
  return result;
}

}  // namespace tirm
