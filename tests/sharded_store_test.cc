// ShardedRrSampleStore + the distributed TIRM plane. Covers the chunk-
// interleave math (ShardPrefixCount, and its inverse numbering below),
// bit-exact pool partitioning (the union of the K shard pools IS the
// single-store pool; K = 1 degenerates to a plain store), the tree
// reduction of marginal-gain summaries, golden sharded-vs-single
// allocations for all five allocators at K in {1, 2, 4}, the NDJSON shard
// protocol driven end to end through RemoteShardClient +
// ShardWorkerSession over an in-process transport, the commit responses
// of the wire, and a concurrent per-shard top-up test (run under TSan in
// CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc/tirm.h"
#include "api/ad_alloc_engine.h"
#include "common/json.h"
#include "common/rng.h"
#include "datasets/dataset.h"
#include "graph/generators.h"
#include "rrset/sample_store.h"
#include "rrset/shard_client.h"
#include "rrset/sharded_store.h"
#include "serve/shard_protocol.h"
#include "serve/shard_remote.h"
#include "serve/shard_worker.h"
#include "topic/instance.h"

namespace tirm {
namespace {

constexpr std::uint64_t kSeed = 2015;
constexpr std::uint64_t kChunk = 64;

std::vector<float> ConstantProbs(const Graph& g, float p) {
  return std::vector<float>(g.num_edges(), p);
}

std::vector<std::vector<NodeId>> Materialize(const RrSetPool& pool,
                                             std::size_t count) {
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(count);
  for (std::uint32_t id = 0; id < count; ++id) {
    const auto members = pool.SetMembers(id);
    sets.emplace_back(members.begin(), members.end());
  }
  return sets;
}

// ------------------------------------------------------ interleave math

/// Maps a shard-local set id back to its global id (the inverse numbering
/// of ShardPrefixCount): local id l in shard k lives in that shard's local
/// chunk l / chunk_sets, which is global chunk (l / chunk_sets) *
/// num_shards + k.
std::uint64_t ShardLocalToGlobalSetId(std::uint64_t local_id,
                                      std::uint64_t chunk_sets,
                                      int num_shards, int shard) {
  const std::uint64_t global_chunk =
      local_id / chunk_sets * static_cast<std::uint64_t>(num_shards) +
      static_cast<std::uint64_t>(shard);
  return global_chunk * chunk_sets + local_id % chunk_sets;
}

TEST(ShardMathTest, PrefixCountsPartitionEveryWatermark) {
  for (const int num_shards : {1, 2, 3, 4, 7}) {
    for (const std::uint64_t watermark :
         {std::uint64_t{0}, std::uint64_t{1}, kChunk - 1, kChunk,
          3 * kChunk + 17, 16 * kChunk}) {
      std::uint64_t total = 0;
      for (int k = 0; k < num_shards; ++k) {
        total += ShardPrefixCount(watermark, kChunk, num_shards, k);
      }
      EXPECT_EQ(total, watermark)
          << "K=" << num_shards << " watermark=" << watermark;
    }
  }
  // Identity for one shard.
  EXPECT_EQ(ShardPrefixCount(12345, kChunk, 1, 0), 12345u);
}

TEST(ShardMathTest, LocalToGlobalIsTheInverseNumbering) {
  const std::uint64_t watermark = 7 * kChunk + 21;
  for (const int num_shards : {1, 2, 4}) {
    std::vector<bool> seen(watermark, false);
    for (int k = 0; k < num_shards; ++k) {
      const std::uint64_t prefix =
          ShardPrefixCount(watermark, kChunk, num_shards, k);
      std::uint64_t previous = 0;
      for (std::uint64_t l = 0; l < prefix; ++l) {
        const std::uint64_t global =
            ShardLocalToGlobalSetId(l, kChunk, num_shards, k);
        ASSERT_LT(global, watermark);
        // Owned by shard k, strictly increasing in l.
        EXPECT_EQ((global / kChunk) % static_cast<std::uint64_t>(num_shards),
                  static_cast<std::uint64_t>(k));
        if (l > 0) {
          EXPECT_GT(global, previous);
        }
        previous = global;
        ASSERT_FALSE(seen[global]) << "global id mapped twice";
        seen[global] = true;
      }
    }
    for (std::uint64_t g = 0; g < watermark; ++g) {
      ASSERT_TRUE(seen[g]) << "global id " << g << " unmapped at K="
                           << num_shards;
    }
  }
}

// -------------------------------------------------- pool partitioning

class ShardedStoreTest : public ::testing::Test {
 protected:
  ShardedStoreTest() {
    Rng rng(kSeed);
    graph_ = RMatGraph(9, 2500, rng);  // 512 nodes
    probs_ = ConstantProbs(graph_, 0.08f);
  }

  RrSampleStore::Options BaseOptions() const {
    return {.seed = 99, .chunk_sets = kChunk};
  }

  Graph graph_;
  std::vector<float> probs_;
};

// The union of the K shard pools, renumbered through
// ShardLocalToGlobalSetId, is the single-store pool bit for bit.
TEST_F(ShardedStoreTest, UnionOfShardPoolsIsTheSingleStorePool) {
  const std::uint64_t theta = kChunk * 8;
  RrSampleStore single(&graph_, BaseOptions());
  RrSampleStore::AdPool* ref = single.Acquire(77, probs_);
  single.EnsureSets(ref, theta);
  const auto golden = Materialize(ref->sets(), theta);

  for (const int num_shards : {1, 2, 4}) {
    ShardedRrSampleStore store(&graph_, BaseOptions(), num_shards);
    std::vector<std::vector<NodeId>> merged(theta);
    std::uint64_t total = 0;
    for (int k = 0; k < num_shards; ++k) {
      RrSampleStore::AdPool* pool = store.shard(k).Acquire(77, probs_);
      store.shard(k).EnsureSets(pool, theta);
      const std::uint64_t prefix =
          ShardPrefixCount(theta, kChunk, num_shards, k);
      ASSERT_EQ(pool->sets().NumSets(), prefix);
      const auto local = Materialize(pool->sets(), prefix);
      for (std::uint64_t l = 0; l < prefix; ++l) {
        merged[ShardLocalToGlobalSetId(l, kChunk, num_shards, k)] = local[l];
      }
      total += prefix;
    }
    ASSERT_EQ(total, theta);
    EXPECT_EQ(merged, golden) << "K=" << num_shards;
  }
}

// A K=1 sharded store is a plain store: same arena bytes, same stats
// shape, same pool.
TEST_F(ShardedStoreTest, SingleShardDegeneratesToPlainStore) {
  ShardedRrSampleStore store(&graph_, BaseOptions(), 1);
  ASSERT_EQ(store.num_shards(), 1);
  RrSampleStore::AdPool* pool = store.shard(0).Acquire(77, probs_);
  store.shard(0).EnsureSets(pool, kChunk * 4);

  RrSampleStore plain(&graph_, BaseOptions());
  RrSampleStore::AdPool* ref = plain.Acquire(77, probs_);
  plain.EnsureSets(ref, kChunk * 4);

  EXPECT_EQ(Materialize(pool->sets(), pool->sets().NumSets()),
            Materialize(ref->sets(), ref->sets().NumSets()));
  EXPECT_EQ(store.TotalArenaBytes(), plain.TotalArenaBytes());
  EXPECT_EQ(store.LifetimeStats().sampled_sets,
            plain.LifetimeStats().sampled_sets);
}

// Concurrent per-shard fan-out (one thread per shard, plus a second
// top-up thread per shard racing on the SAME entry) — this is the
// TSan-relevant shape of the coordinator's ensure_sets round.
TEST_F(ShardedStoreTest, ConcurrentShardTopUpsStayBitExact) {
  const int num_shards = 4;
  const std::uint64_t theta = kChunk * 16;
  ShardedRrSampleStore store(&graph_, BaseOptions(), num_shards);
  std::vector<std::thread> threads;
  for (int k = 0; k < num_shards; ++k) {
    threads.emplace_back([&, k] {
      RrSampleStore::AdPool* pool = store.shard(k).Acquire(77, probs_);
      store.shard(k).EnsureSets(pool, theta / 2);
      store.shard(k).EnsureSets(pool, theta);
    });
    threads.emplace_back([&, k] {
      RrSampleStore::AdPool* pool = store.shard(k).Acquire(77, probs_);
      store.shard(k).EnsureSets(pool, theta);
    });
  }
  for (std::thread& t : threads) t.join();

  RrSampleStore single(&graph_, BaseOptions());
  RrSampleStore::AdPool* ref = single.Acquire(77, probs_);
  single.EnsureSets(ref, theta);
  const auto golden = Materialize(ref->sets(), theta);
  std::vector<std::vector<NodeId>> merged(theta);
  for (int k = 0; k < num_shards; ++k) {
    RrSampleStore::AdPool* pool = store.shard(k).Acquire(77, probs_);
    const std::uint64_t prefix =
        ShardPrefixCount(theta, kChunk, num_shards, k);
    ASSERT_EQ(pool->sets().NumSets(), prefix);
    const auto local = Materialize(pool->sets(), prefix);
    for (std::uint64_t l = 0; l < prefix; ++l) {
      merged[ShardLocalToGlobalSetId(l, kChunk, num_shards, k)] = local[l];
    }
  }
  EXPECT_EQ(merged, golden);
}

// ------------------------------------------------------- tree reduction

TEST(TreeReduceTest, MergesPartialSumsMasksAndBounds) {
  std::vector<ShardGainSummary> parts(3);
  parts[0] = {.shard = 0, .top = {{5, 10}, {3, 7}}, .unlisted_bound = 7};
  parts[1] = {.shard = 1, .top = {{3, 9}, {8, 4}}, .unlisted_bound = 4};
  parts[2] = {.shard = 2, .top = {{5, 1}}, .unlisted_bound = 0};
  const ReducedGainSummary reduced = TreeReduceGainSummaries(parts);

  ASSERT_EQ(reduced.candidates.size(), 3u);  // nodes {3, 5, 8}, ascending
  EXPECT_EQ(reduced.candidates[0].node, 3u);
  EXPECT_EQ(reduced.candidates[0].partial, 16u);
  EXPECT_EQ(reduced.candidates[0].shard_mask, 0b011u);
  EXPECT_EQ(reduced.candidates[1].node, 5u);
  EXPECT_EQ(reduced.candidates[1].partial, 11u);
  EXPECT_EQ(reduced.candidates[1].shard_mask, 0b101u);
  EXPECT_EQ(reduced.candidates[2].node, 8u);
  EXPECT_EQ(reduced.candidates[2].partial, 4u);
  EXPECT_EQ(reduced.candidates[2].shard_mask, 0b010u);
  EXPECT_EQ(reduced.unlisted_bound, 11u);
}

TEST(TreeReduceTest, ReductionIsOrderIndependent) {
  std::vector<ShardGainSummary> parts(4);
  for (int k = 0; k < 4; ++k) {
    parts[static_cast<std::size_t>(k)] = {
        .shard = k,
        .top = {{static_cast<NodeId>(k), 5u + static_cast<std::uint32_t>(k)},
                {9, 2}},
        .unlisted_bound = 2};
  }
  const ReducedGainSummary forward = TreeReduceGainSummaries(parts);
  std::vector<ShardGainSummary> reversed(parts.rbegin(), parts.rend());
  const ReducedGainSummary backward = TreeReduceGainSummaries(reversed);
  ASSERT_EQ(forward.candidates.size(), backward.candidates.size());
  for (std::size_t i = 0; i < forward.candidates.size(); ++i) {
    EXPECT_EQ(forward.candidates[i].node, backward.candidates[i].node);
    EXPECT_EQ(forward.candidates[i].partial, backward.candidates[i].partial);
    EXPECT_EQ(forward.candidates[i].shard_mask,
              backward.candidates[i].shard_mask);
  }
  EXPECT_EQ(forward.unlisted_bound, backward.unlisted_bound);
}

// ------------------------------------------- golden: sharded == single

AllocatorConfig ShardConfig(const std::string& name, int num_shards) {
  AllocatorConfig config;
  config.allocator = name;
  config.eps = 0.25;
  config.theta_cap = 1 << 15;
  config.mc_sims = 50;
  config.num_shards = num_shards;
  return config;
}

// Engine-level golden gate: every registered allocator, every K in
// {1, 2, 4}, allocations and revenue bit-identical to the unsharded
// engine. (num_shards only changes TIRM's sampling plane; the other four
// ride along to prove the config plumbing never perturbs them.)
TEST(ShardedGoldenTest, AllFiveAllocatorsBitIdenticalAcrossK) {
  AdAllocEngine baseline(BuildFigure1Instance(),
                         {.eval_sims = 200, .seed = kSeed});
  for (const int num_shards : {1, 2, 4}) {
    AdAllocEngine sharded(BuildFigure1Instance(),
                          {.eval_sims = 200, .seed = kSeed});
    for (const char* name :
         {"tirm", "greedy-mc", "greedy-irie", "myopic", "myopic+"}) {
      for (const double lambda : {0.0, 0.5}) {
        Result<EngineRun> want =
            baseline.Run(ShardConfig(name, 1), {.lambda = lambda});
        Result<EngineRun> got =
            sharded.Run(ShardConfig(name, num_shards), {.lambda = lambda});
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->result.allocation.seeds, want->result.allocation.seeds)
            << name << " K=" << num_shards << " lambda=" << lambda;
        EXPECT_EQ(got->result.estimated_revenue,
                  want->result.estimated_revenue)
            << name << " K=" << num_shards << " lambda=" << lambda;
      }
    }
  }
}

// A sharded engine run samples into the engine's sharded store, not its
// single one, and the engine must report that store: the same pooled ads
// and sampled sets as a K = 1 engine's single store, since the K shard
// pools partition the same global pool.
TEST(ShardedGoldenTest, EngineReportsTheShardedStoreItSampled) {
  const auto build = [] {
    Rng build_rng(77);
    return BuildDataset(FlixsterLike(0.01), build_rng);
  };
  AdAllocEngine single(build(), {.eval_sims = 50, .seed = kSeed});
  AdAllocEngine sharded(build(), {.eval_sims = 50, .seed = kSeed});
  ASSERT_TRUE(single.Run(ShardConfig("tirm", 1)).ok());
  ASSERT_TRUE(sharded.Run(ShardConfig("tirm", 2)).ok());

  EXPECT_EQ(single.sharded_sample_store(2), nullptr);
  EXPECT_EQ(sharded.sharded_sample_store(4), nullptr);
  const RrSampleStore* store = single.sample_store();
  const ShardedRrSampleStore* shards = sharded.sharded_sample_store(2);
  ASSERT_NE(store, nullptr);
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->num_shards(), 2);
  // More than one chunk, so both shards own sampled sets.
  const std::uint64_t sampled = store->LifetimeStats().sampled_sets;
  EXPECT_GT(sampled, RrSampleStore::Options{}.chunk_sets);
  EXPECT_GT(shards->shard(1).LifetimeStats().sampled_sets, 0u);
  EXPECT_EQ(shards->LifetimeStats().sampled_sets, sampled);
  EXPECT_GT(store->NumEntries(), 0u);
  EXPECT_EQ(shards->shard(0).NumEntries(), store->NumEntries());
  EXPECT_EQ(shards->shard(1).NumEntries(), store->NumEntries());
  // The engine's totals count its sharded store.
  EXPECT_EQ(sharded.StoreStats().sampled_sets, sampled);
  EXPECT_EQ(single.StoreStats().sampled_sets, sampled);
}

// Direct RunTirm on a generated graph (bigger than fig1, kappa = 2): the
// sharded coordinator over a private sharded store reproduces the single
// store run bit for bit, and a second run over the same warm shared store
// stays identical (pool reuse across runs).
TEST(ShardedGoldenTest, TirmOnGeneratedGraphMatchesAcrossK) {
  Rng build_rng(77);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.01), build_rng);
  const ProblemInstance inst = built.MakeInstance(2, 0.1);

  TirmOptions options;
  options.theta.epsilon = 0.25;
  options.theta.theta_cap = 1 << 15;
  options.sample_store_seed = 1234;

  Rng single_rng(kSeed);
  const TirmResult single = RunTirm(inst, options, single_rng);

  for (const int num_shards : {2, 4}) {
    options.num_shards = num_shards;
    Rng rng(kSeed);
    const TirmResult sharded = RunTirm(inst, options, rng);
    EXPECT_EQ(sharded.allocation.seeds, single.allocation.seeds)
        << "K=" << num_shards;

    ShardedRrSampleStore store(&inst.graph(), {.seed = 1234}, num_shards);
    options.sharded_sample_store = &store;
    Rng warm_rng(kSeed);
    const TirmResult prime = RunTirm(inst, options, warm_rng);  // fills pools
    EXPECT_EQ(prime.allocation.seeds, single.allocation.seeds);
    EXPECT_TRUE(prime.cache.shared_store);
    Rng warm_rng2(kSeed);
    const TirmResult warm = RunTirm(inst, options, warm_rng2);
    EXPECT_EQ(warm.allocation.seeds, single.allocation.seeds);
    EXPECT_GT(warm.cache.reused_sets, 0u);
    options.sharded_sample_store = nullptr;
  }
}

// --------------------------------------- remote protocol, in process

// The full NDJSON codec + worker dispatch + remote client, without
// sockets: RemoteShardClients speak through InProcessTransports to
// ShardWorkerSessions, and the resulting allocation must equal the
// unsharded run bit for bit — the unit-test twin of the CI multi-process
// smoke. Each worker samples at its own thread count (1 and 2), which must
// not matter.
TEST(ShardProtocolTest, RemoteClientsOverInProcessTransportMatchSingle) {
  Rng build_rng(77);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.01), build_rng);
  const ProblemInstance inst = built.MakeInstance(1, 0.0);

  TirmOptions options;
  options.theta.epsilon = 0.25;
  options.theta.theta_cap = 1 << 15;
  options.sample_store_seed = 4321;

  Rng single_rng(kSeed);
  const TirmResult single = RunTirm(inst, options, single_rng);

  const int num_shards = 2;
  std::vector<std::unique_ptr<serve::ShardWorkerContext>> contexts;
  std::vector<std::unique_ptr<serve::ShardWorkerSession>> sessions;
  std::vector<std::unique_ptr<serve::RemoteShardClient>> remotes;
  for (int k = 0; k < num_shards; ++k) {
    contexts.push_back(std::make_unique<serve::ShardWorkerContext>(
        &inst, k, num_shards, /*num_threads=*/k + 1));
    sessions.push_back(
        std::make_unique<serve::ShardWorkerSession>(contexts.back().get()));
    remotes.push_back(std::make_unique<serve::RemoteShardClient>(
        std::make_unique<serve::InProcessTransport>(sessions.back().get()), k,
        num_shards));
    options.shard_clients.push_back(remotes.back().get());
  }

  Rng remote_rng(kSeed);
  const TirmResult remote = RunTirm(inst, options, remote_rng);
  EXPECT_EQ(remote.allocation.seeds, single.allocation.seeds);
  EXPECT_EQ(remote.estimated_revenue, single.estimated_revenue);

  // A second run over the same sessions reuses the workers' warm store
  // cache (router reconnect shape) and stays identical.
  Rng again_rng(kSeed);
  const TirmResult again = RunTirm(inst, options, again_rng);
  EXPECT_EQ(again.allocation.seeds, single.allocation.seeds);
}

// The trimmed wire, line by line: a worker answers every commit and
// commit_range with its count alone, the count a LocalShardClient over an
// identical store returns, and `covered` is no op at all.
TEST(ShardProtocolTest, WorkerCommitsAnswerWithTheLocalCountOnly) {
  Rng build_rng(77);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.005), build_rng);
  const ProblemInstance inst = built.MakeInstance(1, 0.0);
  const NodeId n = inst.graph().num_nodes();

  serve::ShardWorkerContext context(&inst, /*shard_index=*/0,
                                    /*num_shards=*/1, /*num_threads=*/1);
  serve::ShardWorkerSession session(&context);
  RrSampleStore store(&inst.graph(), {.seed = 7});
  LocalShardClient local(&store, &inst, /*num_threads=*/1);
  ShardRunConfig run;
  run.num_ads = inst.num_ads();
  run.store_seed = 7;
  ASSERT_TRUE(local.BeginRun(run).ok());

  const auto ok = [&session](const std::string& line) {
    const std::string response = session.HandleLine(line);
    EXPECT_TRUE(serve::ParseStatusResponse(response).ok()) << response;
  };
  // Sends a commit line and returns its count, after checking the
  // response carries exactly {ok, newly_covered}.
  const auto commit = [&session](const std::string& line) -> std::uint64_t {
    const std::string response = session.HandleLine(line);
    Result<JsonValue> parsed = ParseJson(response);
    EXPECT_TRUE(parsed.ok()) << response;
    if (!parsed.ok()) return 0;
    std::vector<std::string> keys;
    for (const JsonValue::Member& member : parsed->members()) {
      keys.push_back(member.first);
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"ok", "newly_covered"}))
        << response;
    Result<std::uint64_t> count = serve::ParseCommitResponse(response);
    EXPECT_TRUE(count.ok()) << response;
    return count.ok() ? *count : 0;
  };

  ok(R"({"op":"begin","num_ads":1,"store_seed":"0x7","chunk_sets":4096,)"
     R"("kpt_ell":1.0,"kpt_max_samples":131072,"shard_index":0,)"
     R"("num_shards":1})");
  ok(R"({"op":"ensure","ad":0,"min_sets":4096,"attached":0})");
  ok(R"({"op":"attach","ad":0,"count":4096})");
  ASSERT_TRUE(local.EnsureSets(0, 4096, 0).ok());
  ASSERT_TRUE(local.Attach(0, 4096).ok());
  std::uint64_t total = 0;
  std::vector<NodeId> seeds;
  for (NodeId v = 0; v < n; v += 9) {
    Result<std::uint64_t> want = local.Commit(0, v);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(commit(R"({"op":"commit","ad":0,"node":)" + std::to_string(v) +
                     "}"),
              *want)
        << "node " << v;
    total += *want;
    seeds.push_back(v);
  }
  EXPECT_GT(total, 0u);

  // Grow both views, then attribute the new sets from a mid-chunk first
  // set, the way UpdateEstimates does.
  ok(R"({"op":"ensure","ad":0,"min_sets":8192,"attached":4096})");
  ok(R"({"op":"attach","ad":0,"count":8192})");
  ASSERT_TRUE(local.EnsureSets(0, 8192, 4096).ok());
  ASSERT_TRUE(local.Attach(0, 8192).ok());
  total = 0;
  for (const NodeId v : seeds) {
    Result<std::uint64_t> want = local.CommitOnRange(0, v, 5000);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(commit(R"({"op":"commit_range","ad":0,"node":)" +
                     std::to_string(v) + R"(,"first_set":5000})"),
              *want)
        << "node " << v;
    total += *want;
  }
  EXPECT_GT(total, 0u);

  const Status covered = serve::ParseStatusResponse(
      session.HandleLine(R"({"op":"covered","ad":0})"));
  EXPECT_EQ(covered.code(), StatusCode::kInvalidArgument)
      << covered.ToString();
}

// A worker answering with the wrong shard identity is rejected at
// BeginRun — a mis-wired --shards list must fail loudly, not produce
// silently wrong pools.
TEST(ShardProtocolTest, ShardIdentityMismatchFailsLoudly) {
  Rng build_rng(77);
  const BuiltInstance built = BuildDataset(FlixsterLike(0.005), build_rng);
  const ProblemInstance inst = built.MakeInstance(1, 0.0);

  serve::ShardWorkerContext context(&inst, /*shard_index=*/1,
                                    /*num_shards=*/2, /*num_threads=*/1);
  serve::ShardWorkerSession session(&context);
  // The router believes this endpoint is shard 0.
  serve::RemoteShardClient client(
      std::make_unique<serve::InProcessTransport>(&session),
      /*shard_index=*/0, /*num_shards=*/2);
  ShardRunConfig run;
  run.num_ads = inst.num_ads();
  run.store_seed = 7;
  const Status begun = client.BeginRun(run);
  EXPECT_FALSE(begun.ok());
  EXPECT_EQ(begun.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tirm
