#include "serve/shard_worker.h"

#include <utility>
#include <vector>

#include "serve/shard_protocol.h"

namespace tirm {
namespace serve {

ShardWorkerContext::ShardWorkerContext(const ProblemInstance* instance,
                                       int shard_index, int num_shards,
                                       int num_threads)
    : instance_(instance),
      shard_index_(shard_index),
      num_shards_(num_shards),
      num_threads_(num_threads) {
  TIRM_CHECK(instance_ != nullptr);
  TIRM_CHECK(num_shards_ >= 1 && num_shards_ <= 64);
  TIRM_CHECK(shard_index_ >= 0 && shard_index_ < num_shards_);
}

RrSampleStore* ShardWorkerContext::GetOrCreateStore(const ShardRunConfig& run) {
  const StoreKey key{run.store_seed, run.chunk_sets};
  MutexLock lock(mutex_);
  std::unique_ptr<RrSampleStore>& store = stores_[key];
  if (store == nullptr) {
    store = std::make_unique<RrSampleStore>(
        &instance_->graph(),
        RrSampleStore::Options{.seed = run.store_seed,
                               .chunk_sets = run.chunk_sets,
                               .num_shards = num_shards_,
                               .shard_index = shard_index_});
  }
  return store.get();
}

ShardWorkerSession::ShardWorkerSession(ShardWorkerContext* context)
    : context_(context) {
  TIRM_CHECK(context_ != nullptr);
}

std::string ShardWorkerSession::HandleLine(std::string_view line) {
  Result<std::string> response = Dispatch(line);
  if (!response.ok()) return FormatShardErrorResponse(response.status());
  return response.MoveValue();
}

Result<std::string> ShardWorkerSession::Dispatch(std::string_view line) {
  Result<ShardOpRequest> parsed = ParseShardRequest(line);
  if (!parsed.ok()) return parsed.status();
  const ShardOpRequest& request = *parsed;

  if (request.op == "begin") {
    if (request.shard_index != context_->shard_index() ||
        request.num_shards != context_->num_shards()) {
      return Status::InvalidArgument(
          "shard identity mismatch: this worker is shard " +
          std::to_string(context_->shard_index()) + "/" +
          std::to_string(context_->num_shards()) + ", the router addressed " +
          std::to_string(request.shard_index) + "/" +
          std::to_string(request.num_shards));
    }
    auto client = std::make_unique<LocalShardClient>(
        context_->GetOrCreateStore(request.run), &context_->instance(),
        context_->num_threads());
    TIRM_RETURN_NOT_OK(client->BeginRun(request.run));
    client_ = std::move(client);
    return FormatBeginResponse(context_->shard_index(),
                               context_->num_shards());
  }
  if (client_ == nullptr) {
    return Status::FailedPrecondition("shard op \"" + request.op +
                                      "\" before \"begin\"");
  }
  if (request.op == "ensure") {
    Result<RrSampleStore::EnsureResult> ensured =
        client_->EnsureSets(request.ad, request.min_sets, request.attached);
    if (!ensured.ok()) return ensured.status();
    return FormatEnsureResponse(*ensured);
  }
  if (request.op == "kpt") {
    bool cache_hit = false;
    Result<double> kpt = client_->KptEstimate(request.ad, request.s,
                                              &cache_hit);
    if (!kpt.ok()) return kpt.status();
    return FormatKptResponse(*kpt, cache_hit);
  }
  if (request.op == "attach") {
    TIRM_RETURN_NOT_OK(client_->Attach(request.ad, request.count));
    return FormatOkResponse();
  }
  if (request.op == "summary") {
    Result<ShardGainSummary> summary =
        client_->Summarize(request.ad, request.top_l);
    if (!summary.ok()) return summary.status();
    return FormatSummaryResponse(*summary);
  }
  if (request.op == "counts") {
    Result<std::vector<std::uint32_t>> counts =
        client_->CoverageCounts(request.ad, request.nodes);
    if (!counts.ok()) return counts.status();
    return FormatCountsResponse(*counts);
  }
  if (request.op == "dense") {
    Result<std::vector<std::uint32_t>> counts =
        client_->DenseCoverage(request.ad);
    if (!counts.ok()) return counts.status();
    return FormatCountsResponse(*counts);
  }
  if (request.op == "commit") {
    Result<std::uint64_t> newly = client_->Commit(request.ad, request.node);
    if (!newly.ok()) return newly.status();
    return FormatCommitResponse(*newly);
  }
  if (request.op == "commit_range") {
    Result<std::uint64_t> newly =
        client_->CommitOnRange(request.ad, request.node, request.first_set);
    if (!newly.ok()) return newly.status();
    return FormatCommitResponse(*newly);
  }
  if (request.op == "retire") {
    TIRM_RETURN_NOT_OK(client_->Retire(request.node));
    return FormatOkResponse();
  }
  if (request.op == "memory") {
    Result<ShardMemoryStats> stats = client_->MemoryStats();
    if (!stats.ok()) return stats.status();
    return FormatMemoryResponse(*stats);
  }
  // ParseShardRequest already rejected unknown ops; keep the dispatcher
  // total anyway so a codec/dispatch skew cannot hang a router.
  return Status::Internal("unhandled shard op \"" + request.op + "\"");
}

}  // namespace serve
}  // namespace tirm
