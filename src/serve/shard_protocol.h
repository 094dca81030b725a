// Newline-delimited JSON codec for the shard-worker plane.
//
// A `tirm_server --mode=router` process drives K `--mode=shard_worker`
// processes over this line protocol — one request object per line in, one
// response object per line out, mirroring serve/protocol.h's strictness
// (closed key sets, malformed values are errors, responses always carry
// errors in-band). The ops are exactly the RrShardClient interface
// (rrset/shard_client.h); RemoteShardClient formats requests and parses
// responses, ShardWorkerSession does the inverse over an in-process
// LocalShardClient.
//
// Request lines (router -> worker):
//
//   {"op":"begin","num_ads":2,"store_seed":"0x1f2e...","chunk_sets":4096,
//    "kpt_ell":1.0,"kpt_max_samples":131072,"shard_index":0,"num_shards":2}
//   {"op":"ensure","ad":0,"min_sets":8192,"attached":0}
//   {"op":"kpt","ad":0,"s":1}
//   {"op":"attach","ad":0,"count":8192}
//   {"op":"summary","ad":0,"top_l":8}
//   {"op":"counts","ad":0,"nodes":[4,17,33]}
//   {"op":"dense","ad":0}
//   {"op":"commit","ad":0,"node":4}
//   {"op":"commit_range","ad":0,"node":4,"first_set":8192}
//   {"op":"retire","node":4}
//   {"op":"memory"}
//
// Response lines (worker -> router): {"ok":true,...} with the op's payload
// or {"ok":false,"error":{"code":...,"message":...}}. A commit answers
// with its count alone: {"ok":true,"newly_covered":12}.
//
// Precision note: the store seed is the one uint64 that can exceed 2^53,
// so it travels as a "0x..." hex STRING, not a JSON number, and no reader
// can round it through a double. Counts (θ watermarks, coverages) are far
// below 2^53 and stay plain integers.

#ifndef TIRM_SERVE_SHARD_PROTOCOL_H_
#define TIRM_SERVE_SHARD_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "rrset/sample_store.h"
#include "rrset/shard_client.h"

namespace tirm {
namespace serve {

/// Lossless uint64 transport ("0x" + lowercase hex, no padding).
std::string EncodeHexU64(std::uint64_t value);
[[nodiscard]] Result<std::uint64_t> DecodeHexU64(std::string_view text);

/// One parsed shard-op request. `op` selects which fields are meaningful
/// (see the file comment); ParseShardRequest validates per-op key sets.
struct ShardOpRequest {
  std::string op;
  // -- begin
  ShardRunConfig run;
  int shard_index = 0;
  int num_shards = 1;
  // -- per-ad ops
  AdId ad = 0;
  std::uint64_t min_sets = 0;       ///< ensure
  std::uint64_t attached = 0;       ///< ensure
  std::uint64_t s = 1;              ///< kpt
  std::uint64_t count = 0;          ///< attach
  std::uint32_t top_l = 0;          ///< summary
  std::vector<NodeId> nodes;        ///< counts
  NodeId node = 0;                  ///< commit / commit_range / retire
  std::uint64_t first_set = 0;      ///< commit_range
};

// -- Request codec (client formats, worker parses).

std::string FormatBeginRequest(const ShardRunConfig& run, int shard_index,
                               int num_shards);
std::string FormatEnsureRequest(AdId ad, std::uint64_t min_sets,
                                std::uint64_t attached);
std::string FormatKptRequest(AdId ad, std::uint64_t s);
std::string FormatAttachRequest(AdId ad, std::uint64_t count);
std::string FormatSummaryRequest(AdId ad, std::uint32_t top_l);
std::string FormatCountsRequest(AdId ad, std::span<const NodeId> nodes);
std::string FormatDenseRequest(AdId ad);
std::string FormatCommitRequest(AdId ad, NodeId node);
std::string FormatCommitRangeRequest(AdId ad, NodeId node,
                                     std::uint64_t first_set);
std::string FormatRetireRequest(NodeId node);
std::string FormatMemoryRequest();

[[nodiscard]] Result<ShardOpRequest> ParseShardRequest(std::string_view line);

// -- Response codec (worker formats, client parses).

std::string FormatShardErrorResponse(const Status& status);
std::string FormatOkResponse();
std::string FormatBeginResponse(int shard_index, int num_shards);
std::string FormatEnsureResponse(const RrSampleStore::EnsureResult& ensured);
std::string FormatKptResponse(double kpt, bool cache_hit);
std::string FormatSummaryResponse(const ShardGainSummary& summary);
std::string FormatCountsResponse(const std::vector<std::uint32_t>& counts);
std::string FormatCommitResponse(std::uint64_t newly_covered);
std::string FormatMemoryResponse(const ShardMemoryStats& stats);

/// Parses a response envelope: an in-band {"ok":false,...} becomes that
/// error Status; otherwise the typed extractors below read the payload.
[[nodiscard]] Status ParseStatusResponse(std::string_view line);
[[nodiscard]] Result<RrSampleStore::EnsureResult> ParseEnsureResponse(
    std::string_view line);
struct KptResponse {
  double kpt = 0.0;
  bool cache_hit = false;
};
[[nodiscard]] Result<KptResponse> ParseKptResponse(std::string_view line);
[[nodiscard]] Result<ShardGainSummary> ParseSummaryResponse(
    std::string_view line);
[[nodiscard]] Result<std::vector<std::uint32_t>> ParseCountsResponse(
    std::string_view line);
[[nodiscard]] Result<std::uint64_t> ParseCommitResponse(
    std::string_view line);
[[nodiscard]] Result<ShardMemoryStats> ParseMemoryResponse(
    std::string_view line);

}  // namespace serve
}  // namespace tirm

#endif  // TIRM_SERVE_SHARD_PROTOCOL_H_
