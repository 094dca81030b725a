// RemoteShardClient — RrShardClient over the NDJSON shard line protocol.
//
// The router side of the multi-process plane: each client formats one
// request line per op (serve/shard_protocol.h), sends it through a
// LineTransport, and parses the single response line. Two transports:
//
//   InProcessTransport — loops a line straight through a
//     ShardWorkerSession. Zero I/O; the protocol tests use it to prove
//     the remote plane is bit-identical to LocalShardClient.
//   TcpLineTransport   — one blocking TCP connection to a
//     `tirm_server --mode=shard_worker` process.
//
// A remote client (like every RrShardClient) is driven by one coordinator
// thread at a time; the per-shard fan-out gives each shard its own client
// and therefore its own connection.

#ifndef TIRM_SERVE_SHARD_REMOTE_H_
#define TIRM_SERVE_SHARD_REMOTE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "rrset/shard_client.h"
#include "serve/shard_worker.h"

namespace tirm {
namespace serve {

/// One request line out, one response line back (both without the
/// trailing newline).
class LineTransport {
 public:
  virtual ~LineTransport();
  [[nodiscard]] virtual Result<std::string> RoundTrip(
      const std::string& line) = 0;
};

/// Loops lines through an in-process worker session (no I/O). `session`
/// must outlive the transport.
class InProcessTransport final : public LineTransport {
 public:
  explicit InProcessTransport(ShardWorkerSession* session);
  [[nodiscard]] Result<std::string> RoundTrip(
      const std::string& line) override;

 private:
  ShardWorkerSession* session_;
};

/// Blocking newline-delimited exchange over one TCP connection.
class TcpLineTransport final : public LineTransport {
 public:
  /// Resolves `host` and connects to `port`.
  [[nodiscard]] static Result<std::unique_ptr<TcpLineTransport>> Connect(
      const std::string& host, int port);
  ~TcpLineTransport() override;

  [[nodiscard]] Result<std::string> RoundTrip(
      const std::string& line) override;

 private:
  explicit TcpLineTransport(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;  ///< bytes received past the last returned line
};

/// See file comment.
class RemoteShardClient final : public RrShardClient {
 public:
  /// Takes ownership of `transport`. The shard coordinates are what the
  /// router believes this connection is; BeginRun cross-checks them
  /// against the worker's own identity.
  RemoteShardClient(std::unique_ptr<LineTransport> transport, int shard_index,
                    int num_shards);
  ~RemoteShardClient() override;

  [[nodiscard]] Status BeginRun(const ShardRunConfig& run) override;
  [[nodiscard]] Result<RrSampleStore::EnsureResult> EnsureSets(
      AdId ad, std::uint64_t global_min_sets,
      std::uint64_t global_already_attached) override;
  [[nodiscard]] Result<double> KptEstimate(AdId ad, std::uint64_t s,
                                           bool* cache_hit) override;
  [[nodiscard]] Status Attach(AdId ad, std::uint64_t global_count) override;
  [[nodiscard]] Result<ShardGainSummary> Summarize(
      AdId ad, std::uint32_t top_l) override;
  [[nodiscard]] Result<std::vector<std::uint32_t>> CoverageCounts(
      AdId ad, std::span<const NodeId> nodes) override;
  [[nodiscard]] Result<std::vector<std::uint32_t>> DenseCoverage(
      AdId ad) override;
  [[nodiscard]] Result<std::uint64_t> Commit(AdId ad, NodeId v) override;
  [[nodiscard]] Result<std::uint64_t> CommitOnRange(
      AdId ad, NodeId v, std::uint64_t global_first_set) override;
  [[nodiscard]] Status Retire(NodeId v) override;
  [[nodiscard]] Result<ShardMemoryStats> MemoryStats() override;

 private:
  std::unique_ptr<LineTransport> transport_;
  const int shard_index_;
  const int num_shards_;
};

}  // namespace serve
}  // namespace tirm

#endif  // TIRM_SERVE_SHARD_REMOTE_H_
