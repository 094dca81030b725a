#include "serve/shard_remote.h"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/json.h"
#include "serve/shard_protocol.h"

namespace tirm {
namespace serve {

LineTransport::~LineTransport() = default;

InProcessTransport::InProcessTransport(ShardWorkerSession* session)
    : session_(session) {
  TIRM_CHECK(session_ != nullptr);
}

Result<std::string> InProcessTransport::RoundTrip(const std::string& line) {
  return session_->HandleLine(line);
}

Result<std::unique_ptr<TcpLineTransport>> TcpLineTransport::Connect(
    const std::string& host, int port) {
  if (port <= 0 || port > 0xFFFF) {
    return Status::InvalidArgument("bad shard worker port " +
                                   std::to_string(port));
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const int rc = getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                             &hints, &resolved);
  if (rc != 0) {
    return Status::IOError("cannot resolve shard worker \"" + host +
                           "\": " + gai_strerror(rc));
  }
  int fd = -1;
  for (const addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    close(fd);
    fd = -1;
  }
  freeaddrinfo(resolved);
  if (fd < 0) {
    return Status::IOError("cannot connect to shard worker " + host + ":" +
                           std::to_string(port) + ": " + std::strerror(errno));
  }
  return std::unique_ptr<TcpLineTransport>(new TcpLineTransport(fd));
}

TcpLineTransport::~TcpLineTransport() {
  if (fd_ >= 0) close(fd_);
}

Result<std::string> TcpLineTransport::RoundTrip(const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = send(fd_, out.data() + sent, out.size() - sent, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError(std::string("shard send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!response.empty() && response.back() == '\r') response.pop_back();
      return response;
    }
    char chunk[4096];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError("shard worker closed the connection");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

RemoteShardClient::RemoteShardClient(std::unique_ptr<LineTransport> transport,
                                     int shard_index, int num_shards)
    : transport_(std::move(transport)),
      shard_index_(shard_index),
      num_shards_(num_shards) {
  TIRM_CHECK(transport_ != nullptr);
  TIRM_CHECK(num_shards_ >= 1 && num_shards_ <= 64);
  TIRM_CHECK(shard_index_ >= 0 && shard_index_ < num_shards_);
}

RemoteShardClient::~RemoteShardClient() = default;

Status RemoteShardClient::BeginRun(const ShardRunConfig& run) {
  Result<std::string> line =
      transport_->RoundTrip(FormatBeginRequest(run, shard_index_,
                                               num_shards_));
  if (!line.ok()) return line.status();
  TIRM_RETURN_NOT_OK(ParseStatusResponse(*line));
  // Cross-check the worker's identity: a mis-wired --shards list (worker k
  // listening where the router expects shard m) must fail loudly here, not
  // as silently wrong pools.
  Result<JsonValue> payload = ParseJson(*line);
  if (!payload.ok()) return payload.status();
  const JsonValue* index = payload->Find("shard_index");
  const JsonValue* shards = payload->Find("num_shards");
  if (index == nullptr || shards == nullptr) {
    return Status::InvalidArgument("begin response missing shard identity");
  }
  Result<std::int64_t> index_value = index->AsInt();
  if (!index_value.ok()) return index_value.status();
  Result<std::int64_t> shards_value = shards->AsInt();
  if (!shards_value.ok()) return shards_value.status();
  if (*index_value != shard_index_ || *shards_value != num_shards_) {
    return Status::InvalidArgument(
        "shard identity mismatch: expected shard " +
        std::to_string(shard_index_) + "/" + std::to_string(num_shards_) +
        ", worker answered as " + std::to_string(*index_value) + "/" +
        std::to_string(*shards_value));
  }
  return Status::OK();
}

Result<RrSampleStore::EnsureResult> RemoteShardClient::EnsureSets(
    AdId ad, std::uint64_t global_min_sets,
    std::uint64_t global_already_attached) {
  Result<std::string> line = transport_->RoundTrip(
      FormatEnsureRequest(ad, global_min_sets, global_already_attached));
  if (!line.ok()) return line.status();
  return ParseEnsureResponse(*line);
}

Result<double> RemoteShardClient::KptEstimate(AdId ad, std::uint64_t s,
                                              bool* cache_hit) {
  Result<std::string> line = transport_->RoundTrip(FormatKptRequest(ad, s));
  if (!line.ok()) return line.status();
  Result<KptResponse> response = ParseKptResponse(*line);
  if (!response.ok()) return response.status();
  if (cache_hit != nullptr) *cache_hit = response->cache_hit;
  return response->kpt;
}

Status RemoteShardClient::Attach(AdId ad, std::uint64_t global_count) {
  Result<std::string> line =
      transport_->RoundTrip(FormatAttachRequest(ad, global_count));
  if (!line.ok()) return line.status();
  return ParseStatusResponse(*line);
}

Result<ShardGainSummary> RemoteShardClient::Summarize(AdId ad,
                                                      std::uint32_t top_l) {
  Result<std::string> line =
      transport_->RoundTrip(FormatSummaryRequest(ad, top_l));
  if (!line.ok()) return line.status();
  return ParseSummaryResponse(*line);
}

Result<std::vector<std::uint32_t>> RemoteShardClient::CoverageCounts(
    AdId ad, std::span<const NodeId> nodes) {
  Result<std::string> line =
      transport_->RoundTrip(FormatCountsRequest(ad, nodes));
  if (!line.ok()) return line.status();
  return ParseCountsResponse(*line);
}

Result<std::vector<std::uint32_t>> RemoteShardClient::DenseCoverage(AdId ad) {
  Result<std::string> line = transport_->RoundTrip(FormatDenseRequest(ad));
  if (!line.ok()) return line.status();
  return ParseCountsResponse(*line);
}

Result<std::uint64_t> RemoteShardClient::Commit(AdId ad, NodeId v) {
  Result<std::string> line = transport_->RoundTrip(FormatCommitRequest(ad, v));
  if (!line.ok()) return line.status();
  return ParseCommitResponse(*line);
}

Result<std::uint64_t> RemoteShardClient::CommitOnRange(
    AdId ad, NodeId v, std::uint64_t global_first_set) {
  Result<std::string> line = transport_->RoundTrip(
      FormatCommitRangeRequest(ad, v, global_first_set));
  if (!line.ok()) return line.status();
  return ParseCommitResponse(*line);
}

Status RemoteShardClient::Retire(NodeId v) {
  Result<std::string> line = transport_->RoundTrip(FormatRetireRequest(v));
  if (!line.ok()) return line.status();
  return ParseStatusResponse(*line);
}

Result<ShardMemoryStats> RemoteShardClient::MemoryStats() {
  Result<std::string> line = transport_->RoundTrip(FormatMemoryRequest());
  if (!line.ok()) return line.status();
  return ParseMemoryResponse(*line);
}

}  // namespace serve
}  // namespace tirm
