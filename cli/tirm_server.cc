// tirm_server — the newline-delimited-JSON serving front-end over
// AllocationService (see src/serve/protocol.h for the line format).
//
//   # one request per stdin line, one response per stdout line
//   echo '{"id":"q1","allocator":"tirm","query":{"lambda":0.5}}' |
//     tirm_server --dataset=flixster --scale=0.01 --workers=4
//
//   # optional TCP listener (same line protocol per connection)
//   tirm_server --dataset=fig1 --port=7077
//
//   # serve a prebuilt bundle: the file is mmap'ed and verified ONCE at
//   # startup and the engine borrows the read-only mapping — one physical
//   # copy, millisecond warm-up, shared by all N workers
//   tirm_server --bundle=flixster.tirm --workers=8
//
// Flags: --dataset={fig1,flixster,epinions,dblp,livejournal,
//        file:<edge-list>,bundle:<path.tirm>} --bundle=<path.tirm> --scale=
//        --workers= (0 = hardware) --queue_capacity= --port= (0 = stdin)
//        --seed= --eval_sims= --evaluate= --reuse_samples= --timeout_ms=
//        plus every AllocatorConfig flag and every EngineQuery flag — those
//        set the *defaults* a request starts from; request fields override
//        them per query. All knobs also read TIRM_* environment variables.
//
// Multi-process sharding (the GreeDIMM shape, serve/shard_protocol.h):
//
//   # K shard workers, each owning 1/K of every RR pool for ONE shared
//   # read-only bundle (same file, mmap'ed independently by each process)
//   tirm_server --mode=shard_worker --bundle=g.tirm --shard_index=0
//               --num_shards=2 --port=7101
//   tirm_server --mode=shard_worker --bundle=g.tirm --shard_index=1
//               --num_shards=2 --port=7102
//
//   # the router serves the NORMAL allocation protocol, fanning every
//   # tirm run's sampling/reduction sub-ops to the workers; allocations
//   # are bit-identical to a single-process run at the same flags
//   tirm_server --mode=router --bundle=g.tirm
//               --shards=127.0.0.1:7101,127.0.0.1:7102
//
// A shard worker speaks the shard op line protocol (stdin or --port) and
// serves ONE coordinator at a time, one connection each; --mode=router
// forces --workers=1 for the same reason (concurrent requests would
// interleave ops on the single-coordinator shard connections). Each
// worker samples on its own --threads; no thread count, the router's or a
// worker's, changes an allocation.
//
// Observability: a '{"id":"s1","stats":true}' line is an admin request
// answered immediately (never enqueued) with the service metrics, store
// stats, and the process-wide metrics registry; '"profile":true' on a
// normal request attaches a stage-timing breakdown to its response.
//
// Responses appear in request order (per stream); diagnostics go to
// stderr, stdout carries protocol lines only. Malformed lines and unknown
// allocators are answered with in-band {"ok":false,...} responses — the
// server never dies on bad input. Exit: 0 at EOF (stdin mode), 1 on
// startup errors.

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.h"
#include "common/rng.h"
#include "common/threading.h"
#include "datasets/dataset.h"
#include "io/bundle_reader.h"
#include "io/mapped_file.h"
#include "serve/allocation_service.h"
#include "serve/protocol.h"
#include "serve/shard_remote.h"
#include "serve/shard_worker.h"
#include "topic/instance.h"

namespace {

using namespace tirm;

int Fail(const Status& status) {
  std::fprintf(stderr, "tirm_server: %s\n", status.ToString().c_str());
  return 1;
}

bool IsKnownFlag(const std::string& key) {
  // Server-specific knobs; the AllocatorConfig / EngineQuery default flags
  // come from the protocol's own key sets so the three lists (CLI flags,
  // request "config", request "query") cannot drift apart.
  static const std::set<std::string> kServer = {
      "dataset", "bundle",   "scale",         "workers", "queue_capacity",
      "port",    "seed",     "eval_sims",     "evaluate",
      "allocator", "reuse_samples", "timeout_ms",
      "mode",    "shard_index", "shards"};
  return kServer.count(key) > 0 ||
         serve::RequestConfigKeys().count(key) > 0 ||
         serve::RequestQueryKeys().count(key) > 0;
}

/// Serves one NDJSON stream: reads request lines from `in`, emits response
/// lines through `write_line`. Responses keep request order: real requests
/// ride futures, unparseable lines become immediately ready error
/// responses, and the drain loop only ever prints the front of the deque.
class StreamSession {
 public:
  StreamSession(serve::AllocationService* service,
                const serve::AllocationRequest& defaults)
      : service_(service), defaults_(defaults) {}

  /// Feeds one input line; may emit ready responses.
  template <typename WriteLine>
  void HandleLine(const std::string& line, const WriteLine& write_line) {
    if (line.empty()) return;
    Result<serve::AllocationRequest> request =
        serve::ParseRequest(line, defaults_);
    if (!request.ok()) {
      // Keep the error correlatable when the line was JSON with an id.
      pending_.emplace_back(serve::FormatErrorResponse(
          serve::RecoverRequestId(line), request.status()));
    } else if (request->stats) {
      // Admin request: answered directly (never enqueued), but through the
      // same ordered deque so stats lines interleave in request order.
      pending_.emplace_back(
          serve::FormatStatsResponse(request->id, *service_));
    } else {
      Result<std::future<serve::AllocationResponse>> submitted =
          service_->SubmitWait(*request);
      if (!submitted.ok()) {
        pending_.emplace_back(
            serve::FormatErrorResponse(request->id, submitted.status()));
      } else {
        pending_.emplace_back(submitted.MoveValue());
      }
    }
    Drain(write_line, /*block=*/false);
  }

  /// Writes whatever responses are ready without blocking (called while
  /// the input side is idle, so a waiting client is never starved).
  template <typename WriteLine>
  void DrainReady(const WriteLine& write_line) {
    Drain(write_line, /*block=*/false);
  }

  /// Blocks until every pending response has been written.
  template <typename WriteLine>
  void Finish(const WriteLine& write_line) {
    Drain(write_line, /*block=*/true);
  }

 private:
  using Pending =
      std::variant<std::string, std::future<serve::AllocationResponse>>;

  template <typename WriteLine>
  void Drain(const WriteLine& write_line, bool block) {
    while (!pending_.empty()) {
      Pending& front = pending_.front();
      if (auto* ready = std::get_if<std::string>(&front)) {
        write_line(*ready);
      } else {
        auto& future =
            std::get<std::future<serve::AllocationResponse>>(front);
        if (!block && future.wait_for(std::chrono::seconds(0)) !=
                          std::future_status::ready) {
          return;  // keep order: don't skip past an in-flight request
        }
        write_line(serve::FormatResponse(future.get()));
      }
      pending_.pop_front();
    }
  }

  serve::AllocationService* service_;
  serve::AllocationRequest defaults_;
  std::deque<Pending> pending_;
};

// ---- Line I/O shared by both protocols.

/// Writes one response line to stdout.
bool WriteStdoutLine(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  return true;
}

/// Writes one response line to socket `fd`, all of it; false once the
/// client has gone away.
bool SendLine(int fd, const std::string& line) {
  const std::string out = line + '\n';
  for (std::size_t sent = 0; sent < out.size();) {
    const ssize_t n =
        send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads newline-delimited lines from `fd` until EOF and hands each to
/// `on_line` (a trailing '\r' stripped, an unterminated final line
/// included). Polls with a short timeout and calls `on_idle` while the
/// input is quiet. Stops early when either callback returns false: the
/// output side has failed.
template <typename OnLine, typename OnIdle>
void ReadLines(int fd, const OnLine& on_line, const OnIdle& on_idle) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int ready = poll(&p, 1, /*timeout_ms=*/20);
    if (ready < 0) {
      if (errno == EINTR) continue;  // e.g. SIGTSTP/SIGCONT: not EOF
      break;
    }
    if (ready == 0) {
      if (!on_idle()) return;
      continue;
    }
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!on_line(line)) return;
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  if (!buffer.empty()) on_line(buffer);
}

/// Opens a TCP listener on `port` and hands every accepted connection's fd
/// to `serve`, which owns it from then on. Transient fd exhaustion
/// (EMFILE/ENFILE) sheds load — sleep, then accept again — instead of
/// shutting down. Returns the process exit code once accept fails for
/// good.
template <typename Serve>
int Listen(int port, const char* role, const Serve& serve) {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return Fail(Status::IOError("socket() failed"));
  const int one = 1;
  setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(listener);
    return Fail(Status::IOError("cannot bind port " + std::to_string(port)));
  }
  if (listen(listener, 64) != 0) {
    close(listener);
    return Fail(Status::IOError("listen() failed"));
  }
  std::fprintf(stderr, "tirm_server: %s listening on port %d\n", role, port);
  while (true) {
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      std::fprintf(stderr, "tirm_server: accept failed: %s\n",
                   std::strerror(errno));
      break;
    }
    serve(fd);
  }
  close(listener);
  return 0;
}

// ---- Allocation serving: requests ride the service's queue, and while
// the client is quiet, responses are flushed the moment their futures
// resolve — an interactive client sees its answer without having to send
// another line or close the stream, and a pipelining client still gets
// batched throughput.

template <typename WriteLine>
void ServeFd(int fd, serve::AllocationService* service,
             const serve::AllocationRequest& defaults,
             const WriteLine& write_line) {
  StreamSession session(service, defaults);
  bool write_ok = true;
  const auto write = [&](const std::string& line) {
    write_ok = write_ok && write_line(line);  // drop the rest once it fails
  };
  ReadLines(
      fd,
      [&](const std::string& line) {
        session.HandleLine(line, write);
        return write_ok;
      },
      [&] {
        session.DrainReady(write);
        return write_ok;
      });
  session.Finish(write);
}

// TCP: one detached thread per connection, the same line protocol per
// stream. Concurrency across connections comes from the shared service's
// worker pool.
int ServeTcp(int port, serve::AllocationService* service,
             const serve::AllocationRequest& defaults) {
  // A joinable thread per closed connection would leak its stack until
  // some future join. The counter lets the caller wait for live
  // connections before the service (which the threads point into) is
  // destroyed.
  auto active_connections = std::make_shared<std::atomic<int>>(0);
  const int code = Listen(port, "allocation server", [&](int fd) {
    active_connections->fetch_add(1);
    std::thread([fd, service, defaults, active_connections] {
      ServeFd(fd, service, defaults,
              [fd](const std::string& line) { return SendLine(fd, line); });
      close(fd);
      active_connections->fetch_sub(1);
    }).detach();
  });
  while (active_connections->load() > 0) {  // no use-after-free of service
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return code;
}

// ---- Shard-worker serving: the shard op line protocol
// (serve/shard_protocol.h), synchronous — one response line per request
// line, in order. Each coordinator session owns its connection, so the
// TCP variant serves connections one at a time (serve/shard_worker.h);
// the shared context keeps pools warm across connections and runs.

template <typename WriteLine>
void ServeShardFd(int fd, serve::ShardWorkerContext* context,
                  const WriteLine& write_line) {
  serve::ShardWorkerSession session(context);
  ReadLines(
      fd,
      [&](const std::string& line) {
        return line.empty() || write_line(session.HandleLine(line));
      },
      [] { return true; });
}

int ServeShardTcp(int port, serve::ShardWorkerContext* context) {
  return Listen(port, "shard worker", [context](int fd) {
    ServeShardFd(fd, context,
                 [fd](const std::string& line) { return SendLine(fd, line); });
    close(fd);
  });
}

/// Parses "host:port,host:port,..." into endpoints; K = list size.
Result<std::vector<std::pair<std::string, int>>> ParseShardEndpoints(
    const std::string& shards) {
  std::vector<std::pair<std::string, int>> endpoints;
  std::size_t start = 0;
  while (start <= shards.size()) {
    std::size_t comma = shards.find(',', start);
    if (comma == std::string::npos) comma = shards.size();
    const std::string entry = shards.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) {
      return Status::InvalidArgument("--shards has an empty entry");
    }
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return Status::InvalidArgument("--shards entry \"" + entry +
                                     "\" is not host:port");
    }
    int port = 0;
    for (const char c : entry.substr(colon + 1)) {
      if (c < '0' || c > '9' || port > 0xFFFF) {
        return Status::InvalidArgument("--shards entry \"" + entry +
                                       "\" has a bad port");
      }
      port = port * 10 + (c - '0');
    }
    if (port < 1 || port > 0xFFFF) {
      return Status::InvalidArgument("--shards entry \"" + entry +
                                     "\" has a bad port");
    }
    endpoints.emplace_back(entry.substr(0, colon), port);
  }
  if (endpoints.empty() || endpoints.size() > 64) {
    return Status::InvalidArgument("--shards needs 1..64 host:port entries");
  }
  return endpoints;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  for (const std::string& key : flags.Keys()) {
    if (!IsKnownFlag(key)) {
      return Fail(Status::InvalidArgument(
          "unknown flag --" + key + " (see the header of cli/tirm_server.cc)"));
    }
  }

  // Request defaults: the server's AllocatorConfig/EngineQuery flags are
  // the baseline every request starts from.
  serve::AllocationRequest defaults;
  {
    Result<AllocatorConfig> config = AllocatorConfig::FromFlags(flags);
    if (!config.ok()) return Fail(config.status());
    defaults.config = *config;
    Result<EngineQuery> query = EngineQuery::FromFlags(flags);
    if (!query.ok()) return Fail(query.status());
    defaults.query = *query;
    Result<double> timeout = flags.GetDoubleStrict("timeout_ms", 0.0);
    if (!timeout.ok()) return Fail(timeout.status());
    if (!(*timeout >= 0.0) || !std::isfinite(*timeout)) {
      return Fail(Status::InvalidArgument(
          "--timeout_ms must be finite and non-negative"));
    }
    defaults.timeout_ms = *timeout;
  }

  const std::string dataset = flags.GetString("dataset", "fig1");
  Result<double> scale = flags.GetDoubleStrict("scale", 0.01);
  if (!scale.ok()) return Fail(scale.status());
  if (!(*scale > 0.0) || !std::isfinite(*scale)) {
    return Fail(Status::InvalidArgument("--scale must be positive and finite"));
  }
  Result<std::int64_t> seed = flags.GetIntStrict("seed", 2015);
  if (!seed.ok()) return Fail(seed.status());
  Result<std::int64_t> eval_sims = flags.GetIntStrict("eval_sims", 2000);
  if (!eval_sims.ok()) return Fail(eval_sims.status());
  if (*eval_sims < 1) {
    return Fail(Status::InvalidArgument("--eval_sims must be >= 1"));
  }
  Result<bool> evaluate = flags.GetBoolStrict("evaluate", true);
  if (!evaluate.ok()) return Fail(evaluate.status());
  Result<bool> reuse_samples = flags.GetBoolStrict("reuse_samples", true);
  if (!reuse_samples.ok()) return Fail(reuse_samples.status());
  Result<std::int64_t> workers = flags.GetIntStrict("workers", 0);
  if (!workers.ok()) return Fail(workers.status());
  if (*workers < 0 || *workers > kMaxSamplingThreads) {
    return Fail(Status::InvalidArgument("--workers must be in [0, 256]"));
  }
  Result<std::int64_t> capacity = flags.GetIntStrict("queue_capacity", 256);
  if (!capacity.ok()) return Fail(capacity.status());
  if (*capacity < 1) {
    return Fail(Status::InvalidArgument("--queue_capacity must be >= 1"));
  }
  Result<std::int64_t> port = flags.GetIntStrict("port", 0);
  if (!port.ok()) return Fail(port.status());
  if (*port < 0 || *port > 0xFFFF) {
    return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
  }

  const std::string mode = flags.GetString("mode", "serve");
  if (mode != "serve" && mode != "router" && mode != "shard_worker") {
    return Fail(Status::InvalidArgument(
        "--mode must be serve, router, or shard_worker, got \"" + mode +
        "\""));
  }
  Result<std::int64_t> shard_index = flags.GetIntStrict("shard_index", 0);
  if (!shard_index.ok()) return Fail(shard_index.status());
  const std::string shards_flag = flags.GetString("shards", "");
  if (mode != "shard_worker" && flags.Has("shard_index")) {
    return Fail(Status::InvalidArgument(
        "--shard_index only applies to --mode=shard_worker"));
  }
  if (mode == "router" && shards_flag.empty()) {
    return Fail(
        Status::InvalidArgument("--mode=router requires --shards=host:port,"
                                "host:port,..."));
  }
  if (mode != "router" && !shards_flag.empty()) {
    return Fail(Status::InvalidArgument(
        "--shards only applies to --mode=router"));
  }

  std::string bundle_path = flags.GetString("bundle", "");
  if (!bundle_path.empty() && flags.Has("dataset")) {
    return Fail(Status::InvalidArgument(
        "--bundle and --dataset are mutually exclusive"));
  }
  if (bundle_path.empty() && dataset.starts_with("bundle:")) {
    // Route the dataset-name spelling onto the same pre-mapped fast path:
    // one mmap + one full verification shared by every worker, instead of
    // each worker independently re-opening and re-verifying the file.
    bundle_path = dataset.substr(7);
  }

  // A name typo must fail before the service engine tries to build the
  // dataset — and without paying for a throwaway build. Prefixed names
  // (file:/bundle:) are probed by actually loading once below.
  const bool prefixed_dataset = dataset.starts_with("file:") ||
                                dataset.starts_with("bundle:");
  if (bundle_path.empty() && !prefixed_dataset && !IsKnownDataset(dataset)) {
    Rng probe_rng(0);
    return Fail(BuildNamedDataset(dataset, *scale, probe_rng).status());
  }

  serve::AllocationService::Options options;
  options.num_workers = static_cast<int>(*workers);
  options.queue_capacity = static_cast<std::size_t>(*capacity);
  options.engine.eval_sims = static_cast<std::size_t>(*eval_sims);
  options.engine.seed = static_cast<std::uint64_t>(*seed);
  options.engine.evaluate = *evaluate;
  options.engine.reuse_samples = *reuse_samples;

  const std::uint64_t build_seed = static_cast<std::uint64_t>(*seed);
  const double build_scale = *scale;
  std::function<BuiltInstance()> build_instance;
  std::string source = dataset;
  if (!bundle_path.empty()) {
    // Pre-map and fully verify the bundle ONCE at startup; the engine then
    // assembles its zero-copy views from the shared read-only mapping with
    // verification off — warm-up is just span bookkeeping.
    Result<MappedFile> mapped = MappedFile::Open(bundle_path);
    if (!mapped.ok()) return Fail(mapped.status());
    auto mapping = std::make_shared<const MappedFile>(mapped.MoveValue());
    mapping->Prefetch();
    Result<BuiltInstance> probe =
        LoadBundleInstance(mapping, {.verify = true});
    if (!probe.ok()) return Fail(probe.status());
    source = "bundle:" + bundle_path + " (" + probe->name + ")";
    build_instance = [mapping] {
      return LoadBundleInstance(mapping, {.verify = false}).MoveValue();
    };
  } else {
    if (prefixed_dataset) {
      // Probe once so a bad path/file fails before worker spin-up
      // (the builder lambda aborts on error by contract).
      Rng probe_rng(build_seed);
      Result<BuiltInstance> probe =
          BuildNamedDataset(dataset, build_scale, probe_rng);
      if (!probe.ok()) return Fail(probe.status());
    }
    build_instance = [dataset, build_scale, build_seed] {
      // Deterministic: served answers must equal a direct run on the same
      // dataset and seed.
      Rng build_rng(build_seed);
      return BuildNamedDataset(dataset, build_scale, build_rng).MoveValue();
    };
  }
  if (mode == "shard_worker") {
    const int num_shards = defaults.config.num_shards;
    const int index = static_cast<int>(*shard_index);
    if (index < 0 || index >= num_shards) {
      return Fail(Status::InvalidArgument(
          "--shard_index must be in [0, --num_shards), got " +
          std::to_string(index) + " with num_shards=" +
          std::to_string(num_shards)));
    }
    // One instance per worker process, built once; the context only ever
    // reads query-independent data from it (signatures, edge probs).
    const BuiltInstance built = build_instance();
    const ProblemInstance base = built.MakeInstance(/*kappa=*/1,
                                                    /*lambda=*/0.0);
    serve::ShardWorkerContext context(&base, index, num_shards,
                                      defaults.config.num_threads);
    std::fprintf(stderr, "tirm_server: shard worker %d/%d dataset=%s\n",
                 index, num_shards, source.c_str());
    if (*port > 0) return ServeShardTcp(static_cast<int>(*port), &context);
    ServeShardFd(/*fd=*/0, &context, WriteStdoutLine);
    return 0;
  }

  // Router mode: connect the shard fan-out BEFORE the service spins up, so
  // a missing worker fails startup instead of the first request. The
  // clients ride into every request through the config defaults
  // (ParseRequest copies them; request lines cannot override pointers).
  std::vector<std::unique_ptr<serve::RemoteShardClient>> shard_clients;
  if (mode == "router") {
    Result<std::vector<std::pair<std::string, int>>> endpoints =
        ParseShardEndpoints(shards_flag);
    if (!endpoints.ok()) return Fail(endpoints.status());
    const int num_shards = static_cast<int>(endpoints->size());
    if (flags.Has("num_shards") && defaults.config.num_shards != num_shards) {
      return Fail(Status::InvalidArgument(
          "--num_shards disagrees with the --shards list (" +
          std::to_string(defaults.config.num_shards) + " vs " +
          std::to_string(num_shards) + " endpoints)"));
    }
    defaults.config.num_shards = num_shards;
    if (Status valid = defaults.config.Validate(); !valid.ok()) {
      return Fail(valid);
    }
    for (int k = 0; k < num_shards; ++k) {
      const auto& [host, shard_port] = (*endpoints)[static_cast<std::size_t>(k)];
      Result<std::unique_ptr<serve::TcpLineTransport>> transport =
          serve::TcpLineTransport::Connect(host, shard_port);
      if (!transport.ok()) return Fail(transport.status());
      shard_clients.push_back(std::make_unique<serve::RemoteShardClient>(
          transport.MoveValue(), k, num_shards));
      defaults.config.shard_clients.push_back(shard_clients.back().get());
    }
    if (options.num_workers != 1) {
      // The shard connections are single-coordinator: concurrent workers
      // would interleave ops on one wire.
      std::fprintf(stderr,
                   "tirm_server: router mode forces --workers=1\n");
      options.num_workers = 1;
    }
    std::fprintf(stderr, "tirm_server: routing to %d shard worker(s)\n",
                 num_shards);
  }

  serve::AllocationService service(build_instance, options);

  std::fprintf(stderr,
               "tirm_server: dataset=%s scale=%g workers=%d queue=%zu "
               "eval=%s reuse_samples=%s\n",
               source.c_str(), build_scale, service.num_workers(),
               options.queue_capacity, *evaluate ? "on" : "off",
               *reuse_samples ? "on" : "off");

  if (*port > 0) return ServeTcp(static_cast<int>(*port), &service, defaults);
  ServeFd(/*fd=*/0, &service, defaults, WriteStdoutLine);

  const serve::MetricsSnapshot m = service.Metrics();
  std::fprintf(stderr,
               "tirm_server: served_ok=%llu failed=%llu expired=%llu "
               "rejected=%llu | queue p50/p95/p99 %.2f/%.2f/%.2f ms | "
               "serve p50/p95/p99 %.2f/%.2f/%.2f ms\n",
               static_cast<unsigned long long>(m.served_ok),
               static_cast<unsigned long long>(m.failed),
               static_cast<unsigned long long>(m.expired),
               static_cast<unsigned long long>(m.rejected),
               m.queue_p50 * 1e3, m.queue_p95 * 1e3, m.queue_p99 * 1e3,
               m.serve_p50 * 1e3, m.serve_p95 * 1e3, m.serve_p99 * 1e3);
  return 0;
}
