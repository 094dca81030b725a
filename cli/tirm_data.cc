// tirm_data — builds and inspects ".tirm" instance bundles
// (the mmap-backed data plane; see io/bundle_format.h).
//
//   # generate a stand-in (or ingest a SNAP edge list) and save the bundle
//   tirm_data build --dataset=flixster --scale=0.01 --seed=2015 --out=flix.tirm
//   tirm_data build --dataset=file:soc-Epinions1.txt --out=epinions.tirm
//
//   # inspect: header, meta counts, section table, checksum verification
//   tirm_data info --bundle=flix.tirm
//
// Flags: build: --dataset= --scale= --seed= --num_ads= --out=
//        info:  --bundle= --verify={true,false}
// Every command validates strictly and exits 1 with a typed error on
// malformed inputs; nothing is ever half-written (the writer renames a
// temp file into place).

#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "common/flags.h"
#include "graph/edge_list_io.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datasets/dataset.h"
#include "graph/graph_stats.h"
#include "io/bundle_reader.h"
#include "io/bundle_writer.h"

namespace {

using namespace tirm;

int Fail(const Status& status) {
  std::fprintf(stderr, "tirm_data: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tirm_data <build|info> [--flags]\n"
               "  build   --dataset=<name|file:path> [--scale=] [--seed=] "
               "[--num_ads=] --out=<path.tirm>\n"
               "  info    --bundle=<path.tirm> [--verify=true]\n");
  return 1;
}

Status CheckKnownFlags(const Flags& flags, const std::set<std::string>& known) {
  for (const std::string& key : flags.Keys()) {
    if (known.count(key) == 0) {
      return Status::InvalidArgument("unknown flag --" + key +
                                     " (see the header of cli/tirm_data.cc)");
    }
  }
  return Status::OK();
}

int RunBuild(const Flags& flags) {
  if (Status s = CheckKnownFlags(
          flags, {"dataset", "scale", "seed", "num_ads", "out"});
      !s.ok()) {
    return Fail(s);
  }
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("build requires --out=<path.tirm>"));
  }
  const std::string dataset = flags.GetString("dataset", "fig1");
  Result<double> scale = flags.GetDoubleStrict("scale", 0.01);
  if (!scale.ok()) return Fail(scale.status());
  Result<std::int64_t> seed = flags.GetIntStrict("seed", 2015);
  if (!seed.ok()) return Fail(seed.status());
  Result<std::int64_t> num_ads = flags.GetIntStrict("num_ads", 0);
  if (!num_ads.ok()) return Fail(num_ads.status());
  if (*num_ads < 0) {
    return Fail(Status::InvalidArgument("--num_ads must be >= 0"));
  }

  WallTimer build_timer;
  Rng rng(static_cast<std::uint64_t>(*seed));
  Result<BuiltInstance> built = Status::Internal("unreachable");
  if (*num_ads == 0) {
    built = BuildNamedDataset(dataset, *scale, rng);
  } else if (dataset.starts_with("file:")) {
    // The override rides the spec path, so resolve it up front — the
    // instance is built exactly once either way.
    Result<Graph> graph = LoadEdgeList(dataset.substr(5));
    if (!graph.ok()) return Fail(graph.status());
    DatasetSpec spec = FileGraphSpec(*scale);
    spec.name = dataset;
    built = BuildDatasetOnGraph(spec,
                                std::make_unique<Graph>(graph.MoveValue()),
                                rng, static_cast<int>(*num_ads));
  } else {
    Result<DatasetSpec> spec = StandInSpecByName(dataset, *scale);
    if (!spec.ok()) {
      return Fail(Status::InvalidArgument(
          "--num_ads is not supported for dataset \"" + dataset + "\""));
    }
    built = BuildDataset(*spec, rng, static_cast<int>(*num_ads));
  }
  if (!built.ok()) return Fail(built.status());
  const double build_seconds = build_timer.Seconds();

  WallTimer write_timer;
  if (Status s = WriteBundle(*built, out); !s.ok()) return Fail(s);
  const double write_seconds = write_timer.Seconds();

  Result<BundleInfo> info = ReadBundleInfo(out, /*verify_checksums=*/true);
  if (!info.ok()) return Fail(info.status());
  std::printf(
      "built %s -> %s\n"
      "  %llu nodes, %llu edges, %llu topics (%s), %llu ads, %llu bytes\n"
      "  generate %.3fs, write %.3fs\n",
      dataset.c_str(), out.c_str(),
      static_cast<unsigned long long>(info->num_nodes),
      static_cast<unsigned long long>(info->num_edges),
      static_cast<unsigned long long>(info->num_topics),
      info->per_topic ? "per-topic" : "shared",
      static_cast<unsigned long long>(info->num_ads),
      static_cast<unsigned long long>(info->file_size), build_seconds,
      write_seconds);
  return 0;
}

int RunInfo(const Flags& flags) {
  if (Status s = CheckKnownFlags(flags, {"bundle", "verify"}); !s.ok()) {
    return Fail(s);
  }
  const std::string path = flags.GetString("bundle", "");
  if (path.empty()) {
    return Fail(Status::InvalidArgument("info requires --bundle=<path.tirm>"));
  }
  Result<bool> verify = flags.GetBoolStrict("verify", true);
  if (!verify.ok()) return Fail(verify.status());

  Result<BundleInfo> info = ReadBundleInfo(path, *verify);
  if (!info.ok()) return Fail(info.status());
  std::printf("bundle: %s\n", path.c_str());
  std::printf("  version %u, %llu bytes, name \"%s\"\n", info->version,
              static_cast<unsigned long long>(info->file_size),
              info->name.c_str());
  std::printf(
      "  %llu nodes, %llu edges, %llu topics (%s), %llu ads "
      "(CTP rows: %llu)\n",
      static_cast<unsigned long long>(info->num_nodes),
      static_cast<unsigned long long>(info->num_edges),
      static_cast<unsigned long long>(info->num_topics),
      info->per_topic ? "per-topic" : "shared",
      static_cast<unsigned long long>(info->num_ads),
      static_cast<unsigned long long>(info->ctp_num_ads));
  std::printf("  sections:\n");
  bool all_ok = true;
  for (const BundleSectionInfo& s : info->sections) {
    std::printf("    %-13s offset %10llu  size %12llu  checksum %016llX%s\n",
                s.name.c_str(), static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size),
                static_cast<unsigned long long>(s.checksum),
                !*verify ? "" : (s.checksum_ok ? "  ok" : "  CORRUPT"));
    all_ok = all_ok && s.checksum_ok;
  }
  if (*verify && !all_ok) {
    return Fail(Status::IOError(path + ": payload checksum mismatch"));
  }
  if (*verify) std::printf("  all section checksums verified\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;
  // argv[1] (the subcommand) plays the program-name slot for the parser.
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) return Fail(s);

  if (command == "build") return RunBuild(flags);
  if (command == "info") return RunInfo(flags);
  return Usage();
}
