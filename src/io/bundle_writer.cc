#include "io/bundle_writer.h"

#include <cstdio>
#include <cstring>
#include <limits>

#include <unistd.h>

#include "datasets/dataset.h"
#include "io/bundle_format.h"

namespace tirm {
namespace {

using bundle::AdRecord;
using bundle::Header;
using bundle::Meta;
using bundle::SectionEntry;
using bundle::SectionId;

class FileCloser {
 public:
  explicit FileCloser(std::FILE* f) : f_(f) {}
  ~FileCloser() {
    if (f_ != nullptr) std::fclose(f_);
  }
  void Release() { f_ = nullptr; }
  FileCloser(const FileCloser&) = delete;
  FileCloser& operator=(const FileCloser&) = delete;

 private:
  std::FILE* f_;
};

/// One payload to serialize: raw bytes already laid out in memory.
struct Payload {
  SectionId id;
  const void* data;
  std::uint64_t size;
};

Status ValidateShapes(const Graph& graph, const EdgeProbabilities& edge_probs,
                      const ClickProbabilities& ctps,
                      const std::vector<Advertiser>& advertisers) {
  if (advertisers.empty()) {
    return Status::InvalidArgument("bundle: no advertisers");
  }
  if (edge_probs.num_edges() != graph.num_edges()) {
    return Status::InvalidArgument(
        "bundle: edge probability size mismatches graph");
  }
  if (ctps.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument("bundle: CTP table size mismatches graph");
  }
  if (static_cast<std::size_t>(ctps.num_ads()) < advertisers.size()) {
    return Status::InvalidArgument(
        "bundle: CTP table has fewer ads than advertiser roster");
  }
  if (advertisers.size() > bundle::kMaxAds) {
    return Status::InvalidArgument("bundle: too many advertisers");
  }
  if (static_cast<std::uint64_t>(edge_probs.num_topics()) >
      bundle::kMaxTopics) {
    return Status::InvalidArgument("bundle: too many topics");
  }
  for (const Advertiser& a : advertisers) {
    if (a.gamma.num_topics() == 0 ||
        static_cast<std::uint64_t>(a.gamma.num_topics()) >
            bundle::kMaxTopics) {
      return Status::InvalidArgument("bundle: advertiser gamma topic count");
    }
    // The reader enforces gamma/topic agreement in per-topic mode; reject
    // at write time too, so WriteBundle can never produce a bundle that
    // LoadBundleInstance is guaranteed to refuse.
    if (edge_probs.mode() == EdgeProbabilities::Mode::kPerTopic &&
        a.gamma.num_topics() != edge_probs.num_topics()) {
      return Status::InvalidArgument(
          "bundle: advertiser gamma topic count mismatches probability "
          "matrix");
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteBundle(const BuiltInstance& built, const std::string& path) {
  if (built.graph == nullptr || built.edge_probs == nullptr ||
      built.ctps == nullptr) {
    return Status::InvalidArgument("bundle: incomplete BuiltInstance");
  }
  const Graph& graph = *built.graph;
  const EdgeProbabilities& edge_probs = *built.edge_probs;
  const ClickProbabilities& ctps = *built.ctps;
  const std::vector<Advertiser>& advertisers = built.advertisers;
  const std::string& name = built.name;
  TIRM_RETURN_NOT_OK(ValidateShapes(graph, edge_probs, ctps, advertisers));
  if (name.size() > bundle::kMaxNameLen) {
    return Status::InvalidArgument("bundle: dataset name too long");
  }

  // ------------------------------------------------ materialize small parts
  std::vector<AdRecord> records;
  std::vector<double> gamma_mass;
  records.reserve(advertisers.size());
  for (const Advertiser& a : advertisers) {
    AdRecord rec;
    rec.budget = a.budget;
    rec.cpe = a.cpe;
    rec.gamma_offset = gamma_mass.size();
    const std::span<const double> mass = a.gamma.mass();
    rec.gamma_count = mass.size();
    gamma_mass.insert(gamma_mass.end(), mass.begin(), mass.end());
    records.push_back(rec);
  }

  std::vector<std::byte> meta_bytes(sizeof(Meta) + name.size());
  {
    Meta meta{};
    meta.num_nodes = graph.num_nodes();
    meta.num_edges = graph.num_edges();
    meta.num_topics = static_cast<std::uint64_t>(edge_probs.num_topics());
    meta.prob_mode =
        edge_probs.mode() == EdgeProbabilities::Mode::kPerTopic ? 1 : 0;
    meta.num_ads = advertisers.size();
    meta.ctp_num_ads = static_cast<std::uint64_t>(ctps.num_ads());
    meta.gamma_total = gamma_mass.size();
    meta.name_len = name.size();
    std::memcpy(meta_bytes.data(), &meta, sizeof(meta));
    std::memcpy(meta_bytes.data() + sizeof(meta), name.data(), name.size());
  }

  const Graph::Parts parts = graph.parts();
  auto span_bytes = [](const auto& span) {
    return static_cast<std::uint64_t>(span.size_bytes());
  };
  const Payload payloads[] = {
      {SectionId::kMeta, meta_bytes.data(), meta_bytes.size()},
      {SectionId::kOutOffsets, parts.out_offsets.data(),
       span_bytes(parts.out_offsets)},
      {SectionId::kOutTargets, parts.out_targets.data(),
       span_bytes(parts.out_targets)},
      {SectionId::kOutEdgeIds, parts.out_edge_ids.data(),
       span_bytes(parts.out_edge_ids)},
      {SectionId::kInOffsets, parts.in_offsets.data(),
       span_bytes(parts.in_offsets)},
      {SectionId::kInSources, parts.in_sources.data(),
       span_bytes(parts.in_sources)},
      {SectionId::kInEdgeIds, parts.in_edge_ids.data(),
       span_bytes(parts.in_edge_ids)},
      {SectionId::kEdgeSources, parts.edge_source.data(),
       span_bytes(parts.edge_source)},
      {SectionId::kEdgeTargets, parts.edge_target.data(),
       span_bytes(parts.edge_target)},
      {SectionId::kEdgeProbs, edge_probs.raw().data(),
       span_bytes(edge_probs.raw())},
      {SectionId::kCtps, ctps.raw().data(), span_bytes(ctps.raw())},
      {SectionId::kAdRecords, records.data(),
       records.size() * sizeof(AdRecord)},
      {SectionId::kGammaMass, gamma_mass.data(),
       gamma_mass.size() * sizeof(double)},
  };
  const std::uint32_t section_count =
      static_cast<std::uint32_t>(std::size(payloads));

  // ---------------------------------------------------------- layout pass
  std::vector<SectionEntry> table(section_count);
  std::uint64_t cursor = bundle::AlignUp(
      sizeof(Header) + section_count * sizeof(SectionEntry));
  for (std::uint32_t i = 0; i < section_count; ++i) {
    table[i].id = static_cast<std::uint32_t>(payloads[i].id);
    table[i].reserved = 0;
    table[i].offset = cursor;
    table[i].size = payloads[i].size;
    table[i].checksum = bundle::Checksum(payloads[i].data, payloads[i].size);
    cursor = bundle::AlignUp(cursor + payloads[i].size);
  }

  Header header{};
  std::memcpy(header.magic, bundle::kMagic, sizeof(header.magic));
  header.endian_tag = bundle::kEndianTag;
  header.version = bundle::kVersion;
  header.file_size = cursor;
  header.section_count = section_count;
  header.reserved = 0;
  header.table_checksum = bundle::Checksum(
      table.data(), table.size() * sizeof(SectionEntry));

  // ---------------------------------------------------------- write pass
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + tmp_path + " for write");
  }
  FileCloser closer(f);

  auto write_bytes = [f](const void* data, std::size_t size) {
    return size == 0 || std::fwrite(data, 1, size, f) == size;
  };
  // Alignment gaps are always shorter than one alignment unit.
  auto pad_to = [&write_bytes](std::uint64_t from, std::uint64_t to) {
    static constexpr char kZeros[bundle::kSectionAlignment] = {};
    return from <= to && to - from <= sizeof(kZeros) &&
           write_bytes(kZeros, static_cast<std::size_t>(to - from));
  };

  bool ok = write_bytes(&header, sizeof(header)) &&
            write_bytes(table.data(), table.size() * sizeof(SectionEntry));
  std::uint64_t written =
      sizeof(Header) + section_count * sizeof(SectionEntry);
  for (std::uint32_t i = 0; ok && i < section_count; ++i) {
    ok = pad_to(written, table[i].offset) &&
         write_bytes(payloads[i].data, static_cast<std::size_t>(table[i].size));
    written = table[i].offset + table[i].size;
  }
  ok = ok && pad_to(written, header.file_size);
  if (ok) ok = std::fflush(f) == 0;
  // Flush to stable storage BEFORE the rename: the atomic-rename contract
  // ("nothing is ever half-written at the target path") only holds if the
  // data reaches disk before the directory entry does.
  if (ok) ok = ::fsync(::fileno(f)) == 0;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::IOError("short write to " + tmp_path);
  }
  closer.Release();
  if (std::fclose(f) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot finalize " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

}  // namespace tirm
