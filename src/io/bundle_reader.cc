#include "io/bundle_reader.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "io/bundle_format.h"

namespace tirm {
namespace {

using bundle::AdRecord;
using bundle::Header;
using bundle::Meta;
using bundle::SectionEntry;
using bundle::SectionId;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IOError(path + ": " + what);
}

/// Everything parsed out of a validated bundle, as typed views into the
/// mapping. Lifetimes are the mapping's.
struct ParsedBundle {
  Meta meta;
  std::string name;
  Graph::Parts graph_parts;
  std::span<const float> edge_probs;
  std::span<const float> ctps;
  std::span<const AdRecord> ad_records;
  std::span<const double> gamma_mass;
};

/// Header + section-table decoding shared by info and load paths.
struct SectionTable {
  Header header;
  std::vector<SectionEntry> entries;  // copied out of the mapping
  std::map<std::uint32_t, std::span<const std::byte>> payloads;
};

Result<SectionTable> DecodeTable(std::span<const std::byte> bytes,
                                 const std::string& path) {
  SectionTable table;
  if (bytes.size() < sizeof(Header)) {
    return Corrupt(path, "not a .tirm bundle (file shorter than header)");
  }
  std::memcpy(&table.header, bytes.data(), sizeof(Header));
  const Header& h = table.header;
  if (std::memcmp(h.magic, bundle::kMagic, sizeof(h.magic)) != 0) {
    return Corrupt(path, "not a .tirm bundle (bad magic)");
  }
  if (h.endian_tag != bundle::kEndianTag) {
    return Corrupt(path, "bundle written with foreign byte order");
  }
  if (h.version != bundle::kVersion) {
    return Corrupt(path, "unsupported bundle version " +
                             std::to_string(h.version) + " (supported: " +
                             std::to_string(bundle::kVersion) + ")");
  }
  if (h.file_size != bytes.size()) {
    return Corrupt(path, "truncated bundle (header declares " +
                             std::to_string(h.file_size) + " bytes, file has " +
                             std::to_string(bytes.size()) + ")");
  }
  if (h.section_count == 0 || h.section_count > bundle::kMaxSections) {
    return Corrupt(path, "corrupt section count");
  }
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(h.section_count) * sizeof(SectionEntry);
  if (bytes.size() - sizeof(Header) < table_bytes) {
    return Corrupt(path, "truncated section table");
  }
  const std::byte* table_start = bytes.data() + sizeof(Header);
  if (bundle::Checksum(table_start, static_cast<std::size_t>(table_bytes)) !=
      h.table_checksum) {
    return Corrupt(path, "section table checksum mismatch");
  }
  table.entries.resize(h.section_count);
  std::memcpy(table.entries.data(), table_start,
              static_cast<std::size_t>(table_bytes));

  for (const SectionEntry& e : table.entries) {
    if (e.offset % bundle::kSectionAlignment != 0) {
      return Corrupt(path, std::string("misaligned section ") +
                               bundle::SectionName(SectionId{e.id}));
    }
    if (e.offset > bytes.size() || e.size > bytes.size() - e.offset) {
      return Corrupt(path, std::string("section ") +
                               bundle::SectionName(SectionId{e.id}) +
                               " extends past end of file");
    }
    if (!table.payloads
             .emplace(e.id, bytes.subspan(static_cast<std::size_t>(e.offset),
                                          static_cast<std::size_t>(e.size)))
             .second) {
      return Corrupt(path, std::string("duplicate section ") +
                               bundle::SectionName(SectionId{e.id}));
    }
  }
  return table;
}

/// Fetches a required section's payload.
Result<std::span<const std::byte>> RequireSection(const SectionTable& table,
                                                  SectionId id,
                                                  const std::string& path) {
  const auto it = table.payloads.find(static_cast<std::uint32_t>(id));
  if (it == table.payloads.end()) {
    return Corrupt(path,
                   std::string("missing section ") + bundle::SectionName(id));
  }
  return it->second;
}

/// Reinterprets a payload as a typed array of exactly `count` elements.
template <typename T>
Result<std::span<const T>> TypedSection(const SectionTable& table,
                                        SectionId id, std::uint64_t count,
                                        const std::string& path) {
  Result<std::span<const std::byte>> payload =
      RequireSection(table, id, path);
  if (!payload.ok()) return payload.status();
  if (payload->size() != count * sizeof(T)) {
    return Corrupt(path, std::string("section ") + bundle::SectionName(id) +
                             " size mismatches declared counts");
  }
  if (reinterpret_cast<std::uintptr_t>(payload->data()) % alignof(T) != 0) {
    return Corrupt(path, std::string("section ") + bundle::SectionName(id) +
                             " misaligned for its element type");
  }
  return std::span<const T>(reinterpret_cast<const T*>(payload->data()),
                            static_cast<std::size_t>(count));
}

Status VerifyChecksums(const SectionTable& table, const std::string& path) {
  for (const SectionEntry& e : table.entries) {
    const auto payload = table.payloads.at(e.id);
    if (bundle::Checksum(payload.data(), payload.size()) != e.checksum) {
      return Corrupt(path, std::string("section ") +
                               bundle::SectionName(SectionId{e.id}) +
                               " checksum mismatch (corrupt payload)");
    }
  }
  return Status::OK();
}

Status ValidateProbabilityRange(std::span<const float> values,
                                const char* what, const std::string& path) {
  for (const float v : values) {
    if (!(v >= 0.0f && v <= 1.0f)) {  // also rejects NaN
      return Corrupt(path, std::string(what) + " value outside [0, 1]");
    }
  }
  return Status::OK();
}

Result<Meta> DecodeMeta(const SectionTable& table, std::string* name,
                        const std::string& path) {
  Result<std::span<const std::byte>> payload =
      RequireSection(table, SectionId::kMeta, path);
  if (!payload.ok()) return payload.status();
  if (payload->size() < sizeof(Meta)) {
    return Corrupt(path, "meta section too small");
  }
  Meta meta;
  std::memcpy(&meta, payload->data(), sizeof(Meta));
  if (meta.name_len > bundle::kMaxNameLen ||
      payload->size() != sizeof(Meta) + meta.name_len) {
    return Corrupt(path, "meta name length mismatches section size");
  }
  if (meta.num_nodes > std::numeric_limits<NodeId>::max()) {
    return Corrupt(path, "node count exceeds NodeId range");
  }
  if (meta.num_edges > std::numeric_limits<EdgeId>::max()) {
    return Corrupt(path, "edge count exceeds EdgeId range");
  }
  if (meta.num_topics == 0 || meta.num_topics > bundle::kMaxTopics) {
    return Corrupt(path, "corrupt topic count");
  }
  if (meta.prob_mode > 1) {
    return Corrupt(path, "corrupt probability mode");
  }
  if (meta.num_ads == 0 || meta.num_ads > bundle::kMaxAds) {
    return Corrupt(path, "corrupt advertiser count");
  }
  if (meta.ctp_num_ads < meta.num_ads || meta.ctp_num_ads > bundle::kMaxAds) {
    return Corrupt(path, "corrupt CTP ad count");
  }
  if (meta.gamma_total > meta.num_ads * bundle::kMaxTopics) {
    return Corrupt(path, "corrupt gamma mass total");
  }
  name->assign(reinterpret_cast<const char*>(payload->data()) + sizeof(Meta),
               static_cast<std::size_t>(meta.name_len));
  return meta;
}

Result<ParsedBundle> Parse(std::span<const std::byte> bytes,
                           const std::string& path, bool verify) {
  Result<SectionTable> table = DecodeTable(bytes, path);
  if (!table.ok()) return table.status();
  if (verify) {
    TIRM_RETURN_NOT_OK(VerifyChecksums(*table, path));
  }

  ParsedBundle parsed;
  Result<Meta> meta = DecodeMeta(*table, &parsed.name, path);
  if (!meta.ok()) return meta.status();
  parsed.meta = *meta;
  const std::uint64_t n = parsed.meta.num_nodes;
  const std::uint64_t m = parsed.meta.num_edges;

  auto u64s = [&](SectionId id, std::uint64_t count) {
    return TypedSection<std::uint64_t>(*table, id, count, path);
  };
  auto u32s = [&](SectionId id, std::uint64_t count) {
    return TypedSection<std::uint32_t>(*table, id, count, path);
  };

#define TIRM_ASSIGN_OR_RETURN(target, expr)     \
  do {                                          \
    auto _result = (expr);                      \
    if (!_result.ok()) return _result.status(); \
    (target) = *_result;                        \
  } while (false)

  TIRM_ASSIGN_OR_RETURN(parsed.graph_parts.out_offsets,
                        u64s(SectionId::kOutOffsets, n + 1));
  TIRM_ASSIGN_OR_RETURN(parsed.graph_parts.out_targets,
                        u32s(SectionId::kOutTargets, m));
  TIRM_ASSIGN_OR_RETURN(parsed.graph_parts.out_edge_ids,
                        u32s(SectionId::kOutEdgeIds, m));
  TIRM_ASSIGN_OR_RETURN(parsed.graph_parts.in_offsets,
                        u64s(SectionId::kInOffsets, n + 1));
  TIRM_ASSIGN_OR_RETURN(parsed.graph_parts.in_sources,
                        u32s(SectionId::kInSources, m));
  TIRM_ASSIGN_OR_RETURN(parsed.graph_parts.in_edge_ids,
                        u32s(SectionId::kInEdgeIds, m));
  TIRM_ASSIGN_OR_RETURN(parsed.graph_parts.edge_source,
                        u32s(SectionId::kEdgeSources, m));
  TIRM_ASSIGN_OR_RETURN(parsed.graph_parts.edge_target,
                        u32s(SectionId::kEdgeTargets, m));

  const std::uint64_t prob_count =
      parsed.meta.prob_mode == 1 ? m * parsed.meta.num_topics : m;
  TIRM_ASSIGN_OR_RETURN(
      parsed.edge_probs,
      TypedSection<float>(*table, SectionId::kEdgeProbs, prob_count, path));
  TIRM_ASSIGN_OR_RETURN(
      parsed.ctps, TypedSection<float>(*table, SectionId::kCtps,
                                       parsed.meta.ctp_num_ads * n, path));
  TIRM_ASSIGN_OR_RETURN(
      parsed.ad_records,
      TypedSection<AdRecord>(*table, SectionId::kAdRecords,
                             parsed.meta.num_ads, path));
  TIRM_ASSIGN_OR_RETURN(
      parsed.gamma_mass,
      TypedSection<double>(*table, SectionId::kGammaMass,
                           parsed.meta.gamma_total, path));
#undef TIRM_ASSIGN_OR_RETURN

  // Advertiser record invariants (cheap; always checked).
  for (const AdRecord& rec : parsed.ad_records) {
    if (rec.gamma_count == 0 || rec.gamma_count > bundle::kMaxTopics) {
      return Corrupt(path, "corrupt advertiser gamma count");
    }
    if (rec.gamma_offset > parsed.meta.gamma_total ||
        rec.gamma_count > parsed.meta.gamma_total - rec.gamma_offset) {
      return Corrupt(path, "advertiser gamma slice out of range");
    }
    if (parsed.meta.prob_mode == 1 &&
        rec.gamma_count != parsed.meta.num_topics) {
      return Corrupt(path, "advertiser gamma topic count mismatch");
    }
    if (!std::isfinite(rec.budget) || rec.budget < 0.0) {
      return Corrupt(path, "corrupt advertiser budget");
    }
    if (!std::isfinite(rec.cpe) || rec.cpe <= 0.0) {
      return Corrupt(path, "corrupt advertiser CPE");
    }
  }

  if (verify) {
    TIRM_RETURN_NOT_OK(
        ValidateProbabilityRange(parsed.edge_probs, "edge probability", path));
    TIRM_RETURN_NOT_OK(ValidateProbabilityRange(parsed.ctps, "CTP", path));
  }
  return parsed;
}

/// Assembles the advertiser roster from parsed records; every gamma
/// borrows its mass slice from the mapping.
Result<std::vector<Advertiser>> AssembleAdvertisers(
    const ParsedBundle& parsed, const std::string& path) {
  std::vector<Advertiser> advertisers;
  advertisers.reserve(parsed.ad_records.size());
  for (const AdRecord& rec : parsed.ad_records) {
    Advertiser a;
    a.budget = rec.budget;
    a.cpe = rec.cpe;
    Result<TopicDistribution> gamma =
        TopicDistribution::BorrowNormalized(parsed.gamma_mass.subspan(
            static_cast<std::size_t>(rec.gamma_offset),
            static_cast<std::size_t>(rec.gamma_count)));
    if (!gamma.ok()) {
      return Corrupt(path, "advertiser gamma invalid: " +
                               gamma.status().message());
    }
    a.gamma = gamma.MoveValue();
    advertisers.push_back(std::move(a));
  }
  return advertisers;
}

Result<BuiltInstance> AssembleBorrowed(
    std::shared_ptr<const MappedFile> mapping, const ParsedBundle& parsed,
    bool validate_elements) {
  const std::string& path = mapping->path();
  Result<Graph> graph =
      Graph::FromParts(static_cast<NodeId>(parsed.meta.num_nodes),
                       parsed.graph_parts, validate_elements);
  if (!graph.ok()) {
    return Corrupt(path, graph.status().message());
  }
  Result<EdgeProbabilities> edge_probs = EdgeProbabilities::FromBorrowed(
      parsed.meta.prob_mode == 1 ? EdgeProbabilities::Mode::kPerTopic
                                 : EdgeProbabilities::Mode::kShared,
      static_cast<int>(parsed.meta.num_topics),
      static_cast<std::size_t>(parsed.meta.num_edges), parsed.edge_probs);
  if (!edge_probs.ok()) {
    return Corrupt(path, edge_probs.status().message());
  }
  Result<ClickProbabilities> ctps = ClickProbabilities::FromBorrowed(
      static_cast<NodeId>(parsed.meta.num_nodes),
      static_cast<int>(parsed.meta.ctp_num_ads), parsed.ctps);
  if (!ctps.ok()) {
    return Corrupt(path, ctps.status().message());
  }
  Result<std::vector<Advertiser>> advertisers =
      AssembleAdvertisers(parsed, path);
  if (!advertisers.ok()) return advertisers.status();

  BuiltInstance built;
  built.name = parsed.name.empty() ? "bundle:" + path : parsed.name;
  built.graph = std::make_unique<Graph>(graph.MoveValue());
  built.edge_probs =
      std::make_unique<EdgeProbabilities>(edge_probs.MoveValue());
  built.ctps = std::make_unique<ClickProbabilities>(ctps.MoveValue());
  built.advertisers = advertisers.MoveValue();
  built.backing = std::move(mapping);
  return built;
}

}  // namespace

Result<BundleInfo> ReadBundleInfo(const std::string& path,
                                  bool verify_checksums) {
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  Result<SectionTable> table = DecodeTable(mapped->bytes(), path);
  if (!table.ok()) return table.status();

  BundleInfo info;
  info.version = table->header.version;
  info.file_size = table->header.file_size;
  Result<Meta> meta = DecodeMeta(*table, &info.name, path);
  if (!meta.ok()) return meta.status();
  info.num_nodes = meta->num_nodes;
  info.num_edges = meta->num_edges;
  info.num_topics = meta->num_topics;
  info.per_topic = meta->prob_mode == 1;
  info.num_ads = meta->num_ads;
  info.ctp_num_ads = meta->ctp_num_ads;
  for (const SectionEntry& e : table->entries) {
    BundleSectionInfo section;
    section.id = e.id;
    section.name = bundle::SectionName(SectionId{e.id});
    section.offset = e.offset;
    section.size = e.size;
    section.checksum = e.checksum;
    if (verify_checksums) {
      const auto payload = table->payloads.at(e.id);
      section.checksum_ok =
          bundle::Checksum(payload.data(), payload.size()) == e.checksum;
    }
    info.sections.push_back(std::move(section));
  }
  return info;
}

Result<BuiltInstance> LoadBundleInstance(const std::string& path,
                                         const BundleLoadOptions& options) {
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  return LoadBundleInstance(
      std::make_shared<const MappedFile>(mapped.MoveValue()), options);
}

Result<BuiltInstance> LoadBundleInstance(
    std::shared_ptr<const MappedFile> mapping,
    const BundleLoadOptions& options) {
  if (mapping == nullptr) {
    return Status::InvalidArgument("null bundle mapping");
  }
  Result<ParsedBundle> parsed =
      Parse(mapping->bytes(), mapping->path(), options.verify);
  if (!parsed.ok()) return parsed.status();
  return AssembleBorrowed(std::move(mapping), *parsed,
                          /*validate_elements=*/options.verify);
}

}  // namespace tirm
