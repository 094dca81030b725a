// Tests for the mmap-backed ".tirm" bundle data plane (src/io/):
// write/load round-trips, bit-identical allocations from bundle-loaded
// instances, pooled-store sampling on a mapped instance (including
// concurrent top-up, for the TSan job), and table-driven corruption
// handling, element checks included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/allocator_config.h"
#include "api/allocator_registry.h"
#include "common/rng.h"
#include "datasets/dataset.h"
#include "io/bundle_format.h"
#include "io/bundle_reader.h"
#include "io/bundle_writer.h"
#include "rrset/sample_store.h"

namespace tirm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
void ExpectSpansEqual(std::span<const T> a, std::span<const T> b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size_bytes())) << what;
}

void ExpectInstancesEqual(const BuiltInstance& a, const BuiltInstance& b) {
  ASSERT_EQ(a.graph->num_nodes(), b.graph->num_nodes());
  ASSERT_EQ(a.graph->num_edges(), b.graph->num_edges());
  const Graph::Parts pa = a.graph->parts();
  const Graph::Parts pb = b.graph->parts();
  ExpectSpansEqual(pa.out_offsets, pb.out_offsets, "out_offsets");
  ExpectSpansEqual(pa.out_targets, pb.out_targets, "out_targets");
  ExpectSpansEqual(pa.out_edge_ids, pb.out_edge_ids, "out_edge_ids");
  ExpectSpansEqual(pa.in_offsets, pb.in_offsets, "in_offsets");
  ExpectSpansEqual(pa.in_sources, pb.in_sources, "in_sources");
  ExpectSpansEqual(pa.in_edge_ids, pb.in_edge_ids, "in_edge_ids");
  ExpectSpansEqual(pa.edge_source, pb.edge_source, "edge_source");
  ExpectSpansEqual(pa.edge_target, pb.edge_target, "edge_target");

  ASSERT_EQ(a.edge_probs->mode(), b.edge_probs->mode());
  ASSERT_EQ(a.edge_probs->num_topics(), b.edge_probs->num_topics());
  ExpectSpansEqual(a.edge_probs->raw(), b.edge_probs->raw(), "edge_probs");

  ASSERT_EQ(a.ctps->num_nodes(), b.ctps->num_nodes());
  ASSERT_EQ(a.ctps->num_ads(), b.ctps->num_ads());
  ExpectSpansEqual(a.ctps->raw(), b.ctps->raw(), "ctps");

  ASSERT_EQ(a.advertisers.size(), b.advertisers.size());
  for (std::size_t i = 0; i < a.advertisers.size(); ++i) {
    EXPECT_EQ(a.advertisers[i].budget, b.advertisers[i].budget);
    EXPECT_EQ(a.advertisers[i].cpe, b.advertisers[i].cpe);
    ExpectSpansEqual(a.advertisers[i].gamma.mass(),
                     b.advertisers[i].gamma.mass(), "gamma");
  }
}

BuiltInstance BuildFlixsterTiny() {
  Rng rng(2015);
  return BuildDataset(FlixsterLike(0.003), rng);
}

// --------------------------------------------------------- round trips

TEST(BundleRoundTripTest, Figure1ComponentsSurviveExactly) {
  const BuiltInstance original = BuildFigure1Instance();
  const std::string path = TempPath("fig1.tirm");
  ASSERT_TRUE(WriteBundle(original, path).ok());

  Result<BuiltInstance> loaded = LoadBundleInstance(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, "figure1");
  EXPECT_NE(loaded->backing, nullptr);
  EXPECT_FALSE(loaded->graph->owns_storage());
  EXPECT_FALSE(loaded->edge_probs->owns_storage());
  EXPECT_FALSE(loaded->ctps->owns_storage());
  EXPECT_FALSE(loaded->advertisers[0].gamma.owns_storage());
  ExpectInstancesEqual(original, *loaded);
  std::remove(path.c_str());
}

TEST(BundleRoundTripTest, PerTopicDatasetSurvivesExactly) {
  const BuiltInstance original = BuildFlixsterTiny();
  ASSERT_EQ(original.edge_probs->mode(), EdgeProbabilities::Mode::kPerTopic);
  const std::string path = TempPath("flixster_tiny.tirm");
  ASSERT_TRUE(WriteBundle(original, path).ok());

  Result<BuiltInstance> loaded = LoadBundleInstance(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectInstancesEqual(original, *loaded);

  // The zero-copy load holds no heap copies of the big arrays.
  EXPECT_EQ(loaded->graph->MemoryBytes(), 0u);
  EXPECT_EQ(loaded->edge_probs->MemoryBytes(), 0u);
  EXPECT_EQ(loaded->ctps->MemoryBytes(), 0u);
  std::remove(path.c_str());
}

TEST(BundleRoundTripTest, SharedMappingServesManyInstances) {
  const BuiltInstance original = BuildFigure1Instance();
  const std::string path = TempPath("fig1_shared.tirm");
  ASSERT_TRUE(WriteBundle(original, path).ok());

  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  auto mapping = std::make_shared<const MappedFile>(mapped.MoveValue());

  // Worker pattern: verify once, then assemble N cheap views.
  Result<BuiltInstance> first = LoadBundleInstance(mapping, {.verify = true});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<BuiltInstance> second =
      LoadBundleInstance(mapping, {.verify = false});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectInstancesEqual(*first, *second);
  // Both instances literally view the same bytes.
  EXPECT_EQ(first->edge_probs->raw().data(), second->edge_probs->raw().data());
  std::remove(path.c_str());
}

TEST(BundleInfoTest, ReportsCountsAndVerifiedSections) {
  const BuiltInstance original = BuildFigure1Instance();
  const std::string path = TempPath("fig1_info.tirm");
  ASSERT_TRUE(WriteBundle(original, path).ok());

  Result<BundleInfo> info = ReadBundleInfo(path, /*verify_checksums=*/true);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, bundle::kVersion);
  EXPECT_EQ(info->name, "figure1");
  EXPECT_EQ(info->num_nodes, original.graph->num_nodes());
  EXPECT_EQ(info->num_edges, original.graph->num_edges());
  EXPECT_EQ(info->num_ads, original.advertisers.size());
  EXPECT_EQ(info->sections.size(), 13u);
  for (const BundleSectionInfo& s : info->sections) {
    EXPECT_TRUE(s.checksum_ok) << s.name;
  }
  std::remove(path.c_str());
}

TEST(BundleWriterTest, RejectsGammaTopicMismatchAtWriteTime) {
  // A per-topic instance whose advertiser gamma disagrees with the
  // probability matrix must fail at WRITE time — the reader would be
  // guaranteed to refuse the bundle otherwise.
  BuiltInstance built = BuildFlixsterTiny();
  built.advertisers[0].gamma = TopicDistribution::Uniform(3);  // K is 10
  const std::string path = TempPath("mismatch.tirm");
  const Status written = WriteBundle(built, path);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(written.message().find("gamma topic count"), std::string::npos);
}

// ------------------------------------------- bit-identical allocations

AllocationResult RunByName(const std::string& name,
                           const ProblemInstance& instance,
                           std::uint64_t seed) {
  AllocatorConfig config;
  config.allocator = name;
  config.eps = 0.3;
  config.theta_cap = 1 << 14;
  config.mc_sims = 200;
  Result<std::unique_ptr<Allocator>> allocator =
      AllocatorRegistry::Global().Create(config);
  EXPECT_TRUE(allocator.ok()) << allocator.status().ToString();
  Rng rng(seed);
  return allocator.value()->Allocate(instance, rng);
}

void ExpectIdenticalRuns(const BuiltInstance& generated,
                         const BuiltInstance& loaded,
                         const std::vector<std::string>& allocators) {
  const ProblemInstance gen_inst = generated.MakeInstance(1, 0.1);
  const ProblemInstance load_inst = loaded.MakeInstance(1, 0.1);
  for (const std::string& name : allocators) {
    const AllocationResult a = RunByName(name, gen_inst, 99);
    const AllocationResult b = RunByName(name, load_inst, 99);
    EXPECT_EQ(a.allocation.seeds, b.allocation.seeds) << name;
    EXPECT_EQ(a.estimated_revenue, b.estimated_revenue) << name;
    EXPECT_EQ(a.iterations, b.iterations) << name;
  }
}

TEST(BundleAllocationTest, AllFiveAllocatorsBitIdenticalOnFigure1) {
  const BuiltInstance original = BuildFigure1Instance();
  const std::string path = TempPath("fig1_alloc.tirm");
  ASSERT_TRUE(WriteBundle(original, path).ok());
  Result<BuiltInstance> loaded = LoadBundleInstance(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Every registered allocator — the acceptance gate of the bundle
  // refactor: a bundle round-trip must never change an allocation.
  ExpectIdenticalRuns(original, *loaded,
                      AllocatorRegistry::Global().Names());
  std::remove(path.c_str());
}

TEST(BundleAllocationTest, SamplingAllocatorsBitIdenticalOnPerTopicDataset) {
  const BuiltInstance original = BuildFlixsterTiny();
  const std::string path = TempPath("flixster_alloc.tirm");
  ASSERT_TRUE(WriteBundle(original, path).ok());
  Result<BuiltInstance> loaded = LoadBundleInstance(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // greedy-mc is excluded: it is the small-graph reference oracle.
  ExpectIdenticalRuns(original, *loaded,
                      {"tirm", "myopic", "myopic+", "greedy-irie"});
  std::remove(path.c_str());
}

// ------------------------------------- pooled sampling on a mapped instance

TEST(BundleSampleStoreTest, PoolsFromMappedInstanceMatchGenerated) {
  const BuiltInstance original = BuildFlixsterTiny();
  const std::string path = TempPath("flixster_store.tirm");
  ASSERT_TRUE(WriteBundle(original, path).ok());
  Result<BuiltInstance> loaded = LoadBundleInstance(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const ProblemInstance gen_inst = original.MakeInstance(1, 0.0);
  const ProblemInstance load_inst = loaded->MakeInstance(1, 0.0);

  const RrSampleStore::Options store_options{.seed = 77, .chunk_sets = 256};
  RrSampleStore gen_store(original.graph.get(), store_options);
  RrSampleStore load_store(loaded->graph.get(), store_options);

  for (AdId ad = 0; ad < 2; ++ad) {
    const std::uint64_t sig_gen = gen_store.SignatureForAd(gen_inst, ad);
    const std::uint64_t sig_load = load_store.SignatureForAd(load_inst, ad);
    EXPECT_EQ(sig_gen, sig_load);
    RrSampleStore::AdPool* gen_pool =
        gen_store.Acquire(sig_gen, gen_inst.EdgeProbsForAd(ad));
    RrSampleStore::AdPool* load_pool =
        load_store.Acquire(sig_load, load_inst.EdgeProbsForAd(ad));
    gen_store.EnsureSets(gen_pool, 512);
    load_store.EnsureSets(load_pool, 512);
    ASSERT_EQ(gen_pool->sets().NumSets(), load_pool->sets().NumSets());
    for (std::uint32_t s = 0; s < gen_pool->sets().NumSets(); ++s) {
      ExpectSpansEqual(gen_pool->sets().SetMembers(s),
                       load_pool->sets().SetMembers(s), "pooled RR set");
    }
  }
  std::remove(path.c_str());
}

TEST(BundleSampleStoreTest, ConcurrentTopUpOnMappedInstanceIsSafe) {
  const BuiltInstance original = BuildFlixsterTiny();
  const std::string path = TempPath("flixster_tsan.tirm");
  ASSERT_TRUE(WriteBundle(original, path).ok());
  Result<BuiltInstance> loaded = LoadBundleInstance(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ProblemInstance inst = loaded->MakeInstance(1, 0.0);

  // Concurrent EnsureSets across ads of one store over mmap-borrowed
  // probability arrays — the contract the TSan job checks.
  RrSampleStore store(loaded->graph.get(), {.seed = 5, .chunk_sets = 128});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &inst, t] {
      const AdId ad = static_cast<AdId>(t % inst.num_ads());
      RrSampleStore::AdPool* pool = store.Acquire(
          store.SignatureForAd(inst, ad), inst.EdgeProbsForAd(ad));
      store.EnsureSets(pool, 256);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(store.LifetimeStats().sampled_sets, 256u);
  std::remove(path.c_str());
}

// ----------------------------------------------- file: dataset dispatch

TEST(FileDatasetTest, EdgeListIngestionBuildsInstance) {
  const std::string path = TempPath("snap_edges.txt");
  {
    std::ofstream out(path);
    out << "# SNAP-style comment\n";
    out << "10 20\n20 30\n30 10\n10 30\n20 10\n";
  }
  Rng rng(1);
  Result<BuiltInstance> built = BuildNamedDataset("file:" + path, 1.0, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->graph->num_nodes(), 3u);  // sparse ids compacted
  EXPECT_EQ(built->graph->num_edges(), 5u);
  EXPECT_EQ(built->advertisers.size(), 5u);
  EXPECT_EQ(built->name, "file:" + path);
  EXPECT_TRUE(built->MakeInstance(1, 0.0).Validate().ok());
  std::remove(path.c_str());
}

TEST(FileDatasetTest, MissingFileAndUnknownNamesAreTypedErrors) {
  Rng rng(1);
  Result<BuiltInstance> missing =
      BuildNamedDataset("file:/nonexistent/edges.txt", 1.0, rng);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);

  Result<BuiltInstance> unknown = BuildNamedDataset("nope", 1.0, rng);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("bundle:"), std::string::npos);
}

// --------------------------------------------------- corruption handling

class BundleCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const BuiltInstance original = BuildFigure1Instance();
    base_path_ = TempPath("corrupt_base.tirm");
    ASSERT_TRUE(WriteBundle(original, base_path_).ok());
    base_bytes_ = ReadFileBytes(base_path_);
    ASSERT_GT(base_bytes_.size(), sizeof(bundle::Header));
  }
  void TearDown() override { std::remove(base_path_.c_str()); }

  /// Applies `mutate` to a copy of the valid bundle, writes it out, and
  /// returns the load's status.
  Status LoadMutated(const std::function<void(std::vector<char>&)>& mutate,
                     bool verify = true) {
    std::vector<char> bytes = base_bytes_;
    mutate(bytes);
    const std::string path = TempPath("corrupt_case.tirm");
    WriteFileBytes(path, bytes);
    Result<BuiltInstance> loaded = LoadBundleInstance(path, {.verify = verify});
    std::remove(path.c_str());
    return loaded.ok() ? Status::OK() : loaded.status();
  }

  /// Byte position of section `id`'s entry in the section table.
  static std::size_t EntryPos(const std::vector<char>& bytes,
                              bundle::SectionId id) {
    bundle::Header header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    for (std::uint32_t i = 0; i < header.section_count; ++i) {
      const std::size_t pos = sizeof(header) + i * sizeof(bundle::SectionEntry);
      bundle::SectionEntry entry;
      std::memcpy(&entry, bytes.data() + pos, sizeof(entry));
      if (entry.id == static_cast<std::uint32_t>(id)) return pos;
    }
    ADD_FAILURE() << "section " << bundle::SectionName(id) << " not found";
    return sizeof(header);
  }

  static bundle::SectionEntry Entry(const std::vector<char>& bytes,
                                    bundle::SectionId id) {
    bundle::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + EntryPos(bytes, id), sizeof(entry));
    return entry;
  }

  /// Flips a byte inside section `id`'s payload (not in alignment
  /// padding, which is rightly not checksummed).
  static void FlipPayloadByte(std::vector<char>& bytes, bundle::SectionId id) {
    const bundle::SectionEntry entry = Entry(bytes, id);
    ASSERT_GT(entry.size, 0u);
    bytes[static_cast<std::size_t>(entry.offset)] ^= 0x40;
  }

  /// Recomputes the header's table checksum after a deliberate table
  /// mutation, so the corruption under test (not the checksum) trips.
  static void FixTableChecksum(std::vector<char>& bytes) {
    bundle::Header header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    const std::size_t table_bytes =
        header.section_count * sizeof(bundle::SectionEntry);
    header.table_checksum =
        bundle::Checksum(bytes.data() + sizeof(header), table_bytes);
    std::memcpy(bytes.data(), &header, sizeof(header));
  }

  /// Recomputes section `id`'s payload checksum (and then the table's)
  /// after a deliberate payload mutation, so the element check under test
  /// (not the checksum) trips.
  static void FixSectionChecksum(std::vector<char>& bytes,
                                 bundle::SectionId id) {
    const std::size_t pos = EntryPos(bytes, id);
    bundle::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + pos, sizeof(entry));
    entry.checksum = bundle::Checksum(
        bytes.data() + entry.offset, static_cast<std::size_t>(entry.size));
    std::memcpy(bytes.data() + pos, &entry, sizeof(entry));
    FixTableChecksum(bytes);
  }

  /// Element `index` of section `id`, read as a T.
  template <typename T>
  static T ReadElement(const std::vector<char>& bytes, bundle::SectionId id,
                       std::size_t index) {
    const bundle::SectionEntry entry = Entry(bytes, id);
    EXPECT_LE((index + 1) * sizeof(T), entry.size);
    T value;
    std::memcpy(&value, bytes.data() + entry.offset + index * sizeof(T),
                sizeof(T));
    return value;
  }

  /// Overwrites element `index` of section `id` with `value` and
  /// re-stamps the checksums.
  template <typename T>
  static void WriteElement(std::vector<char>& bytes, bundle::SectionId id,
                           std::size_t index, T value) {
    const bundle::SectionEntry entry = Entry(bytes, id);
    ASSERT_LE((index + 1) * sizeof(T), entry.size);
    std::memcpy(bytes.data() + entry.offset + index * sizeof(T), &value,
                sizeof(T));
    FixSectionChecksum(bytes, id);
  }

  std::string base_path_;
  std::vector<char> base_bytes_;
};

TEST_F(BundleCorruptionTest, TableDrivenCorruptionsAreTypedErrors) {
  struct Case {
    const char* name;
    std::function<void(std::vector<char>&)> mutate;
    const char* expect_substring;
  };
  const std::size_t entry0 = sizeof(bundle::Header);
  const Case cases[] = {
      {"empty file", [](std::vector<char>& b) { b.clear(); },
       "shorter than header"},
      {"truncated header",
       [](std::vector<char>& b) { b.resize(sizeof(bundle::Header) / 2); },
       "shorter than header"},
      {"bad magic", [](std::vector<char>& b) { b[0] = 'X'; }, "bad magic"},
      {"foreign endianness",
       [](std::vector<char>& b) { std::swap(b[8], b[11]); },
       "foreign byte order"},
      {"unsupported version",
       [](std::vector<char>& b) { b[12] = 99; }, "unsupported"},
      // min() keeps the new size provably <= size(): GCC 12's
      // -Wstringop-overflow otherwise sees `size() - 64` as possibly
      // wrapping under the sanitizer configs and rejects the build.
      {"truncated body",
       [](std::vector<char>& b) {
         b.resize(b.size() - std::min<std::size_t>(b.size(), 64));
       },
       "truncated"},
      {"trailing garbage",
       [](std::vector<char>& b) { b.insert(b.end(), 100, 'x'); },
       "truncated"},
      {"section table checksum",
       [entry0](std::vector<char>& b) { b[entry0 + 8] ^= 0x01; },
       "table checksum"},
      {"section out of bounds",
       [entry0](std::vector<char>& b) {
         bundle::SectionEntry entry;
         std::memcpy(&entry, b.data() + entry0, sizeof(entry));
         entry.offset = 1ull << 40;
         std::memcpy(b.data() + entry0, &entry, sizeof(entry));
         FixTableChecksum(b);
       },
       "past end of file"},
      {"misaligned section",
       [entry0](std::vector<char>& b) {
         bundle::SectionEntry entry;
         std::memcpy(&entry, b.data() + entry0, sizeof(entry));
         entry.offset += 4;
         std::memcpy(b.data() + entry0, &entry, sizeof(entry));
         FixTableChecksum(b);
       },
       "misaligned"},
      {"duplicate section",
       [entry0](std::vector<char>& b) {
         // Overwrite entry 1's id with entry 0's id.
         bundle::SectionEntry e0;
         bundle::SectionEntry e1;
         std::memcpy(&e0, b.data() + entry0, sizeof(e0));
         std::memcpy(&e1, b.data() + entry0 + sizeof(e0), sizeof(e1));
         e1.id = e0.id;
         std::memcpy(b.data() + entry0 + sizeof(e0), &e1, sizeof(e1));
         FixTableChecksum(b);
       },
       "duplicate section"},
      {"payload bit flip",
       [](std::vector<char>& b) {
         FlipPayloadByte(b, bundle::SectionId::kEdgeProbs);
       },
       "checksum mismatch"},
  };
  for (const Case& c : cases) {
    const Status status = LoadMutated(c.mutate);
    EXPECT_FALSE(status.ok()) << c.name;
    EXPECT_EQ(status.code(), StatusCode::kIOError) << c.name;
    EXPECT_NE(status.message().find(c.expect_substring), std::string::npos)
        << c.name << ": got \"" << status.message() << "\"";
  }
}

TEST_F(BundleCorruptionTest, ElementChecksCatchValuesUnderValidChecksums) {
  // Each case rewrites one element and re-stamps the checksums, so only
  // verify's element checks stand between the value and the instance.
  using bundle::SectionId;
  constexpr NodeId kNumNodes = 6;  // Figure 1
  constexpr NodeId kBadNode = 1u << 30;
  struct Case {
    const char* name;
    std::function<void(std::vector<char>&)> mutate;
    const char* expect_substring;
  };
  const Case cases[] = {
      {"edge_targets id >= n",
       [](std::vector<char>& b) {
         WriteElement(b, SectionId::kEdgeTargets, 0, kBadNode);
       },
       "edge target id out of range"},
      {"out_targets id >= n",
       [](std::vector<char>& b) {
         WriteElement(b, SectionId::kOutTargets, 0, kBadNode);
       },
       "out target id out of range"},
      {"in_sources id >= n",
       [](std::vector<char>& b) {
         WriteElement(b, SectionId::kInSources, 0, kBadNode);
       },
       "in source id out of range"},
      // In range, but no longer the edge arrays' endpoint of that slot.
      {"out_targets[0] names another node",
       [](std::vector<char>& b) {
         const auto v = ReadElement<NodeId>(b, SectionId::kOutTargets, 0);
         WriteElement(b, SectionId::kOutTargets, 0,
                      NodeId{(v + 1) % kNumNodes});
       },
       "out adjacency disagrees with the edge arrays"},
      {"in_sources[0] names another node",
       [](std::vector<char>& b) {
         const auto v = ReadElement<NodeId>(b, SectionId::kInSources, 0);
         WriteElement(b, SectionId::kInSources, 0,
                      NodeId{(v + 1) % kNumNodes});
       },
       "in adjacency disagrees with the edge arrays"},
      {"edge probability 7.0",
       [](std::vector<char>& b) {
         WriteElement(b, SectionId::kEdgeProbs, 0, 7.0f);
       },
       "edge probability value outside [0, 1]"},
      {"CTP 1.5",
       [](std::vector<char>& b) { WriteElement(b, SectionId::kCtps, 0, 1.5f); },
       "CTP value outside [0, 1]"},
      {"negative CPE",
       [](std::vector<char>& b) {
         auto rec = ReadElement<bundle::AdRecord>(b, SectionId::kAdRecords, 0);
         rec.cpe = -1.0;
         WriteElement(b, SectionId::kAdRecords, 0, rec);
       },
       "corrupt advertiser CPE"},
      {"gamma slice past gamma_mass",
       [](std::vector<char>& b) {
         auto rec = ReadElement<bundle::AdRecord>(b, SectionId::kAdRecords, 0);
         rec.gamma_offset = Entry(b, SectionId::kGammaMass).size /
                            sizeof(double);
         WriteElement(b, SectionId::kAdRecords, 0, rec);
       },
       "advertiser gamma slice out of range"},
  };
  for (const Case& c : cases) {
    const Status status = LoadMutated(c.mutate, /*verify=*/true);
    EXPECT_EQ(status.code(), StatusCode::kIOError)
        << c.name << ": " << status.ToString();
    EXPECT_NE(status.message().find(c.expect_substring), std::string::npos)
        << c.name << ": got \"" << status.message() << "\"";
  }
}

TEST_F(BundleCorruptionTest, StructuralCorruptionCaughtEvenWithoutVerify) {
  // verify=false skips checksums and element scans, but structure —
  // magic, sizes, section bounds, meta counts — is always validated.
  const Status truncated = LoadMutated(
      [](std::vector<char>& b) { b.resize(b.size() / 2); }, false);
  EXPECT_FALSE(truncated.ok());
  const Status magic =
      LoadMutated([](std::vector<char>& b) { b[3] = '?'; }, false);
  EXPECT_FALSE(magic.ok());
}

TEST_F(BundleCorruptionTest, MissingFileIsATypedError) {
  Result<BuiltInstance> loaded =
      LoadBundleInstance(TempPath("does_not_exist.tirm"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(BundleCorruptionTest, InfoReportsCorruptSectionWithoutFailing) {
  std::vector<char> bytes = base_bytes_;
  FlipPayloadByte(bytes, bundle::SectionId::kEdgeProbs);
  const std::string path = TempPath("corrupt_info.tirm");
  WriteFileBytes(path, bytes);
  Result<BundleInfo> info = ReadBundleInfo(path, /*verify_checksums=*/true);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  bool saw_corrupt = false;
  for (const BundleSectionInfo& s : info->sections) {
    saw_corrupt = saw_corrupt || !s.checksum_ok;
  }
  EXPECT_TRUE(saw_corrupt);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tirm
