// Zero-copy ".tirm" bundle loading (io/bundle_format.h).
//
// LoadBundleInstance maps a bundle read-only and assembles a BuiltInstance
// whose Graph / EdgeProbabilities / ClickProbabilities / advertiser topic
// distributions BORROW their arrays straight from the mapping — no
// deserialization, no copies; the returned instance carries the mapping in
// BuiltInstance::backing. N workers loading from one shared MappedFile
// (the overload taking a shared_ptr) share a single physical copy of the
// data and cold-start in milliseconds.
//
// Validation is strict and typed: wrong magic, foreign byte order,
// unsupported version, truncation, out-of-bounds or misaligned sections,
// duplicate/missing sections, and inconsistent counts all return Status
// errors — never a crash, never a partially constructed object. With
// options.verify (default) every section checksum is verified, every
// element is range-checked (node ids, probabilities in [0,1], normalized
// gammas), and both CSR sides must name exactly the edge arrays' edges;
// verify=false trusts a previously verified file and skips the full-file
// read, which is the fastest possible cold start.

#ifndef TIRM_IO_BUNDLE_READER_H_
#define TIRM_IO_BUNDLE_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datasets/dataset.h"
#include "io/mapped_file.h"

namespace tirm {

struct BundleLoadOptions {
  /// Verify section checksums and element ranges (full-file read). Turn
  /// off only for bundles already verified in this process — e.g. worker
  /// N > 1 re-loading a shared mapping the startup path verified.
  bool verify = true;
};

/// One section-table row, decoded for inspection (tirm_data info).
struct BundleSectionInfo {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  /// Only meaningful when info was read with verify_checksums.
  bool checksum_ok = true;
};

/// Decoded header + meta of a bundle, for inspection.
struct BundleInfo {
  std::uint32_t version = 0;
  std::uint64_t file_size = 0;
  std::string name;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t num_topics = 0;
  bool per_topic = false;
  std::uint64_t num_ads = 0;
  std::uint64_t ctp_num_ads = 0;
  std::vector<BundleSectionInfo> sections;
};

/// Decodes and validates a bundle's header, section table, and meta
/// without assembling an instance. With `verify_checksums`, additionally
/// reads every section and reports per-section checksum status (an error
/// is NOT returned for a bad payload checksum here — the per-section flag
/// carries it, so `tirm_data info` can show which section rotted).
[[nodiscard]] Result<BundleInfo> ReadBundleInfo(const std::string& path,
                                                bool verify_checksums = true);

/// Maps `path` and assembles a zero-copy BuiltInstance (see file comment).
[[nodiscard]] Result<BuiltInstance> LoadBundleInstance(
    const std::string& path, const BundleLoadOptions& options = {});

/// Same, over an already-open mapping shared with other consumers.
[[nodiscard]] Result<BuiltInstance> LoadBundleInstance(
    std::shared_ptr<const MappedFile> mapping,
    const BundleLoadOptions& options = {});

}  // namespace tirm

#endif  // TIRM_IO_BUNDLE_READER_H_
