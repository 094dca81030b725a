// Writes ".tirm" instance bundles (io/bundle_format.h).
//
// The writer serializes a fully materialized instance — CSR graph,
// probability matrix, CTP table, advertisers — into the section layout the
// zero-copy reader maps back in place. Writing goes through a temporary
// file and an atomic rename, so a crashed build never leaves a
// half-written bundle at the target path.

#ifndef TIRM_IO_BUNDLE_WRITER_H_
#define TIRM_IO_BUNDLE_WRITER_H_

#include <string>

#include "common/status.h"

namespace tirm {

struct BuiltInstance;  // datasets/dataset.h

/// Writes `built` to `path` as one bundle. `built.name` is stored in the
/// meta section and becomes BuiltInstance::name on load. Validates
/// component shape consistency before touching the filesystem.
[[nodiscard]] Status WriteBundle(const BuiltInstance& built,
                                 const std::string& path);

}  // namespace tirm

#endif  // TIRM_IO_BUNDLE_WRITER_H_
