// Shared thread-count policy for sampling fan-out.
//
// The --threads flag readers (the benches' BenchConfig::FromFlags), the
// serving worker pool and ParallelRrBuilder resolve requested worker counts
// through this single helper so they can never diverge: 0 means "hardware
// concurrency", and every request is clamped to kMaxSamplingThreads.

#ifndef TIRM_COMMON_THREADING_H_
#define TIRM_COMMON_THREADING_H_

namespace tirm {

/// Hard cap on sampling worker threads (guards against e.g.
/// --threads=100000 exhausting OS thread limits).
inline constexpr int kMaxSamplingThreads = 256;

/// Resolves a requested worker count: <= 0 selects
/// std::thread::hardware_concurrency() (1 if unknown); the result is
/// always in [1, kMaxSamplingThreads].
int ResolveThreadCount(int requested);

/// Dense process-unique index of the calling thread, assigned in
/// first-call order (the main thread is usually 0). Stable for the
/// thread's lifetime; indexes are never reused. Log-line prefixes
/// (common/logging) and trace events (obs/trace) share these ids so the
/// two streams correlate.
int CurrentThreadIndex();

}  // namespace tirm

#endif  // TIRM_COMMON_THREADING_H_
