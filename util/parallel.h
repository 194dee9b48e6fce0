// Shared-memory parallelism for the hot paths (exchange rounds, the epoch
// seal and receive, walk/spectral sweeps).  One process-wide pool, sized by
// the NS_THREADS knob (0/unset = hardware concurrency), drives every helper
// here.
//
// Determinism contract: every algorithm built on these helpers must produce
// bit-identical results for a fixed seed regardless of the thread count.
// The helpers support that in two ways:
//   - ParallelFor/RunChunks only decide *which thread* executes an index
//     range; callers must make each range's writes independent of execution
//     order (per-index output slots, per-(round,user) RNG streams, ...).
//   - ParallelBlockSum accumulates in fixed-size blocks that are summed in
//     block order, so floating-point rounding does not depend on how many
//     threads happened to run.

#ifndef NETSHUFFLE_UTIL_PARALLEL_H_
#define NETSHUFFLE_UTIL_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/sync.h"

namespace netshuffle {

/// std::thread::hardware_concurrency with the zero-means-unknown case mapped
/// to 1.
size_t HardwareThreads();

/// Parses the NS_THREADS environment knob (the sibling of NS_SCALE, surfaced
/// to harnesses via bench/experiment_common.h):
///   - unset, empty, or "0": hardware concurrency;
///   - a positive integer: honored (clamped to 256 with a warning);
///   - anything else (garbage, negatives, trailing junk): rejected with a
///     warning on stderr, falling back to hardware concurrency.
/// Re-reads the environment on every call; the global pool samples it once
/// at creation.
size_t EnvThreadCount();

/// Overrides the pool width (tests pin 1 vs 4 to prove determinism).  The
/// current global pool is torn down and lazily rebuilt at the new width;
/// 0 restores the NS_THREADS/hardware default.  Must not be called while a
/// parallel region is running.
void SetThreadCount(size_t threads);

/// The width the global pool uses (or would use once created).
size_t ThreadCount();

/// A fixed-width pool of persistent workers.  Work is handed out as chunk
/// indices claimed from a shared atomic counter, so load imbalance between
/// chunks is absorbed without affecting results (chunk -> thread assignment
/// is scheduling-only).  The dispatching thread participates in the work.
///
/// Dispatch is serialized: concurrent RunChunks calls from different
/// threads queue on an internal dispatch lock (the pool has a single job
/// slot), so it is safe — though not parallel — for, say, an accounting
/// reader thread to dispatch a walk sweep while the serving thread's
/// exchange round is in flight (core/session.h "Concurrency contract").
/// Nested dispatch — from a worker, or from the dispatcher's own share of
/// an outer job — runs inline instead of deadlocking, so a parallel caller
/// may safely call code that is parallel itself.
class ThreadPool {
 public:
  /// `threads` is the total parallelism including the dispatching thread, so
  /// `threads - 1` workers are spawned.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size() + 1; }

  /// Runs fn(c) for every c in [0, chunks), blocking until all complete.
  void RunChunks(size_t chunks, const std::function<void(size_t)>& fn);

 private:
  /// True on a pool worker, and on a dispatching thread while it executes
  /// its own share of a job.
  static bool InParallelRegion();

  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t chunks = 0;
    std::atomic<size_t> next{0};
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  // Held for the whole of a dispatched RunChunks call: the pool has ONE job
  // slot (job_/generation_), so a second outside-the-pool dispatcher must
  // wait for the current job to drain rather than overwrite it mid-flight.
  // Always taken before mutex_ (the dispatcher holds it across the job-slot
  // writes), which the ordering annotation makes checkable.
  ns::Mutex dispatch_mutex_ NS_ACQUIRED_BEFORE(mutex_);
  ns::Mutex mutex_;
  ns::CondVar wake_cv_;  // workers wait here for a new job
  ns::CondVar done_cv_;  // the dispatcher waits here
  Job* job_ NS_GUARDED_BY(mutex_) = nullptr;
  // Bumped per job so each worker joins it once.
  uint64_t generation_ NS_GUARDED_BY(mutex_) = 0;
  size_t active_workers_ NS_GUARDED_BY(mutex_) = 0;
  bool stop_ NS_GUARDED_BY(mutex_) = false;
};

/// The process-wide pool, created on first use at ThreadCount() width.
ThreadPool& GlobalPool();

/// Splits [0, n) into contiguous ranges of at least `grain` elements (at
/// most a few per thread) and runs body(begin, end) on the pool.  The split
/// is scheduling-only: body must not depend on the range boundaries.
void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// Deterministic parallel reduction: block_sum(begin, end) is evaluated over
/// fixed 4096-element blocks of [0, n) in parallel, and the per-block
/// partials are added in block order.  The result is bit-identical for any
/// thread count (though not to a single straight-line accumulation).
double ParallelBlockSum(size_t n,
                        const std::function<double(size_t, size_t)>& block_sum);

}  // namespace netshuffle

#endif  // NETSHUFFLE_UTIL_PARALLEL_H_
