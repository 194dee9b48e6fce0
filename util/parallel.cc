#include "util/parallel.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace netshuffle {
namespace {

constexpr size_t kMaxThreads = 256;

// True while this thread is executing inside a parallel region: for pool
// workers always, for a dispatching thread while it runs its own share of a
// job.  Nested dispatch in either case must run inline — a second in-flight
// job would corrupt the pool's single job slot.
thread_local bool tls_in_parallel_region = false;

ns::Mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool NS_GUARDED_BY(g_pool_mutex);
// 0 = use NS_THREADS / hardware concurrency.
size_t g_override NS_GUARDED_BY(g_pool_mutex) = 0;

size_t DefaultThreadCount() NS_REQUIRES(g_pool_mutex) {
  return g_override != 0 ? g_override : EnvThreadCount();
}

}  // namespace

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t EnvThreadCount() {
  const char* s = std::getenv("NS_THREADS");
  if (s == nullptr || *s == '\0') return HardwareThreads();
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 0) {
    std::fprintf(stderr,
                 "NS_THREADS='%s' is not a non-negative integer; using "
                 "hardware concurrency (%zu)\n",
                 s, HardwareThreads());
    return HardwareThreads();
  }
  if (v == 0) return HardwareThreads();
  if (static_cast<size_t>(v) > kMaxThreads) {
    std::fprintf(stderr, "NS_THREADS=%ld exceeds the cap %zu; using %zu\n", v,
                 kMaxThreads, kMaxThreads);
    return kMaxThreads;
  }
  return static_cast<size_t>(v);
}

void SetThreadCount(size_t threads) {
  ns::MutexLock lk(&g_pool_mutex);
  g_override = std::min(threads, kMaxThreads);
  g_pool.reset();  // rebuilt lazily at the new width
}

size_t ThreadCount() {
  ns::MutexLock lk(&g_pool_mutex);
  return g_pool ? g_pool->size() : DefaultThreadCount();
}

ThreadPool& GlobalPool() {
  ns::MutexLock lk(&g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *g_pool;
}

ThreadPool::ThreadPool(size_t threads) {
  const size_t spawned = std::min(std::max<size_t>(threads, 1), kMaxThreads) - 1;
  workers_.reserve(spawned);
  for (size_t i = 0; i < spawned; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    ns::MutexLock lk(&mutex_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void ThreadPool::RunChunks(size_t chunks, const std::function<void(size_t)>& fn) {
  if (chunks == 0) return;
  // Serial fallbacks: a 1-wide pool, a single chunk, or nested dispatch
  // from inside a parallel region (a worker, or the dispatcher running its
  // own share) all run inline.
  // Results are identical either way; see the determinism contract in the
  // header.
  if (workers_.empty() || chunks == 1 || InParallelRegion()) {
    for (size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }

  // Serialize outside-the-pool dispatchers: a concurrent second dispatch
  // would overwrite the single job slot while workers still drain the first
  // (the session's accounting readers vs its stepping thread).  Workers and
  // nested dispatch never reach here (inline path above), so this cannot
  // self-deadlock.
  ns::MutexLock dispatch_lk(&dispatch_mutex_);

  Job job;
  job.fn = &fn;
  job.chunks = chunks;
  {
    ns::MutexLock lk(&mutex_);
    job_ = &job;
    ++generation_;
    active_workers_ = workers_.size();
  }
  wake_cv_.NotifyAll();

  // The dispatcher claims chunks too, so a 2-wide pool really is 2-wide.
  // While it does, it counts as inside the region: anything it calls that
  // dispatches again (nested ParallelFor) must take the inline path above.
  tls_in_parallel_region = true;
  for (size_t c; (c = job.next.fetch_add(1)) < chunks;) fn(c);
  tls_in_parallel_region = false;

  // Explicit condition loop (not a predicate lambda): the analysis checks
  // the guarded active_workers_ read right here, under the held lock.
  ns::MutexLock lk(&mutex_);
  while (active_workers_ != 0) done_cv_.Wait(mutex_);
  job_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;  // for life: workers never dispatch
  uint64_t seen = 0;
  // Explicit Lock/Unlock instead of a scoped guard: the lock is dropped
  // around each job's chunk loop and retaken for the bookkeeping, a shape
  // RAII cannot express — the analysis still checks that every guarded
  // access below sits between a Lock and its Unlock.
  mutex_.Lock();
  while (true) {
    while (!stop_ && generation_ == seen) wake_cv_.Wait(mutex_);
    if (stop_) {
      mutex_.Unlock();
      return;
    }
    seen = generation_;
    Job* job = job_;
    mutex_.Unlock();
    for (size_t c; (c = job->next.fetch_add(1)) < job->chunks;) (*job->fn)(c);
    mutex_.Lock();
    if (--active_workers_ == 0) done_cv_.NotifyAll();
  }
}

void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  ThreadPool& pool = GlobalPool();
  const size_t by_grain = (n + std::max<size_t>(grain, 1) - 1) /
                          std::max<size_t>(grain, 1);
  // A few chunks per thread lets the atomic counter absorb imbalance.
  const size_t chunks =
      std::max<size_t>(1, std::min(pool.size() * 4, by_grain));
  if (chunks == 1) {
    body(0, n);
    return;
  }
  pool.RunChunks(chunks, [&](size_t c) {
    const size_t begin = c * n / chunks;
    const size_t end = (c + 1) * n / chunks;
    if (begin < end) body(begin, end);
  });
}

double ParallelBlockSum(size_t n,
                        const std::function<double(size_t, size_t)>& block_sum) {
  if (n == 0) return 0.0;
  constexpr size_t kBlock = 4096;  // fixed: block edges must not move with
                                   // the thread count
  const size_t blocks = (n + kBlock - 1) / kBlock;
  if (blocks == 1) return block_sum(0, n);
  std::vector<double> partial(blocks, 0.0);
  ParallelFor(blocks, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      partial[b] = block_sum(b * kBlock, std::min(n, (b + 1) * kBlock));
    }
  });
  double total = 0.0;
  for (double p : partial) total += p;  // block order: thread-count invariant
  return total;
}

}  // namespace netshuffle
