#ifndef THALI_BASE_THREAD_POOL_H_
#define THALI_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace thali {

// A persistent pool of worker threads executing submitted closures.
// Construction spawns the workers; destruction drains the queue and
// joins. Library code normally goes through ParallelFor below rather
// than scheduling onto a pool directly.
class ThreadPool {
 public:
  // Spawns `num_workers` threads (0 is allowed: Schedule then runs the
  // closure inline on the calling thread).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` for execution on a worker thread. `fn` must not block
  // waiting for other pool tasks (ParallelFor handles nesting by running
  // nested regions inline).
  void Schedule(std::function<void()> fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Maximum number of concurrent strands ParallelFor may use (>= 1). The
// first call sizes the global pool from the THALI_NUM_THREADS environment
// variable, defaulting to std::thread::hardware_concurrency().
int MaxParallelism();

// Replaces the global pool with one of parallelism `n` (clamped to
// >= 1). Intended for tests and benchmarks; must not be called while a
// ParallelFor is in flight.
void SetMaxParallelism(int n);

namespace internal {

// True when a region over `range` > 0 indices runs as one inline chunk
// on the calling thread without asking the pool: one grain, a bound of
// 1, or a caller already inside a region (or a ScopedSingleStrand).
bool RegionRunsInline(int64_t range, int64_t grain, int max_strands);

// The region body of ParallelForBounded once the inline test failed.
void RunRegion(int64_t begin, int64_t end, int64_t grain, int max_strands,
               const std::function<void(int64_t, int64_t, int)>& fn);

}  // namespace internal

// Chunked parallel-for. Splits [begin, end) into at most
// min(MaxParallelism(), max_strands) contiguous chunks of roughly equal
// size (never creating more chunks than ceil(range / grain)) and invokes
// fn(chunk_begin, chunk_end, tid) with a distinct tid in
// [0, max_strands) per chunk. The calling thread executes chunk 0;
// remaining chunks run on the global pool.
//
// Runs fn(begin, end, 0) inline — bit-identical to a plain loop — when
// the range fits a single chunk, parallelism is 1, or the caller is
// already inside a ParallelFor or a ScopedSingleStrand (nested regions
// never re-parallelize). An inline region that can tell so from the
// range, the bound and the calling thread alone calls fn directly,
// without wrapping it in a std::function (no allocation).
// Exceptions thrown by fn are captured and the first one is rethrown on
// the calling thread after all chunks finish.
//
// Determinism contract: chunks are disjoint, so any fn that (a) writes
// only to locations derived from indices in its chunk and (b) preserves
// the sequential iteration order inside the chunk produces bitwise
// identical results for every parallelism level, 1 included.
//
// ParallelForBounded takes an explicit strand cap, for callers whose
// per-strand resources (e.g. per-thread workspaces) were sized below the
// current pool parallelism.
template <typename Fn>
void ParallelForBounded(int64_t begin, int64_t end, int64_t grain,
                        int max_strands, Fn&& fn) {
  if (end <= begin) return;
  if (internal::RegionRunsInline(end - begin, grain, max_strands)) {
    fn(begin, end, 0);
    return;
  }
  internal::RunRegion(begin, end, grain, max_strands, fn);
}

template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  ParallelForBounded(begin, end, grain, std::numeric_limits<int>::max(), fn);
}

// Runs every ParallelFor region the calling thread starts while this
// object lives inline on that thread, as one chunk, the way a region
// nested in a chunk runs. Regions started on other threads are
// unaffected. Destruction (an exception unwinding through the scope
// included) restores the thread's enclosing state, so scopes nest,
// inside a chunk too. A one-group inference forward runs under one
// (Network::Forward, Network::ForEachGroup), so nothing inside it fans
// out.
class ScopedSingleStrand {
 public:
  ScopedSingleStrand();
  ~ScopedSingleStrand();

  ScopedSingleStrand(const ScopedSingleStrand&) = delete;
  ScopedSingleStrand& operator=(const ScopedSingleStrand&) = delete;

 private:
  bool enclosing_;
};

}  // namespace thali

#endif  // THALI_BASE_THREAD_POOL_H_
