#ifndef THALI_BASE_THREAD_POOL_H_
#define THALI_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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

// Chunked parallel-for. Splits [begin, end) into at most
// min(MaxParallelism(), max_strands, the calling thread's strand cap)
// contiguous chunks of roughly equal size (never creating more chunks
// than ceil(range / grain)) and invokes fn(chunk_begin, chunk_end, tid)
// with a distinct tid in [0, max_strands) per chunk. The calling thread
// executes chunk 0; remaining chunks run on the global pool.
//
// Runs fn(begin, end, 0) inline — bit-identical to a plain loop — when
// the range fits a single chunk, parallelism or the calling thread's
// strand cap (ScopedStrandCap) is 1, or the caller is already inside a
// ParallelFor (nested regions never re-parallelize).
// Exceptions thrown by fn are captured and the first one is rethrown on
// the calling thread after all chunks finish.
//
// Determinism contract: chunks are disjoint, so any fn that (a) writes
// only to locations derived from indices in its chunk and (b) preserves
// the sequential iteration order inside the chunk produces bitwise
// identical results for every parallelism level, 1 included.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t, int)>& fn);

// ParallelFor with an explicit strand cap, for callers whose per-strand
// resources (e.g. per-thread workspaces) were sized below the current
// pool parallelism.
void ParallelForBounded(int64_t begin, int64_t end, int64_t grain,
                        int max_strands,
                        const std::function<void(int64_t, int64_t, int)>& fn);

// Caps every ParallelFor region the calling thread starts while this
// object lives at `max_strands` strands, on top of MaxParallelism() and
// the region's own bound; a region capped at one strand runs inline as
// chunk 0. Regions started on other threads are unaffected. Caps nest:
// the tightest enclosing cap holds, and destruction (an exception
// unwinding through the scope included) restores the enclosing one.
// `max_strands` <= 0 adds no cap. Network::Forward runs each inference
// layer under its plan's strand count (LayerPlan::strands).
class ScopedStrandCap {
 public:
  explicit ScopedStrandCap(int max_strands);
  ~ScopedStrandCap();

  ScopedStrandCap(const ScopedStrandCap&) = delete;
  ScopedStrandCap& operator=(const ScopedStrandCap&) = delete;

 private:
  int enclosing_;
};

}  // namespace thali

#endif  // THALI_BASE_THREAD_POOL_H_
