#include "base/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "base/logging.h"

namespace thali {

namespace {

// Set while a thread executes a ParallelFor chunk (or holds a
// ScopedSingleStrand) so nested regions run inline instead of
// deadlocking on (or oversubscribing) the pool.
thread_local bool t_in_parallel_region = false;

int ParallelismFromEnv() {
  if (const char* env = std::getenv("THALI_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) {
      return static_cast<int>(std::min<long>(v, 1024));
    }
    THALI_LOG(Warning) << "ignoring invalid THALI_NUM_THREADS='" << env << "'";
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mu
int g_parallelism = 0;               // guarded by g_pool_mu; 0 = uninitialized

// Returns the global pool, creating it on first use. Parallelism P maps
// to P-1 workers; the ParallelFor caller is the P-th strand.
ThreadPool& GlobalPool(int* parallelism) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) {
    g_parallelism = ParallelismFromEnv();
    g_pool = std::make_unique<ThreadPool>(g_parallelism - 1);
  }
  if (parallelism != nullptr) *parallelism = g_parallelism;
  return *g_pool;
}

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  THALI_CHECK_GE(num_workers, 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Schedule(std::function<void()> fn) {
  if (workers_.empty()) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int MaxParallelism() {
  int p = 1;
  GlobalPool(&p);
  return p;
}

void SetMaxParallelism(int n) {
  const int p = std::max(1, n);
  std::unique_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (g_pool != nullptr && g_parallelism == p) return;
    old = std::move(g_pool);  // destroyed (joined) outside the lock
    g_parallelism = p;
    g_pool = std::make_unique<ThreadPool>(p - 1);
  }
}

namespace internal {

bool RegionRunsInline(int64_t range, int64_t grain, int max_strands) {
  return t_in_parallel_region || max_strands <= 1 ||
         range <= std::max<int64_t>(1, grain);
}

void RunRegion(int64_t begin, int64_t end, int64_t grain, int max_strands,
               const std::function<void(int64_t, int64_t, int)>& fn) {
  const int64_t range = end - begin;
  int parallelism = 1;
  ThreadPool& pool = GlobalPool(&parallelism);
  const int64_t g = std::max<int64_t>(1, grain);
  const int64_t strands = std::min<int64_t>(std::min(parallelism, max_strands),
                                            (range + g - 1) / g);
  if (strands <= 1) {
    // Parallelism 1: one chunk inline, and nothing nested can fan out.
    fn(begin, end, 0);
    return;
  }

  struct SharedState {
    std::mutex mu;
    std::condition_variable done;
    int64_t remaining;
    std::exception_ptr error;  // first exception wins, guarded by mu
  };
  SharedState state;
  state.remaining = strands;

  auto run_chunk = [&state, &fn, begin, range, strands](int64_t c) {
    const int64_t lo = begin + range * c / strands;
    const int64_t hi = begin + range * (c + 1) / strands;
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      fn(lo, hi, static_cast<int>(c));
    } catch (...) {
      std::lock_guard<std::mutex> lock(state.mu);
      if (!state.error) state.error = std::current_exception();
    }
    t_in_parallel_region = was_in_region;
    {
      // Notify under the lock: once the caller observes remaining == 0 it
      // may destroy `state`, so this must be the last touch.
      std::lock_guard<std::mutex> lock(state.mu);
      --state.remaining;
      state.done.notify_one();
    }
  };

  for (int64_t c = 1; c < strands; ++c) {
    pool.Schedule([&run_chunk, c] { run_chunk(c); });
  }
  run_chunk(0);
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.done.wait(lock, [&state] { return state.remaining == 0; });
    if (state.error) std::rethrow_exception(state.error);
  }
}

}  // namespace internal

ScopedSingleStrand::ScopedSingleStrand() : enclosing_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

ScopedSingleStrand::~ScopedSingleStrand() {
  t_in_parallel_region = enclosing_;
}

}  // namespace thali
