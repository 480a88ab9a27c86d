// Tests for the thread-pool parallelism substrate (base/thread_pool) and
// its determinism contract: every parallelized kernel must produce
// bitwise identical results at any THALI_NUM_THREADS, 1 included.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/cpu_features.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/trainer.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "data/food_classes.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "nn/network.h"
#include "nn/yolo_layer.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/gemm_pack.h"

namespace thali {
namespace {

// Every test leaves the global pool at parallelism 4 or restores 1; use a
// fixture so a failing test cannot leak an unexpected parallelism into
// the rest of the suite.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetMaxParallelism(1);
    internal::SetScalarKernelsForTesting(false);
  }
};

TEST_F(ParallelTest, ThreadPoolStartupShutdownRunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_workers(), 4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i) {
      pool.Schedule([&count, &done] {
        count.fetch_add(1);
        done.fetch_add(1);
      });
    }
    // Destructor must drain the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST_F(ParallelTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  int x = 0;
  pool.Schedule([&x] { x = 7; });
  EXPECT_EQ(x, 7);
}

TEST_F(ParallelTest, EmptyAndReversedRangesNeverInvoke) {
  SetMaxParallelism(4);
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](int64_t, int64_t, int) { calls.fetch_add(1); });
  ParallelFor(8, 3, 1, [&](int64_t, int64_t, int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  SetMaxParallelism(4);
  for (int64_t range : {1, 2, 3, 4, 5, 17, 100}) {
    for (int64_t grain : {1, 2, 7, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(range));
      for (auto& h : hits) h.store(0);
      ParallelFor(0, range, grain, [&](int64_t b, int64_t e, int tid) {
        EXPECT_GE(tid, 0);
        EXPECT_LT(tid, MaxParallelism());
        EXPECT_LE(b, e);
        for (int64_t i = b; i < e; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
      });
      for (int64_t i = 0; i < range; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "range=" << range << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST_F(ParallelTest, RangeSmallerThanThreadsUsesDistinctTids) {
  SetMaxParallelism(8);
  std::vector<std::atomic<int>> tid_hits(8);
  for (auto& h : tid_hits) h.store(0);
  ParallelFor(0, 3, 1, [&](int64_t b, int64_t e, int tid) {
    EXPECT_EQ(e - b, 1);  // 3 indices over >= 3 strands -> singleton chunks
    tid_hits[static_cast<size_t>(tid)].fetch_add(1);
  });
  EXPECT_EQ(tid_hits[0].load(), 1);
  EXPECT_EQ(tid_hits[1].load(), 1);
  EXPECT_EQ(tid_hits[2].load(), 1);
}

TEST_F(ParallelTest, GrainLargerThanRangeRunsInline) {
  SetMaxParallelism(4);
  int calls = 0;  // no atomic needed: must run on the calling thread only
  ParallelFor(0, 10, 64, [&](int64_t b, int64_t e, int tid) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 10);
    EXPECT_EQ(tid, 0);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, BoundedStrandsRespectCap) {
  SetMaxParallelism(8);
  ParallelForBounded(0, 100, 1, 2, [&](int64_t, int64_t, int tid) {
    EXPECT_LT(tid, 2);
  });
}

TEST_F(ParallelTest, ExceptionPropagatesFromWorkerChunk) {
  SetMaxParallelism(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](int64_t b, int64_t e, int) {
                    // Index 99 lives in the last chunk, executed by a
                    // worker (the caller runs chunk 0).
                    for (int64_t i = b; i < e; ++i) {
                      if (i == 99) throw std::runtime_error("boom");
                    }
                  }),
      std::runtime_error);
}

TEST_F(ParallelTest, ExceptionPropagatesFromCallerChunk) {
  SetMaxParallelism(4);
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [&](int64_t b, int64_t, int) {
                             if (b == 0) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineAndCovers) {
  SetMaxParallelism(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, 8, 1, [&](int64_t b0, int64_t e0, int) {
    for (int64_t i = b0; i < e0; ++i) {
      ParallelFor(0, 8, 1, [&](int64_t b1, int64_t e1, int tid) {
        EXPECT_EQ(tid, 0);  // nested regions must not re-parallelize
        for (int64_t j = b1; j < e1; ++j) {
          hits[static_cast<size_t>(i * 8 + j)].fetch_add(1);
        }
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- Strand caps of one (ScopedSingleStrand): what a one-group
// inference forward and the detector's one-group stages run under.

// How many distinct strands a region of `range` unit chunks runs on.
int StrandsUsed(int64_t range) {
  std::vector<std::atomic<int>> tid_hits(static_cast<size_t>(range));
  for (auto& h : tid_hits) h.store(0);
  ParallelFor(0, range, 1, [&](int64_t, int64_t, int tid) {
    tid_hits[static_cast<size_t>(tid)].fetch_add(1);
  });
  int used = 0;
  for (auto& h : tid_hits) used += h.load() > 0;
  return used;
}

TEST_F(ParallelTest, StrandCapOfOneRunsRegionInlineOnCaller) {
  SetMaxParallelism(4);
  const ScopedSingleStrand one_strand;
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;  // no atomic needed: must run on the calling thread only
  ParallelFor(0, 100, 1, [&](int64_t b, int64_t e, int tid) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, StrandCapsNestAndRestoreOnScopeExit) {
  SetMaxParallelism(4);
  ASSERT_EQ(StrandsUsed(8), 4);
  {
    const ScopedSingleStrand outer;
    EXPECT_EQ(StrandsUsed(8), 1);
    {
      const ScopedSingleStrand inner;
      EXPECT_EQ(StrandsUsed(8), 1);
    }
    // Closing the inner scope restores the outer one, not the uncapped
    // state.
    EXPECT_EQ(StrandsUsed(8), 1);
  }
  EXPECT_EQ(StrandsUsed(8), 4);
  // Inside a chunk, where regions already run inline, a scope's exit
  // leaves them inline.
  std::atomic<int> nested_strands{0};
  ParallelFor(0, 4, 1, [&](int64_t, int64_t, int) {
    { const ScopedSingleStrand one_strand; }
    nested_strands.fetch_add(StrandsUsed(8));
  });
  EXPECT_EQ(nested_strands.load(), 4);
  EXPECT_EQ(StrandsUsed(8), 4);
}

TEST_F(ParallelTest, StrandCapRestoresWhenAChunkThrows) {
  SetMaxParallelism(4);
  // The region runs inline under the scope and throws on the caller;
  // the exception unwinds through the scope.
  EXPECT_THROW(
      {
        const ScopedSingleStrand one_strand;
        ParallelFor(0, 100, 1, [&](int64_t, int64_t e, int) {
          if (e == 100) throw std::runtime_error("boom");
        });
      },
      std::runtime_error);
  EXPECT_EQ(StrandsUsed(8), 4);
  // A worker's chunk throws inside a scope of its own.
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [&](int64_t, int64_t e, int) {
                             const ScopedSingleStrand one_strand;
                             if (e == 100) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(StrandsUsed(8), 4);
}

TEST_F(ParallelTest, StrandCapDoesNotLimitOtherThreads) {
  SetMaxParallelism(4);
  const ScopedSingleStrand one_strand;
  int other = 0;
  std::thread t([&other] { other = StrandsUsed(8); });
  t.join();
  EXPECT_EQ(other, 4);
  EXPECT_EQ(StrandsUsed(8), 1);
}

// --- Determinism: threaded kernels must be bitwise identical to 1-thread.

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

TEST_F(ParallelTest, GemmBitwiseIdenticalAcrossThreadCounts) {
  // Odd sizes straddle the register-block boundaries.
  const int64_t m = 67, n = 129, kk = 65;
  const auto a = RandomVec(m * kk, 1), b = RandomVec(kk * n, 2);
  const auto at = RandomVec(kk * m, 3), bt = RandomVec(n * kk, 4);
  const auto c0 = RandomVec(m * n, 5);

  struct Case {
    bool ta, tb;
    const std::vector<float>*pa, *pb;
    int64_t lda, ldb;
    float alpha, beta;
  };
  const Case cases[] = {
      {false, false, &a, &b, kk, n, 1.0f, 0.0f},
      {false, false, &a, &b, kk, n, 0.7f, 1.0f},
      {true, false, &at, &b, m, n, 1.0f, 0.5f},
      {false, true, &a, &bt, kk, kk, 1.0f, 1.0f},
      {true, true, &at, &bt, m, kk, 0.3f, 0.0f},
  };
  for (const Case& cs : cases) {
    std::vector<float> c1 = c0, c4 = c0;
    SetMaxParallelism(1);
    Gemm(cs.ta, cs.tb, m, n, kk, cs.alpha, cs.pa->data(), cs.lda,
         cs.pb->data(), cs.ldb, cs.beta, c1.data(), n);
    SetMaxParallelism(4);
    Gemm(cs.ta, cs.tb, m, n, kk, cs.alpha, cs.pa->data(), cs.lda,
         cs.pb->data(), cs.ldb, cs.beta, c4.data(), n);
    EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0)
        << "ta=" << cs.ta << " tb=" << cs.tb;
  }
}

TEST_F(ParallelTest, PackedGemmBitwiseIdenticalAcrossThreadsAndPaths) {
  // Sizes straddle every cache block (MC=120, NC=512, KC=256). The packed
  // driver at any thread count, from a prepacked A or packing A per
  // call, must match the sequential oracle bitwise.
  const int64_t m = 131, n = 531, kk = 307;
  const auto a = RandomVec(m * kk, 21), b = RandomVec(kk * n, 22);
  const auto c0 = RandomVec(m * n, 23);

  std::vector<float> c_ref = c0;
  internal::GemmReference(false, false, m, n, kk, 1.0f, a.data(), kk,
                          b.data(), n, 0.5f, c_ref.data(), n);
  std::vector<float> packed(static_cast<size_t>(GemmPackedWeightFloats(m, kk)));
  GemmPackWeights(a.data(), m, kk, packed.data());

  for (const int threads : {1, 2, 4}) {
    SetMaxParallelism(threads);
    std::vector<float> c = c0;
    Gemm(false, false, m, n, kk, 1.0f, a.data(), kk, b.data(), n, 0.5f,
         c.data(), n);
    EXPECT_EQ(std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(float)),
              0)
        << "threads=" << threads;
    std::vector<float> cp = c0;
    GemmPrepacked(m, n, kk, packed.data(), b.data(), n, 0.5f, cp.data(), n);
    EXPECT_EQ(std::memcmp(cp.data(), c_ref.data(), cp.size() * sizeof(float)),
              0)
        << "prepacked threads=" << threads;
  }
}

// Which yolov4-thali network ThaliInferenceForward runs: the fused
// inference plan (prepacked weights; bias and activation fused into the
// GEMM write-back once batch norm is folded), or a kTraining network
// forward with train=false — the reference every fused-plan test
// compares against (GEMMs pack the live weights per call, bias and
// activation as separate passes).
enum class ThaliRun { kFused, kTraining };

// Full yolov4-thali forward at `batch`, every batch item a distinct
// input; returns the detection-head activations flattened for bitwise
// comparison. `fold_bn` folds batch norm into weights/biases first,
// which routes every inference conv through the fused bias+activation
// GEMM epilogue. An inference plan fans out only across batch items, so
// its cross-thread pins need batch > 1 to compare split runs at all.
std::vector<float> ThaliInferenceForward(int threads, ThaliRun run,
                                         bool fold_bn, int batch = 1) {
  SetMaxParallelism(threads);
  YoloThaliOptions yo;
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(
      YoloThaliCfg(yo), batch, rng,
      run == ThaliRun::kTraining ? ExecMode::kTraining : ExecMode::kInference);
  THALI_CHECK_OK(built.status());
  Network& net = *built->net;
  if (fold_bn) {
    for (int i = 0; i < net.num_layers(); ++i) {
      if (std::string_view(net.layer(i).kind()) == "convolutional") {
        static_cast<ConvLayer&>(net.layer(i)).FoldBatchNorm();
      }
    }
  }
  Tensor input(net.input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  net.Forward(input, /*train=*/false);
  std::vector<float> flat;
  for (YoloLayer* head : built->yolo_layers) {
    const Tensor& out = head->output();
    flat.insert(flat.end(), out.data(), out.data() + out.size());
  }
  return flat;
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_FALSE(want.empty()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

TEST_F(ParallelTest, ThaliInferenceBitwiseIdenticalAcrossThreadsAndPacking) {
  // The fused plan at any thread count: batch 1 is one item group;
  // batch 3 splits into groups of 1 and 2 at two strands and into three
  // groups at four; batches 4 and 8 split evenly. Every group count
  // gives the one-strand bytes.
  for (const int batch : {1, 3, 4, 8}) {
    const std::vector<float> base =
        ThaliInferenceForward(1, ThaliRun::kFused, false, batch);
    for (const int threads : {2, 4}) {
      ExpectSameBits(
          ThaliInferenceForward(threads, ThaliRun::kFused, false, batch), base,
          "fused threads=" + std::to_string(threads) +
              " batch=" + std::to_string(batch));
    }
  }
  // ...and so is the training network every fused-plan test uses as its
  // reference, whose GEMMs pack the live weights per call. (Prepacked
  // against per-call packing, layer by layer on the real geometries, is
  // ArenaPlanTest.FullModelArenaMatchesSeedAllocatorBitwise.)
  ExpectSameBits(ThaliInferenceForward(4, ThaliRun::kTraining, false),
                 ThaliInferenceForward(1, ThaliRun::kTraining, false),
                 "training threads=4");
}

TEST_F(ParallelTest, FoldedThaliInferenceBitwiseIdenticalWithFusedEpilogue) {
  // Folded batch norm makes every conv eligible for the fused
  // bias+activation write-back. The fused plan stays bitwise stable
  // across thread counts and item groups, and so does the folded
  // training network's staged passes (per-call packing, separate bias
  // and activation). The epilogue against the staged passes, per exact
  // layer, is ArenaPlanTest.FullModelArenaMatchesSeedAllocatorBitwise.
  for (const int batch : {1, 3, 4, 8}) {
    const std::vector<float> base =
        ThaliInferenceForward(1, ThaliRun::kFused, true, batch);
    for (const int threads : {2, 4}) {
      ExpectSameBits(
          ThaliInferenceForward(threads, ThaliRun::kFused, true, batch), base,
          "fused threads=" + std::to_string(threads) +
              " batch=" + std::to_string(batch));
    }
  }
  ExpectSameBits(ThaliInferenceForward(4, ThaliRun::kTraining, true),
                 ThaliInferenceForward(1, ThaliRun::kTraining, true),
                 "training threads=4");
}

// --- How a grouped forward schedules its item groups: groups queued
// behind busy pool workers, several groups on one strand, and a layer
// that throws in one group.

// Copies its input through, item by item, and records the threads that
// ran its item groups; throws for the group holding item `throw_item`
// (never when -1). An unknown kind, so the plan keeps it NCHW.
class ProbeLayer : public Layer {
 public:
  const char* kind() const override { return "probe"; }
  Status Configure(const Shape& input_shape, const Network&) override {
    return SetShapes(input_shape, input_shape);
  }
  void Forward(const Tensor& input, Network&, bool,
               const ItemRange& items) override {
    if (items.begin <= throw_item_ && throw_item_ < items.end) {
      throw std::runtime_error("probe");
    }
    const int64_t per_item = in_shape_.num_elements() / in_shape_.dim(0);
    std::copy_n(input.data() + items.begin * per_item,
                items.size() * per_item,
                output_.data() + items.begin * per_item);
    const std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
    items_done_ += items.size();
    passed_.notify_all();
  }
  void Backward(const Tensor&, Tensor*, Network&) override {}

  void set_throw_item(int64_t item) { throw_item_ = item; }
  // True once `items` items passed through, false after `timeout`.
  bool AwaitItems(int64_t items, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return passed_.wait_for(lock, timeout,
                            [&] { return items_done_ >= items; });
  }
  std::set<std::thread::id> threads() {
    const std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  int64_t throw_item_ = -1;
  std::mutex mu_;
  std::condition_variable passed_;
  std::set<std::thread::id> threads_;
  int64_t items_done_ = 0;
};

// A small inference net at `batch` on the current parallelism, seeded
// weights, with a probe in the middle (layer 3) and one at the end:
//
//   0 conv8 3x3 - 1 conv8 1x1 - 2 conv8 3x3 - 3 probe - 4 conv8 3x3
//   - 5 conv8 1x1 - 6 conv4 3x3 - 7 probe
//
// The arena reuses expired blocks after the middle probe, so groups wait
// for each other at fences there.
std::unique_ptr<Network> BuildProbeNet(int batch) {
  auto net = std::make_unique<Network>(16, 16, 3, batch);
  auto conv = [](int filters, int k) {
    ConvLayer::Options o;
    o.filters = filters;
    o.ksize = k;
    o.pad = k / 2;
    return std::make_unique<ConvLayer>(o);
  };
  net->Add(conv(8, 3));
  net->Add(conv(8, 1));
  net->Add(conv(8, 3));
  net->Add(std::make_unique<ProbeLayer>());
  net->Add(conv(8, 3));
  net->Add(conv(8, 1));
  net->Add(conv(4, 3));
  net->Add(std::make_unique<ProbeLayer>());
  THALI_CHECK_OK(net->Finalize(ExecMode::kInference));
  Rng rng(1234);
  for (int i = 0; i < net->num_layers(); ++i) {
    if (std::string_view(net->layer(i).kind()) == "convolutional") {
      static_cast<ConvLayer&>(net->layer(i)).InitWeights(rng);
    }
  }
  return net;
}

ProbeLayer& Probe(Network& net, int i) {
  return static_cast<ProbeLayer&>(net.layer(i));
}

Tensor ProbeInput(const Network& net) {
  Tensor input(net.input_shape());
  Rng rng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  return input;
}

// The one-strand bytes of the probe net's output at `batch`.
std::vector<float> ProbeNetOneStrand(int batch) {
  SetMaxParallelism(1);
  auto net = BuildProbeNet(batch);
  const Tensor& out = net->Forward(ProbeInput(*net));
  return std::vector<float>(out.data(), out.data() + out.size());
}

std::vector<float> Flat(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

// Occupies every pool worker until Release(): a region started from a
// thread of its own, whose worker chunks block, so chunks other threads
// schedule queue behind them.
class BusyPool {
 public:
  explicit BusyPool(int parallelism) {
    thread_ = std::thread([this, parallelism] {
      ParallelFor(0, parallelism, 1, [this](int64_t, int64_t, int tid) {
        if (tid == 0) return;
        std::unique_lock<std::mutex> lock(mu_);
        ++blocked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      });
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ == parallelism - 1; });
  }
  ~BusyPool() {
    Release();
    thread_.join();
  }

  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;
  bool released_ = false;
  std::thread thread_;
};

TEST_F(ParallelTest, GroupsQueuedBehindBusyWorkersRunOnTheWaitingStrand) {
  // With every worker busy, the groups' chunks cannot start: the caller
  // adopts each group at a fence and runs all of them. The workers are
  // released only once every item left the last layer, so the forward
  // finishing at all shows the adoption, and the probe shows where the
  // groups ran.
  const std::thread::id caller = std::this_thread::get_id();
  for (const int batch : {4, 8}) {
    const std::vector<float> want = ProbeNetOneStrand(batch);
    for (const int threads : {2, 4}) {
      SetMaxParallelism(threads);
      auto net = BuildProbeNet(batch);
      ASSERT_EQ(net->exec_plan().groups, threads);
      const Tensor input = ProbeInput(*net);
      ProbeLayer& last = Probe(*net, 7);
      bool all_items_passed = false;
      {
        BusyPool busy(threads);
        std::thread releaser([&] {
          all_items_passed = last.AwaitItems(batch, std::chrono::seconds(60));
          busy.Release();
        });
        net->Forward(input);
        releaser.join();
      }
      const std::string what = "threads=" + std::to_string(threads) +
                               " batch=" + std::to_string(batch);
      EXPECT_TRUE(all_items_passed) << what;
      EXPECT_EQ(last.threads(), std::set<std::thread::id>{caller}) << what;
      ExpectSameBits(Flat(net->layer(7).output()), want, what);
    }
  }
}

TEST_F(ParallelTest, ForwardInsideAChunkRunsEveryGroupInLockstep) {
  // A forward started inside a ParallelFor chunk (a server worker's
  // request, say) cannot fan out: one strand holds every group and runs
  // them a layer each in turn, which the fences must not block.
  for (const int batch : {4, 8}) {
    const std::vector<float> want = ProbeNetOneStrand(batch);
    for (const int threads : {2, 4}) {
      SetMaxParallelism(threads);
      auto net = BuildProbeNet(batch);
      ASSERT_EQ(net->exec_plan().groups, threads);
      const Tensor input = ProbeInput(*net);
      std::thread::id ran_on;
      ParallelFor(0, threads, 1, [&](int64_t, int64_t, int tid) {
        if (tid != 0) return;
        ran_on = std::this_thread::get_id();
        net->Forward(input);
      });
      const std::string what = "threads=" + std::to_string(threads) +
                               " batch=" + std::to_string(batch);
      EXPECT_EQ(Probe(*net, 7).threads(), std::set<std::thread::id>{ran_on})
          << what;
      ExpectSameBits(Flat(net->layer(7).output()), want, what);
    }
  }
}

TEST_F(ParallelTest, ALayerThrowingInOneGroupStopsEveryGroupAndRethrows) {
  // The group that throws never reaches the fences after the middle
  // probe; the other groups stop there instead of waiting for it, and
  // Forward rethrows. The next forward runs normally.
  const std::vector<float> want = ProbeNetOneStrand(8);
  for (const int threads : {2, 4}) {
    SetMaxParallelism(threads);
    auto net = BuildProbeNet(8);
    int fences_after_throw = 0;
    for (int i = 4; i < net->num_layers(); ++i) {
      fences_after_throw +=
          net->exec_plan().arena.assignments[static_cast<size_t>(i)].fence > 0;
    }
    ASSERT_GT(fences_after_throw, 0);
    const Tensor input = ProbeInput(*net);
    // The caller's group (item 0), then the last group (item 7).
    for (const int64_t item : {0, 7}) {
      const std::string what = "threads=" + std::to_string(threads) +
                               " item=" + std::to_string(item);
      Probe(*net, 3).set_throw_item(item);
      EXPECT_THROW(net->Forward(input), std::runtime_error) << what;
      Probe(*net, 3).set_throw_item(-1);
      ExpectSameBits(Flat(net->Forward(input)), want, what);
    }
  }
}

// Full yolov4-thali int8 inference: builds, folds batch norm,
// min/max-calibrates every quantizable conv on the test input, replans
// so the quantize-once chains arm, then forwards through a
// SetBatch(1 -> 4 -> 3 -> 8 -> 1) cycle with every kernel family forced
// scalar or automatically selected. Each batch carries distinct items
// (the test input first), so batches above 1 split into item groups
// across strands. Returns the head activations of the five forwards
// flattened for bitwise comparison.
std::vector<float> ThaliInt8Forward(int threads, bool scalar) {
  SetMaxParallelism(threads);
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  THALI_CHECK_OK(built.status());
  Network& net = *built->net;
  for (int i = 0; i < net.num_layers(); ++i) {
    if (std::string_view(net.layer(i).kind()) == "convolutional") {
      static_cast<ConvLayer&>(net.layer(i)).FoldBatchNorm();
    }
  }
  Tensor input(net.input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();

  net.set_calib_phase(CalibPhase::kRange);
  Tensor calib = input;
  net.Forward(calib, /*train=*/false);
  net.set_calib_phase(CalibPhase::kOff);
  for (int i = 0; i < net.num_layers(); ++i) {
    Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    if (!l.plan().quantizable) continue;
    static_cast<ConvLayer&>(l).FinalizeCalibration(100.0);
  }
  // Arms the quantized algorithms and the quantize-once chains (u8
  // edges, int8 1x1, fused mish requantize) so the thread x kernel
  // matrix exercises the chained forward, not just per-layer
  // quantization.
  THALI_CHECK_OK(net.ReplanInference());

  std::vector<float> flat;
  const auto append_heads = [&] {
    for (YoloLayer* head : built->yolo_layers) {
      const Tensor& out = head->output();
      flat.insert(flat.end(), out.data(), out.data() + out.size());
    }
  };
  internal::SetScalarKernelsForTesting(scalar);
  Tensor first = input;
  net.Forward(first, /*train=*/false);
  append_heads();
  for (const int batch : {4, 3, 8}) {
    THALI_CHECK_OK(net.SetBatch(batch));
    Tensor batched(net.input_shape());
    std::copy(input.data(), input.data() + input.size(), batched.data());
    for (int64_t i = input.size(); i < batched.size(); ++i) {
      batched[i] = irng.NextGaussian();
    }
    net.Forward(batched, /*train=*/false);
    append_heads();
  }
  THALI_CHECK_OK(net.SetBatch(1));
  Tensor again = input;
  net.Forward(again, /*train=*/false);
  append_heads();
  internal::SetScalarKernelsForTesting(false);
  return flat;
}

TEST_F(ParallelTest, Int8InferenceBitwiseIdenticalAcrossThreadsAndKernels) {
  // The quantized forward must be bitwise stable across thread counts,
  // kernel families, and batch re-planning — exact integer accumulation
  // plus the shared scalar requantize epilogue make this a hard
  // equality. The batch-3, -4 and -8 heads compare runs whose items
  // split into 1, 2 and 3 or 4 item groups.
  const std::vector<float> base = ThaliInt8Forward(1, /*scalar=*/true);
  ASSERT_FALSE(base.empty());
  for (const bool scalar : {true, false}) {
    for (const int threads : {1, 2, 4}) {
      if (scalar && threads == 1) continue;
      const std::vector<float> got = ThaliInt8Forward(threads, scalar);
      ASSERT_EQ(got.size(), base.size());
      EXPECT_EQ(
          std::memcmp(got.data(), base.data(), got.size() * sizeof(float)), 0)
          << "scalar=" << scalar << " threads=" << threads;
    }
  }
}

// Conformance sweep over every conv shape in yolov4-thali: the fused
// plan (prepacked direct 1x1 and im2col 3x3, fast mish) must land
// within the documented 1e-4 + 1e-3*|ref| envelope of a training
// network's reference im2col path at *every conv layer's output*, not
// just the heads — so a drifting kernel is pinned to its layer, and
// every one of the model's distinct (C,F,k,s,HxW) conv geometries gets
// exercised. Both networks run layer by layer, as Network::Forward
// does, and each conv output is copied out right away: the fused
// network's later layers reuse its arena storage.
TEST_F(ParallelTest, FusedConvSweepMatchesReferencePlanPerLayer) {
  SetMaxParallelism(4);
  auto build = [](ExecMode mode) {
    Rng rng(4242);
    auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                     /*batch_override=*/1, rng, mode);
    THALI_CHECK_OK(built.status());
    return std::move(built).value();
  };
  BuiltNetwork ref = build(ExecMode::kTraining);
  BuiltNetwork fused = build(ExecMode::kInference);
  ASSERT_FALSE(ref.net->exec_plan().fused);
  ASSERT_TRUE(fused.net->exec_plan().fused);

  Tensor input(ref.net->input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  const auto conv_outputs = [&input](Network& net) {
    std::vector<std::vector<float>> outs(
        static_cast<size_t>(net.num_layers()));
    const Tensor* x = &input;
    for (int li = 0; li < net.num_layers(); ++li) {
      Layer& layer = net.layer(li);
      layer.BeginForward(net, /*train=*/false);
      layer.Forward(*x, net, /*train=*/false, ItemRange{0, net.batch(), 0});
      if (std::string_view(layer.kind()) == "convolutional") {
        const Tensor& out = layer.output();
        outs[static_cast<size_t>(li)].assign(out.data(),
                                             out.data() + out.size());
      }
      x = &layer.output();
    }
    return outs;
  };
  const std::vector<std::vector<float>> ref_out = conv_outputs(*ref.net);
  const std::vector<std::vector<float>> fused_out = conv_outputs(*fused.net);

  std::set<std::string> shapes;
  for (int li = 0; li < ref.net->num_layers(); ++li) {
    if (std::string_view(ref.net->layer(li).kind()) != "convolutional") {
      continue;
    }
    const auto& conv = static_cast<const ConvLayer&>(ref.net->layer(li));
    const ConvLayer::Options& o = conv.options();
    const Shape& in = conv.input_shape();
    shapes.insert(std::to_string(in.dim(1)) + ">" +
                  std::to_string(o.filters) + "k" + std::to_string(o.ksize) +
                  "s" + std::to_string(o.stride) + "@" +
                  std::to_string(in.dim(2)) + "x" + std::to_string(in.dim(3)));
    const std::vector<float>& a = ref_out[static_cast<size_t>(li)];
    const std::vector<float>& b = fused_out[static_cast<size_t>(li)];
    ASSERT_EQ(a.size(), b.size()) << "layer " << li;
    ASSERT_FALSE(a.empty()) << "layer " << li;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-4f + 1e-3f * std::abs(a[i]))
          << "conv layer " << li << " ("
          << (conv.IsDirect1x1() ? "direct1x1" : "im2col") << ") at " << i;
    }
  }
  // yolov4-thali spans 22 distinct conv geometries; the sweep must not
  // silently shrink if the cfg generator changes.
  EXPECT_EQ(shapes.size(), 22u);
}

// One forward(train) + seeded backward on a fresh conv net; returns
// (output, weight grads, bias grads, input-adjacent delta... ) flattened
// for bitwise comparison.
std::vector<float> ConvRoundTrip(const ConvLayer::Options& copts, int batch,
                                 int in_c, int hw) {
  Network net(hw, hw, in_c, batch);
  net.Add(std::make_unique<ConvLayer>(ConvLayer::Options{copts}));
  net.Add(std::make_unique<ConvLayer>(ConvLayer::Options{copts}));
  THALI_CHECK_OK(net.Finalize());
  Rng wrng(99);
  static_cast<ConvLayer&>(net.layer(0)).InitWeights(wrng);
  static_cast<ConvLayer&>(net.layer(1)).InitWeights(wrng);

  Tensor input(net.input_shape());
  Rng irng(7);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();

  net.ZeroDeltas();
  net.ZeroGrads();
  const Tensor& out = net.Forward(input, /*train=*/true);
  Tensor& last_delta = net.layer(1).delta();
  for (int64_t i = 0; i < last_delta.size(); ++i) {
    last_delta[i] = 0.01f * static_cast<float>(i % 13) - 0.06f;
  }
  net.Backward(input);

  std::vector<float> flat(out.data(), out.data() + out.size());
  for (int li = 0; li < net.num_layers(); ++li) {
    for (const Param& p : net.layer(li).Params()) {
      flat.insert(flat.end(), p.grad->data(), p.grad->data() + p.grad->size());
    }
    const Tensor& d = net.layer(li).delta();
    flat.insert(flat.end(), d.data(), d.data() + d.size());
  }
  return flat;
}

TEST_F(ParallelTest, ConvForwardBackwardBitwiseIdenticalAcrossThreadCounts) {
  ConvLayer::Options bn_conv;
  bn_conv.filters = 6;
  bn_conv.ksize = 3;
  bn_conv.stride = 1;
  bn_conv.pad = 1;
  bn_conv.batch_normalize = true;
  bn_conv.activation = Activation::kMish;

  ConvLayer::Options one_by_one;
  one_by_one.filters = 5;
  one_by_one.ksize = 1;
  one_by_one.stride = 1;
  one_by_one.pad = 0;
  one_by_one.batch_normalize = false;
  one_by_one.activation = Activation::kLeaky;

  for (const auto& copts : {bn_conv, one_by_one}) {
    SetMaxParallelism(1);
    const std::vector<float> r1 = ConvRoundTrip(copts, 3, 4, 13);
    SetMaxParallelism(4);
    const std::vector<float> r4 = ConvRoundTrip(copts, 3, 4, 13);
    ASSERT_EQ(r1.size(), r4.size());
    EXPECT_EQ(std::memcmp(r1.data(), r4.data(), r1.size() * sizeof(float)), 0)
        << "ksize=" << copts.ksize;
  }
}

struct TrainRun {
  std::vector<double> losses;
  float map = 0.0f;
  std::vector<ImageEval> evals;
};

TrainRun RunTinyTraining(int parallelism) {
  SetMaxParallelism(parallelism);

  DatasetSpec spec;
  spec.num_images = 10;
  spec.seed = 321;
  FoodDataset ds = FoodDataset::Generate(IndianFood10(), spec);

  YoloThaliOptions yo;
  yo.classes = 10;
  yo.batch = 2;
  yo.max_batches = 3;
  yo.burn_in = 2;
  yo.mosaic = true;  // exercise the parallel mosaic path
  TransferTrainer::Options topts;
  topts.cfg_text = YoloThaliCfg(yo);
  topts.log_every = 0;

  auto trainer = TransferTrainer::Create(topts);
  THALI_CHECK_OK(trainer.status());
  TrainRun run;
  THALI_CHECK_OK(trainer->Train(ds, /*iterations=*/3, /*checkpoint_every=*/1,
                                [&](int) {
                                  run.losses.push_back(
                                      trainer->last_loss().total);
                                }));
  run.map = trainer->Evaluate(ds, ds.val_indices()).map;
  run.evals = CollectImageEvals(trainer->network(), trainer->heads(), ds,
                                ds.val_indices(), 0.005f, 0.45f);
  return run;
}

TEST_F(ParallelTest, ThreeIterationTrainingBitwiseIdenticalAcrossThreadCounts) {
  const TrainRun r1 = RunTinyTraining(1);
  const TrainRun r4 = RunTinyTraining(4);

  ASSERT_EQ(r1.losses.size(), 3u);
  ASSERT_EQ(r4.losses.size(), 3u);
  for (size_t i = 0; i < r1.losses.size(); ++i) {
    EXPECT_EQ(r1.losses[i], r4.losses[i]) << "iteration " << i + 1;
  }
  EXPECT_EQ(r1.map, r4.map);

  ASSERT_EQ(r1.evals.size(), r4.evals.size());
  for (size_t i = 0; i < r1.evals.size(); ++i) {
    const auto& d1 = r1.evals[i].detections;
    const auto& d4 = r4.evals[i].detections;
    ASSERT_EQ(d1.size(), d4.size()) << "image " << i;
    for (size_t j = 0; j < d1.size(); ++j) {
      EXPECT_EQ(d1[j].class_id, d4[j].class_id);
      EXPECT_EQ(d1[j].confidence, d4[j].confidence);
      EXPECT_EQ(d1[j].box.x, d4[j].box.x);
      EXPECT_EQ(d1[j].box.y, d4[j].box.y);
      EXPECT_EQ(d1[j].box.w, d4[j].box.w);
      EXPECT_EQ(d1[j].box.h, d4[j].box.h);
    }
  }
}

TEST_F(ParallelTest, DatasetGenerationBitwiseIdenticalAcrossThreadCounts) {
  DatasetSpec spec;
  spec.num_images = 14;
  spec.seed = 555;
  SetMaxParallelism(1);
  FoodDataset a = FoodDataset::Generate(IndianFood10(), spec);
  SetMaxParallelism(4);
  FoodDataset b = FoodDataset::Generate(IndianFood10(), spec);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.item(i).truths.size(), b.item(i).truths.size()) << i;
    ASSERT_EQ(a.item(i).image.size(), b.item(i).image.size());
    EXPECT_EQ(std::memcmp(a.item(i).image.data(), b.item(i).image.data(),
                          static_cast<size_t>(a.item(i).image.size()) *
                              sizeof(float)),
              0)
        << "image " << i;
  }
}

}  // namespace
}  // namespace thali
