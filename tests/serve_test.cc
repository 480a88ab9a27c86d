// Tests for the in-process serving subsystem (src/serve): two-lane queue
// backpressure, micro-batch formation (linger vs full batch), deadline
// expiry while queued, drain-on-shutdown, metrics accounting, and bitwise
// identity between served results and direct DetectBatch calls. The
// threaded tests carry the tsan_smoke/serve_smoke labels and run under
// -DTHALI_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/detector.h"
#include "darknet/model_zoo.h"
#include "darknet/weights_io.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/server.h"

namespace thali {
namespace serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;

constexpr auto kNoDeadline = ServeClock::time_point::max();

Detector MakeDetector(uint64_t seed = 7) {
  auto det = Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}), seed);
  THALI_CHECK(det.ok()) << det.status().ToString();
  return std::move(det).value();
}

Server::DetectorFactory StandardFactory(uint64_t seed = 7) {
  return [seed]() { return Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}), seed); };
}

// Renders n platter images at the network input size (96x96), so the
// served path and the direct path see identical tensors (no letterbox).
std::vector<Image> RenderImages(int n, uint64_t seed = 11) {
  PlatterRenderer renderer(IndianFood10(), PlatterRenderer::Options{});
  Rng rng(seed);
  std::vector<Image> images;
  images.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    images.push_back(renderer.RenderRandomPlatter(2 + i % 3, rng).image);
  }
  return images;
}

RequestPtr MakeRequest(Image image,
                       ServeClock::time_point deadline = kNoDeadline) {
  auto req = std::make_unique<Request>();
  auto owner = std::make_shared<const Image>(std::move(image));
  req->image = *owner;
  req->pixel_owner = std::move(owner);
  req->submit_time = ServeClock::now();
  req->deadline = deadline;
  return req;
}

void ExpectSameDetections(const std::vector<Detection>& a,
                          const std::vector<Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_id, b[i].class_id);
    EXPECT_EQ(a[i].confidence, b[i].confidence);  // bitwise, not NEAR
    EXPECT_EQ(a[i].box.x, b[i].box.x);
    EXPECT_EQ(a[i].box.y, b[i].box.y);
    EXPECT_EQ(a[i].box.w, b[i].box.w);
    EXPECT_EQ(a[i].box.h, b[i].box.h);
  }
}

// ----------------------------------------------------------- lane queue --

TEST(LaneQueueTest, InteractiveFirstWithBoundedBatchConcession) {
  LaneQueue<int> q(8, 8);
  // 4 batch items queued first, then 4 interactive.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPush(100 + i, Priority::kBatch).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPush(i, Priority::kInteractive).ok());
  }
  // Strict priority would starve batch; the anti-starvation rule lets the
  // batch lane go first on every 4th pop: I I I B I B B B.
  std::vector<int> order;
  int v;
  while (q.PopWait(&v, milliseconds(0))) order.push_back(v);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100, 3, 101, 102, 103}));
}

TEST(LaneQueueTest, LaneCapacitiesAreIndependent) {
  LaneQueue<int> q(1, 2);
  EXPECT_EQ(q.Capacity(Priority::kInteractive), 1u);
  EXPECT_EQ(q.Capacity(Priority::kBatch), 2u);
  EXPECT_EQ(q.Capacity(), 3u);

  EXPECT_TRUE(q.TryPush(1, Priority::kInteractive).ok());
  EXPECT_EQ(q.TryPush(2, Priority::kInteractive).code(),
            StatusCode::kResourceExhausted);
  // The full interactive lane does not consume batch slots.
  EXPECT_TRUE(q.TryPush(3, Priority::kBatch).ok());
  EXPECT_TRUE(q.TryPush(4, Priority::kBatch).ok());
  EXPECT_EQ(q.TryPush(5, Priority::kBatch).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(q.Depth(Priority::kInteractive), 1u);
  EXPECT_EQ(q.Depth(Priority::kBatch), 2u);
  EXPECT_EQ(q.Depth(), 3u);

  // A pop frees a slot in the lane it drained.
  int v = 0;
  ASSERT_TRUE(q.PopWait(&v, milliseconds(0)));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.TryPush(6, Priority::kInteractive).ok());
}

TEST(LaneQueueTest, CloseDrainsBothLanesThenReportsClosed) {
  LaneQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1, Priority::kInteractive).ok());
  EXPECT_TRUE(q.TryPush(2, Priority::kBatch).ok());
  q.Close();
  EXPECT_EQ(q.TryPush(3).code(), StatusCode::kFailedPrecondition);

  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));  // closed and drained: no blocking
}

TEST(LaneQueueTest, CloseUnblocksWaitingConsumers) {
  LaneQueue<int> q(1);
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&q, &woke] {
      int v;
      EXPECT_FALSE(q.Pop(&v));
      woke.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(milliseconds(10));
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), 3);
}

TEST(LaneQueueTest, PopWaitTimesOutOnEmptyOpenQueue) {
  LaneQueue<int> q(1);
  int v = 0;
  EXPECT_FALSE(q.PopWait(&v, milliseconds(5)));
  EXPECT_FALSE(q.closed());
}

// TSan target: Depth() raced against live pushes and pops on both lanes
// must only ever see values inside [0, capacity] (snapshot semantics, no
// torn state).
TEST(LaneQueueTest, DepthStaysWithinCapacityUnderConcurrentTraffic) {
  constexpr int kPerProducer = 400;
  LaneQueue<int> q(4, 4);
  EXPECT_EQ(q.Capacity(), 8u);

  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (const Priority lane : {Priority::kInteractive, Priority::kBatch}) {
    threads.emplace_back([&q, lane] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.TryPush(i, lane).ok()) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&q, &popped] {
      int v;
      while (q.Pop(&v)) popped.fetch_add(1);
    });
  }
  // The observer hammers Depth() while both sides run.
  std::thread observer([&q] {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_LE(q.Depth(), q.Capacity());
      ASSERT_LE(q.Depth(Priority::kInteractive),
                q.Capacity(Priority::kInteractive));
      ASSERT_LE(q.Depth(Priority::kBatch), q.Capacity(Priority::kBatch));
    }
  });
  observer.join();
  threads[0].join();
  threads[1].join();
  q.Close();
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(popped.load(), 2 * kPerProducer);
  EXPECT_EQ(q.Depth(), 0u);
}

// ------------------------------------------------------------ histogram --

TEST(LatencyHistogramTest, PercentilesTrackExactWithinBucketResolution) {
  LatencyHistogram hist;
  std::vector<double> samples;
  double v = 0.05;
  for (int i = 0; i < 100; ++i) {
    samples.push_back(v);
    hist.Record(v);
    v *= 1.07;
  }
  EXPECT_EQ(hist.count(), 100);
  // Bucket bounds are a factor of 1.5 apart and adjacent samples a factor
  // of 1.07, so the histogram estimate can drift from the exact
  // rank-interpolated percentile by at most ~1.62x.
  for (double p : {50.0, 95.0, 99.0}) {
    const double exact = bench::Percentile(samples, p);
    const double est = hist.PercentileMs(p);
    EXPECT_LE(est, exact * 1.75) << "p" << p;
    EXPECT_GE(est, exact / 1.75) << "p" << p;
  }
  const double exact_mean =
      bench::Summarize(samples).mean_ms;
  EXPECT_NEAR(hist.MeanMs(), exact_mean, exact_mean * 0.01 + 0.002);

  hist.Reset();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.PercentileMs(99), 0.0);
}

TEST(LatencyHistogramTest, OverflowSamplesLandInLastBucket) {
  LatencyHistogram hist;
  hist.Record(1e9);  // way past the last bound
  EXPECT_EQ(hist.count(), 1);
  EXPECT_GE(hist.PercentileMs(50),
            LatencyHistogram::BucketUpperMs(LatencyHistogram::kNumBuckets - 1));
}

TEST(ServerMetricsTest, TableContainsCountersAndStages) {
  ServerMetrics m;
  m.submitted.store(5);
  m.completed.store(3);
  m.rejected.store(1);
  m.timed_out.store(1);
  m.batches.store(2);
  m.batched_images.store(3);
  m.e2e_ms.Record(1.0);
  const std::string table = m.ToString();
  EXPECT_NE(table.find("submitted"), std::string::npos);
  EXPECT_NE(table.find("queue wait"), std::string::npos);
  EXPECT_NE(table.find("end to end"), std::string::npos);
  EXPECT_NE(table.find("1.50"), std::string::npos);  // avg batch 3/2
}

TEST(ServerMetricsTest, SnapshotExportsCountersWithoutTableParsing) {
  ServerMetrics m;
  m.submitted.store(7);
  m.completed.store(4);
  m.rejected.store(2);
  m.timed_out.store(1);
  m.shed_pressure.store(2);
  m.weight_reloads.store(3);
  m.batches.store(2);
  m.batched_images.store(4);
  for (int i = 0; i < 100; ++i) m.queue_wait_ms.Record(2.0);
  m.ForClass(Priority::kInteractive).submitted.store(5);
  m.ForClass(Priority::kInteractive).completed_e2e_ms.Record(4.0);
  m.ForClass(Priority::kBatch).shed.store(2);

  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.submitted, 7);
  EXPECT_EQ(s.completed, 4);
  EXPECT_EQ(s.rejected, 2);
  EXPECT_EQ(s.timed_out, 1);
  EXPECT_EQ(s.shed_pressure, 2);
  EXPECT_EQ(s.shed_deadline, 0);
  EXPECT_EQ(s.weight_reloads, 3);
  EXPECT_DOUBLE_EQ(s.mean_batch, 2.0);
  EXPECT_EQ(s.queue_wait.count, 100);
  // Every p2.0 sample lands in one bucket; the interpolated percentiles
  // stay within that bucket's bounds.
  EXPECT_GT(s.queue_wait.p95_ms, 0.0);
  EXPECT_EQ(s.interactive.submitted, 5);
  EXPECT_EQ(s.interactive.completed_e2e.count, 1);
  EXPECT_EQ(s.batch.shed, 2);

  const std::string json = s.ToJson();
  for (const char* key :
       {"\"submitted\"", "\"shed_pressure\"", "\"queue_wait\"", "\"p99_ms\"",
        "\"interactive\"", "\"batch\"", "\"weight_reloads\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// -------------------------------------------------------------- batcher --

TEST(BatcherTest, FullBatchFormsWithoutWaitingForLinger) {
  RequestQueue queue(16);
  ServerMetrics metrics;
  // A long linger that would dominate the test if the batcher waited for
  // it despite having a full batch available.
  Batcher batcher(&queue, Batcher::Options{4, microseconds(10'000'000)},
                  &metrics);
  std::vector<Image> images = RenderImages(6);
  for (Image& img : images) {
    THALI_CHECK_OK(queue.TryPush(MakeRequest(std::move(img))));
  }
  std::vector<RequestPtr> batch;
  // Six immediately-available requests: the first batch caps at
  // max_batch_size without ever waiting (the 10s linger would hang the
  // test if the batcher lingered despite a full batch).
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.size(), 4u);
  // Closing the queue skips the linger for the underfull leftovers.
  queue.Close();
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(metrics.batches.load(), 2);
  EXPECT_EQ(metrics.batched_images.load(), 6);
}

// With no linger (the default) a batch takes every request already
// queued, up to max_batch_size, and closes the moment the queue is empty;
// nothing waits, and the queue stays open throughout.
TEST(BatcherTest, ZeroLingerBatchesWhatIsAlreadyQueued) {
  EXPECT_EQ(Batcher::Options{}.max_linger.count(), 0);
  EXPECT_EQ(Server::Options{}.max_linger.count(), 0);
  RequestQueue queue(16);
  ServerMetrics metrics;
  Batcher batcher(&queue, Batcher::Options{4, microseconds(0)}, &metrics);
  std::vector<Image> images = RenderImages(6);
  for (Image& img : images) {
    THALI_CHECK_OK(queue.TryPush(MakeRequest(std::move(img))));
  }
  std::vector<RequestPtr> batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.size(), 4u);
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(metrics.batches.load(), 2);
  EXPECT_EQ(metrics.batched_images.load(), 6);
  EXPECT_EQ(queue.Depth(), 0u);
  EXPECT_FALSE(queue.closed());
}

// An explicit linger that has run out still takes what is queued: the
// wait only decides how long to hold out for requests not yet there.
TEST(BatcherTest, ExpiredLingerStillTakesQueuedRequests) {
  RequestQueue queue(16);
  ServerMetrics metrics;
  Batcher batcher(&queue, Batcher::Options{4, microseconds(1)}, &metrics);
  std::vector<Image> images = RenderImages(3);
  for (Image& img : images) {
    THALI_CHECK_OK(queue.TryPush(MakeRequest(std::move(img))));
  }
  std::vector<RequestPtr> batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.size(), 3u);
}

TEST(BatcherTest, LingerFlushesPartialBatch) {
  RequestQueue queue(16);
  ServerMetrics metrics;
  Batcher batcher(&queue, Batcher::Options{8, microseconds(5000)}, &metrics);
  THALI_CHECK_OK(queue.TryPush(MakeRequest(RenderImages(1)[0])));
  std::vector<RequestPtr> batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));  // returns after ~5ms linger
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(metrics.queue_wait_ms.count(), 1);
}

TEST(BatcherTest, ExpiredRequestsCompleteWithoutOccupyingBatchSlots) {
  RequestQueue queue(16);
  ServerMetrics metrics;
  Batcher batcher(&queue, Batcher::Options{4, microseconds(1000)}, &metrics);

  std::vector<Image> images = RenderImages(3);
  const ServeClock::time_point past = ServeClock::now() - milliseconds(1);
  auto expired1 = MakeRequest(images[0], past);
  auto expired2 = MakeRequest(images[1], past);
  auto live = MakeRequest(images[2]);
  std::future<Server::Result> f1 = expired1->promise.get_future();
  std::future<Server::Result> f2 = expired2->promise.get_future();
  std::future<Server::Result> f3 = live->promise.get_future();
  THALI_CHECK_OK(queue.TryPush(std::move(expired1)));
  THALI_CHECK_OK(queue.TryPush(std::move(live)));
  THALI_CHECK_OK(queue.TryPush(std::move(expired2)));

  std::vector<RequestPtr> batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.size(), 1u);  // only the live request
  EXPECT_EQ(metrics.timed_out.load(), 2);

  // Expired futures are already completed with kDeadlineExceeded.
  Server::Result r1 = f1.get();
  Server::Result r2 = f2.get();
  EXPECT_EQ(r1.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(f3.valid());  // live request still pending
  batch[0]->promise.set_value(std::vector<Detection>{});
  EXPECT_TRUE(f3.get().ok());
}

TEST(BatcherTest, ClosedEmptyQueueEndsBatching) {
  RequestQueue queue(4);
  ServerMetrics metrics;
  Batcher batcher(&queue, Batcher::Options{4, microseconds(1000)}, &metrics);
  queue.Close();
  std::vector<RequestPtr> batch;
  EXPECT_FALSE(batcher.NextBatch(&batch));
  EXPECT_TRUE(batch.empty());
}

// --------------------------------------------------------------- server --

TEST(ServerTest, ServedResultsBitwiseIdenticalToDirectDetectBatch) {
  const int kImages = 8;
  std::vector<Image> images = RenderImages(kImages);

  Server::Options opts;
  opts.num_workers = 1;
  opts.max_batch_size = 4;
  opts.max_linger = microseconds(2000);
  auto server_or = Server::Create(opts, StandardFactory(/*seed=*/7));
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  std::unique_ptr<Server> server = std::move(server_or).value();

  std::vector<std::future<Server::Result>> futures;
  for (const Image& img : images) {
    auto fut = server->Submit(img);
    ASSERT_TRUE(fut.ok()) << fut.status().ToString();
    futures.push_back(std::move(fut).value());
  }
  std::vector<std::vector<Detection>> served;
  for (auto& f : futures) {
    Server::Result r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    served.push_back(std::move(r).value());
  }
  server->Shutdown();

  // Same seed, same weights: direct DetectBatch over all 8 at once must
  // match the served results no matter how the batcher grouped them
  // (batch items never interact in inference).
  Detector direct = MakeDetector(/*seed=*/7);
  std::vector<std::vector<Detection>> expected = direct.DetectBatch(images);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < served.size(); ++i) {
    ExpectSameDetections(served[i], expected[i]);
  }

  const ServerMetrics& m = server->metrics();
  EXPECT_EQ(m.submitted.load(), kImages);
  EXPECT_EQ(m.completed.load(), kImages);
  EXPECT_EQ(m.rejected.load(), 0);
  EXPECT_EQ(m.timed_out.load(), 0);
  EXPECT_EQ(m.batched_images.load(), kImages);
  EXPECT_EQ(m.e2e_ms.count(), kImages);
}

TEST(ServerTest, ExpiredDeadlineCompletesWithoutRunningNetwork) {
  Server::Options opts;
  opts.num_workers = 1;
  auto server_or = Server::Create(opts, StandardFactory());
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();

  // An already-expired absolute deadline: the worker must complete it with
  // kDeadlineExceeded without ever forming a batch.
  Server::SubmitOptions expired;
  expired.deadline = ServeClock::now() - milliseconds(1);
  auto fut = server->Submit(RenderImages(1)[0], expired);
  ASSERT_TRUE(fut.ok());
  Server::Result r = fut->get();
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  server->Shutdown();

  const ServerMetrics& m = server->metrics();
  EXPECT_EQ(m.timed_out.load(), 1);
  EXPECT_EQ(m.completed.load(), 0);
  EXPECT_EQ(m.batches.load(), 0);  // the network never ran
}

TEST(ServerTest, ShutdownDrainsEveryAcceptedFuture) {
  Server::Options opts;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  opts.max_linger = microseconds(50'000);
  opts.queue_capacity = 32;
  auto server_or = Server::Create(opts, StandardFactory());
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();

  std::vector<Image> images = RenderImages(12);
  std::vector<std::future<Server::Result>> futures;
  for (Image& img : images) {
    auto fut = server->Submit(std::move(img));
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(fut).value());
  }
  // Shutdown while batches may still be lingering: it must cut the linger
  // short and run (not drop) everything queued.
  server->Shutdown();
  int ok = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++ok;
  }
  EXPECT_EQ(ok, 12);
  const ServerMetrics& m = server->metrics();
  EXPECT_EQ(m.completed.load(), 12);
  EXPECT_EQ(m.submitted.load(),
            m.completed.load() + m.rejected.load() + m.timed_out.load());

  // Admission is closed after shutdown.
  auto rejected = server->Submit(RenderImages(1)[0]);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server->metrics().rejected.load(), 1);
}

// The detector letterboxes 3-channel images only; anything else must
// bounce at Submit instead of reaching a worker, whose DetectBatch would
// abort the process. The server keeps serving afterwards, and the
// rejections keep submitted = completed + rejected + timed_out.
TEST(ServerTest, SubmitRejectsImagesTheDetectorCannotTake) {
  Server::Options opts;
  opts.num_workers = 1;
  auto server_or = Server::Create(opts, StandardFactory());
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();

  for (const int channels : {1, 4}) {
    auto bad = server->Submit(Image(96, 96, channels));
    ASSERT_FALSE(bad.ok()) << channels << " channels";
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
  auto empty = server->Submit(Image());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  auto good = server->Submit(RenderImages(1)[0]);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->get().ok());
  server->Shutdown();

  const ServerMetrics& m = server->metrics();
  EXPECT_EQ(m.submitted.load(), 4);
  EXPECT_EQ(m.rejected.load(), 3);
  EXPECT_EQ(m.completed.load(), 1);
  EXPECT_EQ(m.submitted.load(),
            m.completed.load() + m.rejected.load() + m.timed_out.load());
}

// A request drops its pixels before it fulfils its promise, so whoever
// waits on the future holds the last reference to the pixel owner once
// the future is ready — the network front-end reuses a frame's receive
// buffer on exactly that rule. Served, expired and rejected requests
// all keep it.
TEST(ServerTest, RequestsDropThePixelOwnerBeforeTheFutureIsReady) {
  Server::Options opts;
  opts.num_workers = 1;
  auto server_or = Server::Create(opts, StandardFactory());
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();
  const auto owner = std::make_shared<const Image>(RenderImages(1)[0]);

  auto served = server->Submit(*owner, owner, Server::SubmitOptions{});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->get().ok());
  EXPECT_EQ(owner.use_count(), 1);

  Server::SubmitOptions expired;
  expired.deadline = ServeClock::now();
  auto late = server->Submit(*owner, owner, expired);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(owner.use_count(), 1);

  const auto gray = std::make_shared<const Image>(96, 96, 1);
  auto rejected = server->Submit(*gray, gray, Server::SubmitOptions{});
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gray.use_count(), 1);
  server->Shutdown();
}

TEST(ServerTest, BackpressureRejectsWhenQueueFull) {
  Server::Options opts;
  opts.num_workers = 1;
  opts.queue_capacity = 1;
  opts.max_batch_size = 1;
  opts.max_linger = microseconds(0);
  auto server_or = Server::Create(opts, StandardFactory());
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();

  // A capacity-1 queue behind a worker that needs milliseconds per forward
  // must reject a tight submission loop almost immediately.
  Image img = RenderImages(1)[0];
  std::vector<std::future<Server::Result>> accepted;
  bool saw_rejection = false;
  for (int i = 0; i < 1000 && !saw_rejection; ++i) {
    auto fut = server->Submit(img);
    if (fut.ok()) {
      accepted.push_back(std::move(fut).value());
    } else {
      EXPECT_EQ(fut.status().code(), StatusCode::kResourceExhausted);
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);
  server->Shutdown();
  for (auto& f : accepted) EXPECT_TRUE(f.get().ok());
  const ServerMetrics& m = server->metrics();
  EXPECT_EQ(m.submitted.load(),
            m.completed.load() + m.rejected.load() + m.timed_out.load());
  EXPECT_GE(m.rejected.load(), 1);
}

TEST(ServerTest, AdmissionShedsBatchClassBeforeInteractive) {
  Server::Options opts;
  opts.num_workers = 1;
  opts.queue_capacity = 4;
  opts.batch_queue_capacity = 4;
  opts.max_batch_size = 1;
  opts.max_linger = microseconds(0);
  opts.admission.enabled = true;
  opts.admission.shed_start = 0.0;  // shed pressure from the first queued item
  auto server_or = Server::Create(opts, StandardFactory());
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();

  // A tight batch-class submission loop against a single worker that
  // needs milliseconds per forward: the shed policy must fire while the
  // batch lane still has free slots (depth-proportional, not lane-full).
  Image img = RenderImages(1)[0];
  Server::SubmitOptions batch_submit;
  batch_submit.priority = Priority::kBatch;
  std::vector<std::future<Server::Result>> accepted;
  bool saw_shed = false;
  for (int i = 0; i < 1000 && !saw_shed; ++i) {
    auto fut = server->Submit(img, batch_submit);
    if (fut.ok()) {
      accepted.push_back(std::move(fut).value());
    } else {
      EXPECT_EQ(fut.status().code(), StatusCode::kResourceExhausted);
      saw_shed = true;
      // Shed while below lane capacity — the policy, not TryPush, fired.
      EXPECT_LT(server->LaneDepth(Priority::kBatch),
                server->LaneCapacity(Priority::kBatch));
      // Batch work is shed strictly before interactive: an interactive
      // request submitted at this exact pressure is still admitted.
      auto interactive = server->Submit(img, Server::SubmitOptions{});
      EXPECT_TRUE(interactive.ok()) << interactive.status().ToString();
      if (interactive.ok()) accepted.push_back(std::move(interactive).value());
    }
  }
  EXPECT_TRUE(saw_shed);
  server->Shutdown();
  for (auto& f : accepted) EXPECT_TRUE(f.get().ok());

  const ServerMetrics& m = server->metrics();
  EXPECT_GE(m.shed_pressure.load(), 1);
  EXPECT_EQ(m.ForClass(Priority::kInteractive).shed.load(), 0);
  // Sheds are a refinement of rejected, never a fourth invariant leg.
  EXPECT_EQ(m.submitted.load(),
            m.completed.load() + m.rejected.load() + m.timed_out.load());
  EXPECT_LE(m.shed_pressure.load() + m.shed_deadline.load(),
            m.rejected.load());
}

TEST(ServerTest, AdmissionRejectsDeadlinesDoomedByQueueWait) {
  Server::Options opts;
  opts.num_workers = 1;
  opts.queue_capacity = 8;
  opts.max_batch_size = 1;
  opts.max_linger = microseconds(0);
  opts.admission.enabled = true;
  opts.admission.min_wait_samples = 8;
  auto server_or = Server::Create(opts, StandardFactory());
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();
  Image img = RenderImages(1)[0];

  // Warm the queue-wait histogram with one open burst: the later requests
  // of the burst wait several forward-times in the queue, so p95 queue
  // wait lands in the milliseconds.
  std::vector<std::future<Server::Result>> warm;
  for (int i = 0; i < 8; ++i) {
    auto fut = server->Submit(img);
    if (fut.ok()) warm.push_back(std::move(fut).value());
  }
  for (auto& f : warm) (void)f.get();

  // Build a backlog, then ask for a microsecond-scale deadline budget:
  // the estimated wait (p95 scaled by depth) dwarfs it, so admission must
  // reject without ever queueing the request.
  bool saw_deadline_shed = false;
  std::vector<std::future<Server::Result>> accepted;
  for (int round = 0; round < 50 && !saw_deadline_shed; ++round) {
    for (int i = 0; i < 6; ++i) {
      auto fut = server->Submit(img);
      if (fut.ok()) accepted.push_back(std::move(fut).value());
    }
    for (int i = 0; i < 20; ++i) {
      Server::SubmitOptions tight;  // interactive
      tight.deadline = ServeClock::now() + microseconds(50);
      auto fut = server->Submit(img, tight);
      if (!fut.ok() && fut.status().code() == StatusCode::kDeadlineExceeded) {
        saw_deadline_shed = true;
        break;
      }
      if (fut.ok()) accepted.push_back(std::move(fut).value());
    }
  }
  EXPECT_TRUE(saw_deadline_shed);
  server->Shutdown();
  for (auto& f : accepted) (void)f.get();

  const ServerMetrics& m = server->metrics();
  EXPECT_GE(m.shed_deadline.load(), 1);
  EXPECT_EQ(m.submitted.load(),
            m.completed.load() + m.rejected.load() + m.timed_out.load());
}

TEST(ServerTest, HotReloadSwapsWeightsWithoutDroppingRequests) {
  // Stage seed-9 weights on disk; the server starts from seed 7.
  const std::string path =
      testing::TempDir() + "/thali_serve_reload.weights";
  {
    Detector donor = MakeDetector(/*seed=*/9);
    THALI_CHECK_OK(SaveWeights(donor.network(), path));
  }

  Server::Options opts;
  opts.num_workers = 2;
  opts.queue_capacity = 16;
  opts.max_batch_size = 2;
  opts.max_linger = microseconds(500);
  auto server_or = Server::Create(opts, StandardFactory(/*seed=*/7));
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();
  EXPECT_EQ(server->weights_generation(), 0);

  // Keep requests in flight across the swap; every future must resolve.
  std::vector<Image> images = RenderImages(10);
  std::vector<std::future<Server::Result>> futures;
  for (int i = 0; i < 5; ++i) {
    auto fut = server->Submit(Image(images[i]));
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(fut).value());
  }
  THALI_CHECK_OK(server->ReloadWeights(path));
  EXPECT_EQ(server->weights_generation(), 1);
  for (int i = 5; i < 10; ++i) {
    auto fut = server->Submit(Image(images[i]));
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(fut).value());
  }
  for (auto& f : futures) {
    Server::Result r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();  // zero dropped in-flight
  }

  // Both workers pass a batch boundary during the drain above or on the
  // probe below, so the swap lands; keep probing until the counter shows
  // at least one worker on the new weights.
  Image probe = RenderImages(1, /*seed=*/77)[0];
  std::vector<Detection> served;
  for (int i = 0; i < 50; ++i) {
    auto fut = server->Submit(Image(probe));
    ASSERT_TRUE(fut.ok());
    Server::Result r = fut->get();
    ASSERT_TRUE(r.ok());
    served = std::move(r).value();
    if (server->metrics().weight_reloads.load() >= 1) break;
  }
  EXPECT_GE(server->metrics().weight_reloads.load(), 1);
  server->Shutdown();
  EXPECT_LE(server->metrics().weight_reloads.load(), opts.num_workers);

  // The last probe ran on some worker; with both workers having crossed a
  // batch boundary post-reload during the 10-request drain, it must match
  // the seed-9 detector bitwise, proving the swap actually took effect.
  Detector reference = MakeDetector(/*seed=*/9);
  ExpectSameDetections(served, reference.Detect(probe));
}

// The ThreadSanitizer stress test the issue pins: >=4 producers, 2
// workers, bounded queue with live backpressure, every accepted request
// completed exactly once, accounting closed after drain.
TEST(ServerTest, StressProducersAndWorkersCompleteEveryRequestOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 10;

  Server::Options opts;
  opts.num_workers = 2;
  opts.queue_capacity = 8;
  opts.max_batch_size = 4;
  opts.max_linger = microseconds(500);
  auto server_or = Server::Create(opts, StandardFactory());
  ASSERT_TRUE(server_or.ok());
  std::unique_ptr<Server> server = std::move(server_or).value();

  std::atomic<int> ok_results{0};
  std::atomic<int> producer_rejections{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<Image> images =
          RenderImages(kPerProducer, /*seed=*/100 + static_cast<uint64_t>(p));
      for (Image& img : images) {
        // Closed-loop with bounded retry: rejected submissions (observed
        // backpressure) back off and retry until accepted.
        for (;;) {
          auto fut = server->Submit(img);
          if (fut.ok()) {
            Server::Result r = fut->get();
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            ok_results.fetch_add(1);
            break;
          }
          ASSERT_EQ(fut.status().code(), StatusCode::kResourceExhausted);
          producer_rejections.fetch_add(1);
          std::this_thread::sleep_for(microseconds(200));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server->Shutdown();

  EXPECT_EQ(ok_results.load(), kProducers * kPerProducer);
  const ServerMetrics& m = server->metrics();
  EXPECT_EQ(m.completed.load(), kProducers * kPerProducer);
  EXPECT_EQ(m.rejected.load(), producer_rejections.load());
  EXPECT_EQ(m.submitted.load(),
            m.completed.load() + m.rejected.load() + m.timed_out.load());
  EXPECT_EQ(m.batched_images.load(), m.completed.load());
  EXPECT_EQ(m.e2e_ms.count(), m.completed.load() + m.timed_out.load());
}

}  // namespace
}  // namespace serve
}  // namespace thali
