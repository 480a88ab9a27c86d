// thali_serve: the serving path end to end — build a detector from the
// model zoo, start the in-process inference server, fire a concurrent
// burst of synthetic-platter requests at it (some with tight deadlines),
// and print the serving metrics table on shutdown.
//
//   thali_serve [--int8]
//
// --int8 serves the quantized plan: each worker's detector runs a short
// calibration pass over rendered platters at startup, which arms the
// int8 convs and chains the u8 activation edges.
//
// Reuses the cached quickstart/benchmark weights when present (run
// `quickstart` or any bench first for a trained model); otherwise serves
// with random weights — the serving mechanics are identical either way.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "base/file_util.h"
#include "core/detector.h"
#include "darknet/model_zoo.h"
#include "data/dataset.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "serve/server.h"

namespace {

using namespace thali;

std::string FindWeights() {
  for (const char* candidate :
       {"thali_cache/main.weights", "thali_cache/quickstart.weights"}) {
    if (PathExists(candidate)) return candidate;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace thali;

  const auto& classes = IndianFood10();
  YoloThaliOptions yopts;
  yopts.classes = static_cast<int>(classes.size());
  const std::string cfg = YoloThaliCfg(yopts);
  const std::string weights = FindWeights();
  if (weights.empty()) {
    std::printf("No cached model; serving with random weights (run "
                "`quickstart` first for real detections).\n");
  } else {
    std::printf("Serving model %s\n", weights.c_str());
  }

  const bool int8 = argc > 1 && std::strcmp(argv[1], "--int8") == 0;
  if (int8) {
    std::printf("--int8: serving the calibrated int8 chained plan.\n");
  }

  serve::Server::Options opts;
  opts.num_workers = 2;
  opts.queue_capacity = 32;
  opts.max_batch_size = 4;
  opts.max_linger = std::chrono::microseconds(2000);
  auto server_or = serve::Server::Create(opts, [&] {
    auto det = weights.empty() ? Detector::FromCfg(cfg)
                               : Detector::FromFiles(cfg, weights);
    if (det.ok() && int8) {
      DatasetSpec spec;
      spec.num_images = 6;
      const FoodDataset calib = FoodDataset::Generate(classes, spec);
      const std::vector<int> idx = {0, 1, 2, 3, 4, 5};
      const int armed = det->CalibrateInt8(calib, idx);
      std::printf("int8: calibrated %d conv layers for this worker\n", armed);
    }
    return det;
  });
  THALI_CHECK(server_or.ok()) << server_or.status().ToString();
  serve::Server& server = **server_or;
  std::printf("Server up: %d workers, queue capacity %d, max batch %d, "
              "linger %lldus\n",
              server.num_workers(), opts.queue_capacity, opts.max_batch_size,
              static_cast<long long>(opts.max_linger.count()));

  // The burst: 4 concurrent clients, 8 platters each, submitted as fast
  // as the bounded queue admits them. Odd requests carry a 250ms deadline.
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::thread> clients;
  std::atomic<int> detections{0}, deadline_misses{0}, rejections{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PlatterRenderer renderer(classes, PlatterRenderer::Options{});
      Rng rng(900 + static_cast<uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        RenderedScene scene = renderer.RenderRandomPlatter(2 + i % 3, rng);
        serve::Server::SubmitOptions submit;
        if (i % 2 == 1) {
          submit.deadline =
              serve::ServeClock::now() + std::chrono::milliseconds(250);
        }
        auto fut = server.Submit(std::move(scene.image), submit);
        if (!fut.ok()) {
          // Queue full: a real frontend would shed or retry; the burst
          // just counts the rejection and moves on.
          rejections.fetch_add(1);
          continue;
        }
        auto result = fut->get();
        if (result.ok()) {
          detections.fetch_add(static_cast<int>(result->size()));
        } else {
          deadline_misses.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  std::printf("\nBurst done: %d boxes detected, %d deadline misses, %d "
              "rejections across %d requests\n",
              detections.load(), deadline_misses.load(), rejections.load(),
              kClients * kPerClient);

  // Shutdown drains the queue, so the server-side counters are final
  // here. Print all three legs of the invariant (submitted = completed +
  // rejected + timed_out) — the client-side tallies above only see the
  // futures each client happened to hold.
  server.Shutdown();
  const serve::MetricsSnapshot snap = server.metrics().Snapshot();
  std::printf("\nServer drained: %lld submitted = %lld completed + %lld "
              "rejected + %lld timed out\n",
              static_cast<long long>(snap.submitted),
              static_cast<long long>(snap.completed),
              static_cast<long long>(snap.rejected),
              static_cast<long long>(snap.timed_out));
  std::printf("\n%s", server.metrics().ToString().c_str());
  return 0;
}
