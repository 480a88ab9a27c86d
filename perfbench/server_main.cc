// perfbench_server: the serving process the wire workloads measure.
//
// One ModelRouter model ("yolov4-thali") built with the library defaults
// Server::Options{} and NetServer::Options{}, plus admission control. Each
// worker loads the cached model with the serving recipe (FromFiles,
// FuseBatchNorm, LoadCalibration, ReplanInference); perfbench_runner launches
// this process with THALI_INT8=1 and THALI_NUM_THREADS=nproc/2.
//
//   perfbench_server    (reads the model from ./thali_cache)
//
// Once listening it prints one line to stdout,
//   READY {"port": ..., "start_ns": ..., ...}
// and serves until its stdin closes.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "base/thread_pool.h"
#include "common.h"
#include "image/image_prepost.h"
#include "net/net_server.h"
#include "serve/router.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"

int main() {
  using namespace thali;
  using perfbench::Clock;

  auto model = perfbench::LoadModelFiles();
  if (!model.ok()) {
    std::fprintf(stderr, "perfbench_server: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  std::mutex mu;
  std::vector<perfbench::LoadTimes> loads;  // guarded by mu
  perfbench::JsonObject plan;               // guarded by mu
  serve::Server::Options options;
  options.admission.enabled = true;
  serve::ModelRouter router;
  Status added = router.AddModel(
      "yolov4-thali", options, [&]() -> StatusOr<Detector> {
        perfbench::LoadTimes t;
        auto det = perfbench::LoadServingDetector(*model, &t);
        if (!det.ok()) return det.status();
        std::lock_guard<std::mutex> lock(mu);
        loads.push_back(t);
        Network& net = det->network();
        plan = perfbench::JsonObject();
        plan.Int("quantized_layers", net.exec_plan().quantized_layers)
            .Int("activation_bytes", net.ActivationBytes())
            .Str("int8_kernel", perfbench::Int8KernelName(net));
        return det;
      });
  if (!added.ok()) {
    std::fprintf(stderr, "perfbench_server: %s\n", added.ToString().c_str());
    return 1;
  }

  const auto start = Clock::now();
  auto server = net::NetServer::Start(net::NetServer::Options{}, &router);
  if (!server.ok()) {
    std::fprintf(stderr, "perfbench_server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  perfbench::JsonObject ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    ready.Int("port", (*server)->port())
        .Int("start_ns", perfbench::ToNs(start))
        .Num("load_ms", loads.front().load_ms)
        .Num("calib_ms", loads.front().calib_ms)
        .Int("workers", static_cast<int64_t>(loads.size()))
        .Int("strands", MaxParallelism())
        .Str("gemm_kernel", GemmKernelName())
        .Str("act_kernel", ActKernelName())
        .Str("resize_kernel", ResizeKernelName())
        .Raw("plan", plan.str());
  }
  std::printf("READY %s\n", ready.str().c_str());
  std::fflush(stdout);

  char buf[256];
  while (read(STDIN_FILENO, buf, sizeof(buf)) > 0) {
  }
  (*server)->Shutdown();
  router.ShutdownAll();
  return 0;
}
