// The traced run's replay: after the traffic phase, a workload's inputs go
// once more through the public entry points of each layer (net encode and
// decode, the letterbox, Network::Forward, the head decode, NMS), each call
// wrapped in a span, so per-layer costs are measured without contending
// with traffic.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "core/detector.h"
#include "image/image.h"
#include "workloads.h"

namespace perfbench {

struct ReplayOptions {
  int batch = 1;         // forward batch size
  float conf = 0.25f;    // head decode threshold
  float nms = 0.45f;
};

// Replays `images` through `det`'s network. Fills `out` with
// net.request_bytes, net.encode_ms, net.decode_ms, image.letterbox_ms,
// nn.forward_ms, tensor.conv_gops, nn.activation_bytes, nn.quantized_layers,
// nn.head_decode_ms, nn.decode_candidates, eval.nms_ms, eval.nms_keep_ratio.
void ReplayLayers(thali::Detector& det, const std::vector<thali::Image>& images,
                  const ReplayOptions& options, Tracer* tracer,
                  std::map<std::string, double>* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
