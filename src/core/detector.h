#ifndef THALI_CORE_DETECTOR_H_
#define THALI_CORE_DETECTOR_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "darknet/cfg.h"
#include "data/dataset.h"
#include "eval/detection.h"
#include "image/image.h"
#include "nn/detection_head.h"
#include "nn/network.h"
#include "tensor/tensor.h"

namespace thali {

// The public inference API: owns a network plus its detection heads and
// turns Images into lists of Detections (boxes normalized to [0,1] of
// the *input image*, so callers never see network coordinates).
//
// Networks built through FromCfg/FromFiles run in ExecMode::kInference:
// no delta tensors, activations arena-planned (see nn/exec_plan.h).
// Batch size adapts dynamically — Detect runs at batch 1, DetectBatch
// re-plans buffers to the request size via Network::SetBatch.
//
// Thread-safety contract: a Detector serializes callers. Detect and
// DetectBatch mutate the network (batch re-planning, activation buffers),
// so at most one detection call may be in flight per Detector at a time —
// concurrent entry is a checked error. Code that wants parallel inference
// gives each thread its own Detector instance (serve/server.cc does
// exactly this: one Detector per worker).
class Detector {
 public:
  struct Options {
    float conf_threshold = 0.25f;
    float nms_threshold = 0.45f;
  };

  // Builds from cfg text with random weights (callers then LoadFromFile
  // or are handed a trained network by the trainer).
  static StatusOr<Detector> FromCfg(const std::string& cfg_text,
                                    uint64_t seed = 7);

  // Builds from cfg text and a .weights checkpoint.
  static StatusOr<Detector> FromFiles(const std::string& cfg_text,
                                      const std::string& weights_path,
                                      uint64_t seed = 7);

  // Takes ownership of an existing network (e.g. a freshly trained one).
  // `heads` must point into `net`. The network may be in either exec
  // mode and at any batch size; detection adjusts the batch as needed.
  Detector(std::unique_ptr<Network> net, std::vector<DetectionHead*> heads,
           Options options);
  Detector(std::unique_ptr<Network> net, std::vector<DetectionHead*> heads)
      : Detector(std::move(net), std::move(heads), Options()) {}

  // Moving a Detector with a detection call in flight is a caller bug;
  // the moved-to instance starts with an idle reentrancy guard.
  Detector(Detector&& other) noexcept
      : net_(std::move(other.net_)),
        heads_(std::move(other.heads_)),
        opts_(other.opts_),
        input_staging_(std::move(other.input_staging_)),
        stage_times_(other.stage_times_) {}
  Detector& operator=(Detector&& other) noexcept {
    net_ = std::move(other.net_);
    heads_ = std::move(other.heads_);
    opts_ = other.opts_;
    input_staging_ = std::move(other.input_staging_);
    stage_times_ = other.stage_times_;
    return *this;
  }

  // Wall-clock stage breakdown of the most recent Detect/DetectBatch:
  // preprocess (letterbox + staging), forward (network), postprocess
  // (head decode + NMS + box remapping). For serving metrics and the
  // pre/post bench; covered by the single-caller contract above.
  struct StageTimes {
    double preprocess_ms = 0.0;
    double forward_ms = 0.0;
    double postprocess_ms = 0.0;
  };
  const StageTimes& last_stage_times() const { return stage_times_; }

  // Runs detection on one image. Images whose size differs from the
  // network input are letterboxed; returned boxes are mapped back to the
  // original image frame and NMS-filtered, sorted by confidence.
  // Non-const: re-plans network buffers (see the thread-safety contract
  // above).
  std::vector<Detection> Detect(const Image& image);

  // As Detect, with explicit thresholds.
  std::vector<Detection> Detect(const Image& image, float conf_threshold,
                                float nms_threshold);

  // Runs detection on N images in one forward pass. Per-image results
  // are bitwise identical to N separate Detect calls (batch items never
  // interact in inference: rolling batch-norm statistics, per-item
  // convolutions). The network's batch dimension is re-planned to
  // images.size() on demand and stays there until the next call.
  // Detection reads each image through its view (at any alignment; the
  // server passes views into received frames), and the Image overloads
  // view their images and run the same path.
  std::vector<std::vector<Detection>> DetectBatch(
      std::span<const ImageView> images, float conf_threshold,
      float nms_threshold);
  std::vector<std::vector<Detection>> DetectBatch(
      std::span<const ImageView> images);
  std::vector<std::vector<Detection>> DetectBatch(
      std::span<const Image> images);
  std::vector<std::vector<Detection>> DetectBatch(
      std::span<const Image> images, float conf_threshold,
      float nms_threshold);

  Network& network() { return *net_; }
  const Options& options() const { return opts_; }
  void set_options(const Options& o) { opts_ = o; }

  // Folds batch norms for faster inference (irreversible; do not train
  // afterwards), then replans: folded convs with installed int8 ranges
  // arm. Composes with the inference-mode arena plan: folding touches
  // only weights/biases, never activation buffers.
  void FuseBatchNorm();

  // How Detector::CalibrateInt8 derives activation ranges.
  struct Int8CalibrationOptions {
    enum class Mode { kMinMax, kPercentile };
    Mode mode = Mode::kMinMax;
    // kPercentile: each tail of the input histogram is trimmed to
    // (100 - percentile)/2 percent of the observed values.
    double percentile = 99.9;
    // Images forwarded per calibration pass (the percentile mode runs
    // two passes: range, then histogram).
    int max_images = 32;
  };

  // Arms the int8 conv path — calling this (or LoadCalibration) is the
  // int8 opt-in: folds batch norms (the quantized path runs on folded
  // weights), then runs fp32 forward passes over `indices` into
  // `dataset` with the network's calibration phase set, installs each
  // quantizable conv's activation range and replans. A network without
  // quantizable convs (a training network's reference plan) returns 0.
  // Returns the number of conv layers armed for int8. Persist the
  // result with darknet/calibration_io.h to skip this pass on later
  // loads; ResetCalibration on every conv plus ReplanInference opts out
  // again.
  int CalibrateInt8(const FoodDataset& dataset, std::span<const int> indices,
                    const Int8CalibrationOptions& options);
  int CalibrateInt8(const FoodDataset& dataset, std::span<const int> indices) {
    return CalibrateInt8(dataset, indices, Int8CalibrationOptions());
  }

 private:
  // Geometry of one letterboxed batch slot, for mapping boxes back into
  // the source image frame.
  struct SlotMapping {
    bool direct = true;
    float scale = 1.0f;
    int pad_x = 0;
    int pad_y = 0;
  };

  // Letterboxes `image` into batch slot `b`: the one shared load path
  // for Detect/DetectBatch/calibration forwards. With `fused_quant` the
  // slot is staged directly as u8 bytes in the plan's input domain
  // (image/image_prepost.h fused letterbox-quantize) and the fp32
  // staging slot is left untouched — a chained layer 0 never reads it.
  // Otherwise the letterboxed planes go straight into the staging
  // tensor.
  SlotMapping LoadImageIntoSlot(ImageView image, int64_t b,
                                bool fused_quant);

  // Letterboxes one image into the fp32 staging tensor and runs a
  // batch-1 forward pass (calibration passes, whose plan is fp32).
  void ForwardImage(const Image& image);
  std::unique_ptr<Network> net_;
  std::vector<DetectionHead*> heads_;
  Options opts_;
  // Reentrancy guard enforcing the single-caller contract: set for the
  // duration of a DetectBatch, checked on entry.
  std::atomic<bool> in_detect_{false};
  // Persistent staging buffer the batch is letterboxed/copied into before
  // the forward pass. Kept across calls so steady-state serving does not
  // allocate (and fault in) a multi-hundred-KB input tensor per request
  // batch; every slot is overwritten before use.
  Tensor input_staging_;
  StageTimes stage_times_;
};

// Shared by the trainer, benches and Detector: runs the already-forwarded
// heads for batch item `b`, NMS-merges across heads. Boxes stay in
// network-input normalized coordinates.
std::vector<Detection> CollectDetections(
    const std::vector<DetectionHead*>& heads, int b, float conf_threshold,
    float nms_threshold, int net_w, int net_h);

}  // namespace thali

#endif  // THALI_CORE_DETECTOR_H_
