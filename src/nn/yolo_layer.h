#ifndef THALI_NN_YOLO_LAYER_H_
#define THALI_NN_YOLO_LAYER_H_

#include <utility>
#include <vector>

#include "eval/detection.h"
#include "nn/detection_head.h"
#include "nn/layer.h"
#include "nn/truth.h"

namespace thali {

// YOLOv3/v4 detection head (`[yolo]`). The incoming feature map carries,
// per anchor of this head and per grid cell, the raw values
// (tx, ty, tw, th, t_obj, t_cls0..t_clsC-1).
//
// Forward activates in place into output_: x and y become
// sigmoid(t)*scale_x_y - 0.5*(scale_x_y - 1) (the YOLOv4 grid-sensitivity
// fix), objectness and class scores become sigmoids, w/h stay raw.
//
// Training follows AlexeyAB's YOLOv4 recipe: CIoU loss on assigned boxes,
// binary cross-entropy on objectness (with the ignore-threshold rule) and
// on class scores, and multi-anchor assignment above `iou_thresh`.
//
// Convention: after ComputeLoss, delta_ holds dLoss/d(raw inputs) — the
// sigmoid chains are already applied — so Backward simply accumulates
// delta_ into the previous layer's delta.
class YoloLayer : public Layer, public DetectionHead {
 public:
  struct Options {
    // All anchor (w,h) pairs of the network, in network-input pixels.
    std::vector<std::pair<float, float>> anchors;
    // Indices into `anchors` owned by this head.
    std::vector<int> mask;
    int classes = 10;
    // Predictions whose best IoU with any truth exceeds this are not
    // punished for objectness.
    float ignore_thresh = 0.7f;
    // Anchors (besides the best) whose wh-IoU with a truth exceeds this
    // are also assigned to it; 1.0 disables (YOLOv4 uses 0.213).
    float iou_thresh = 1.0f;
    float scale_x_y = 1.0f;
    // Loss term weights (Darknet normalizers).
    float iou_normalizer = 0.07f;
    float obj_normalizer = 1.0f;
    float cls_normalizer = 1.0f;
  };

  // Loss decomposition for one ComputeLoss call, for progress logging.
  using LossStats = HeadLossStats;

  explicit YoloLayer(const Options& options) : opts_(options) {}

  const char* kind() const override { return "yolo"; }
  // Detections are decoded from the head output after the forward pass.
  bool OutputLiveAfterForward() const override { return true; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train,
               const ItemRange& items) override;
  // Latches the decode mode (raw_output_) for the forward's groups.
  void BeginForward(const Network& net, bool train) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;

  // Computes the YOLOv4 loss against `truths` (boxes normalized to [0,1]
  // of the network input) and seeds delta_. Must follow
  // Forward(train=true). net_w/net_h are the network input dimensions.
  LossStats ComputeLoss(const TruthBatch& truths, int net_w,
                        int net_h) override;

  // Decodes detections for batch item `b` with confidence
  // (objectness * class prob) above `conf_thresh`. Boxes are normalized
  // to [0,1] of the network input.
  std::vector<Detection> GetDetections(int b, float conf_thresh, int net_w,
                                       int net_h) const override;

  const Options& options() const { return opts_; }
  int grid_w() const { return static_cast<int>(out_shape_.dim(3)); }
  int grid_h() const { return static_cast<int>(out_shape_.dim(2)); }

 private:
  // Flat index of (batch, anchor-slot n, attribute a, cell y, cell x).
  int64_t Entry(int64_t b, int64_t n, int64_t attr, int64_t y,
                int64_t x) const;

  // Decode for the raw-logit fast path: a SIMD objectness pre-filter in
  // logit space (sigmoid is monotone, so thresholding raw t_obj against
  // a conservative logit(conf_thresh) cannot drop a detection the
  // reference keeps), then exact seed-expression decode of only the
  // surviving cells — bitwise identical detections, cost proportional
  // to detections instead of grid cells.
  std::vector<Detection> DecodeRaw(int b, float conf_thresh, int net_w,
                                   int net_h) const;

  // Decodes the predicted box at an anchor slot/cell from output_.
  Box PredBox(int64_t b, int64_t n, int64_t y, int64_t x, int net_w,
              int net_h) const;

  // Writes the CIoU box delta and returns the IoU of pred vs truth.
  float DeltaBox(int64_t b, int64_t n, int64_t y, int64_t x,
                 const Box& truth, int net_w, int net_h, LossStats& stats);

  void DeltaClass(int64_t b, int64_t n, int64_t y, int64_t x, int true_class,
                  LossStats& stats);

  Options opts_;
  // Latched by BeginForward: true when output_ was left holding the RAW head
  // values (inference nets whose owner opted in via
  // Network::set_defer_head_activation). GetDetections then routes
  // through DecodeRaw.
  bool raw_output_ = false;
};

}  // namespace thali

#endif  // THALI_NN_YOLO_LAYER_H_
