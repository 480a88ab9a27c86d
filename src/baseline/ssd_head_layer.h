#ifndef THALI_BASELINE_SSD_HEAD_LAYER_H_
#define THALI_BASELINE_SSD_HEAD_LAYER_H_

#include <utility>
#include <vector>

#include "nn/detection_head.h"
#include "nn/layer.h"

namespace thali {

// Single-scale anchor-grid detection head in the style of the pre-YOLOv4
// one-stage pipelines the paper compares against (SSD+InceptionV2 [13],
// BTBU-Food-60 [14]). Differences from the YOLOv4 head, on purpose:
//   * one detection scale only (no FPN/PAN multi-scale fusion),
//   * MSE loss on the box transform coordinates instead of CIoU,
//   * no ignore-threshold, no multi-anchor assignment, no
//     grid-sensitivity scaling.
// Input channels must equal anchors.size() * (5 + classes).
class SsdHeadLayer : public Layer, public DetectionHead {
 public:
  struct Options {
    std::vector<std::pair<float, float>> anchors;  // net-input pixels
    int classes = 10;
    float box_scale = 1.0f;  // MSE weight
    float obj_scale = 1.0f;
    float cls_scale = 1.0f;
  };

  explicit SsdHeadLayer(const Options& options) : opts_(options) {}

  const char* kind() const override { return "ssd_head"; }
  // Detections are decoded from the head output after the forward pass.
  bool OutputLiveAfterForward() const override { return true; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train,
               const ItemRange& items) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;

  HeadLossStats ComputeLoss(const TruthBatch& truths, int net_w,
                            int net_h) override;
  std::vector<Detection> GetDetections(int b, float conf_thresh, int net_w,
                                       int net_h) const override;

  const Options& options() const { return opts_; }

 private:
  int64_t Entry(int64_t b, int64_t n, int64_t attr, int64_t y,
                int64_t x) const;
  Box PredBox(int64_t b, int64_t n, int64_t y, int64_t x, int net_w,
              int net_h) const;

  Options opts_;
};

}  // namespace thali

#endif  // THALI_BASELINE_SSD_HEAD_LAYER_H_
