#ifndef THALI_NN_SHORTCUT_LAYER_H_
#define THALI_NN_SHORTCUT_LAYER_H_

#include <vector>

#include "nn/activation.h"
#include "nn/layer.h"

namespace thali {

// Darknet's `[shortcut]`: elementwise residual addition of the previous
// layer's output and an earlier layer's output, followed by an
// activation. Both inputs must have identical shapes (the only form the
// YOLOv4 config family uses).
class ShortcutLayer : public Layer {
 public:
  struct Options {
    int from = -3;  // layer reference (negative = relative)
    Activation activation = Activation::kLinear;
  };

  explicit ShortcutLayer(const Options& options) : opts_(options) {}

  const char* kind() const override { return "shortcut"; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train,
               const ItemRange& items) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;
  std::vector<int> ExtraInputIndices() const override { return {from_}; }

  int from_index() const { return from_; }
  const Options& options() const { return opts_; }

 private:
  Options opts_;
  int from_ = -1;
  Tensor pre_activation_;
};

}  // namespace thali

#endif  // THALI_NN_SHORTCUT_LAYER_H_
