#ifndef THALI_NN_MAXPOOL_LAYER_H_
#define THALI_NN_MAXPOOL_LAYER_H_

#include <vector>

#include "nn/layer.h"
#include "tensor/pool.h"

namespace thali {

// Max pooling with Darknet geometry: total `padding` (default size-1)
// split as floor(padding/2) before the window origin; out-of-bounds taps
// read as -inf. size=5/9/13 with stride 1 realizes the SPP block.
class MaxPoolLayer : public Layer {
 public:
  struct Options {
    int size = 2;
    int stride = 2;
    int padding = -1;  // -1 -> Darknet default (size - 1)
  };

  // A non-positive size keeps padding -1; Configure rejects it.
  explicit MaxPoolLayer(const Options& options) : opts_(options) {
    if (opts_.padding < 0 && opts_.size > 0) opts_.padding = opts_.size - 1;
  }

  const char* kind() const override { return "maxpool"; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train,
               const ItemRange& items) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;
  int64_t WorkspaceSize() const override;

  const Options& options() const { return opts_; }
  // The clipped windows the inference kernel runs (valid after Configure).
  const PoolGeometry& geometry() const { return geom_; }

 private:
  Options opts_;
  PoolGeometry geom_;            // clipped windows of the inference kernel
  std::vector<int64_t> argmax_;  // flat input index of each output's max
};

}  // namespace thali

#endif  // THALI_NN_MAXPOOL_LAYER_H_
