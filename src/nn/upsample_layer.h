#ifndef THALI_NN_UPSAMPLE_LAYER_H_
#define THALI_NN_UPSAMPLE_LAYER_H_

#include <cstdint>

#include "nn/layer.h"

namespace thali {

// Nearest-neighbour upsampling of `planes` consecutive h x w planes by
// `stride` into planes of (h*stride) x (w*stride): out[y][x] =
// in[y/stride][x/stride]. The inference kernel of UpsampleLayer, for
// fp32 activations and for the u8 bytes of a quantize-once chain.
void UpsampleNearest(const float* in, int64_t planes, int64_t h, int64_t w,
                     int stride, float* out);
void UpsampleNearest(const uint8_t* in, int64_t planes, int64_t h, int64_t w,
                     int stride, uint8_t* out);

// Nearest-neighbour spatial upsampling by an integer stride — the PAN/FPN
// top-down path of YOLOv3/v4.
class UpsampleLayer : public Layer {
 public:
  explicit UpsampleLayer(int stride) : stride_(stride) {}

  const char* kind() const override { return "upsample"; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train,
               const ItemRange& items) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;

  int stride() const { return stride_; }

 private:
  int stride_;
};

}  // namespace thali

#endif  // THALI_NN_UPSAMPLE_LAYER_H_
