#include "nn/upsample_layer.h"

#include "nn/network.h"

namespace thali {

Status UpsampleLayer::Configure(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4) {
    return Status::InvalidArgument("upsample input must be NCHW");
  }
  if (stride_ <= 0) return Status::InvalidArgument("bad upsample stride");
  SetShapes(input_shape,
            Shape({input_shape.dim(0), input_shape.dim(1),
                   input_shape.dim(2) * stride_, input_shape.dim(3) * stride_}));
  return Status::OK();
}

// Layout-invariant (NCHW or CNHW): plane p maps to plane p and the
// channel count is preserved. When the plan compiler adopted this
// layer into a following route's concat block, output_ is simply bound
// inside that block — the writes below land in place.
void UpsampleLayer::Forward(const Tensor& input, Network& net, bool) {
  const int64_t planes = in_shape_.dim(0) * in_shape_.dim(1);
  const int64_t ih = in_shape_.dim(2);
  const int64_t iw = in_shape_.dim(3);
  const int64_t ow = iw * stride_;
  // Nearest-neighbor replication moves values, so a u8 chain's
  // quantization domain passes through untouched.
  const auto replicate = [&](const auto* in, auto* out) {
    for (int64_t p = 0; p < planes; ++p) {
      const auto* src = in + p * ih * iw;
      auto* dst = out + p * ih * iw * stride_ * stride_;
      for (int64_t y = 0; y < ih * stride_; ++y) {
        const auto* srow = src + (y / stride_) * iw;
        auto* drow = dst + y * ow;
        for (int64_t x = 0; x < ow; ++x) drow[x] = srow[x / stride_];
      }
    }
  };
  if (plan().out_dtype == DType::kU8) {
    replicate(net.quant_act(index() - 1), net.quant_act(index()));
  } else {
    replicate(input.data(), output_.data());
  }
}

void UpsampleLayer::Backward(const Tensor&, Tensor* input_delta, Network&) {
  if (input_delta == nullptr) return;
  const int64_t planes = in_shape_.dim(0) * in_shape_.dim(1);
  const int64_t ih = in_shape_.dim(2);
  const int64_t iw = in_shape_.dim(3);
  const int64_t ow = iw * stride_;
  for (int64_t p = 0; p < planes; ++p) {
    float* dst = input_delta->data() + p * ih * iw;
    const float* src = delta_.data() + p * ih * iw * stride_ * stride_;
    for (int64_t y = 0; y < ih * stride_; ++y) {
      const float* srow = src + y * ow;
      float* drow = dst + (y / stride_) * iw;
      for (int64_t x = 0; x < ow; ++x) drow[x / stride_] += srow[x];
    }
  }
}

}  // namespace thali
