#include "nn/upsample_layer.h"

#include <algorithm>

#include "nn/network.h"

namespace thali {

Status UpsampleLayer::Configure(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4) {
    return Status::InvalidArgument("upsample input must be NCHW");
  }
  if (stride_ <= 0) return Status::InvalidArgument("bad upsample stride");
  return SetShapes(input_shape, Shape({input_shape.dim(0), input_shape.dim(1),
                                       input_shape.dim(2) * stride_,
                                       input_shape.dim(3) * stride_}));
}

namespace {

// Each output row is built once, every input value repeated `stride`
// times, then copied to the `stride` - 1 rows below it: values only
// move, so any element type works and no index is divided.
template <typename T>
void UpsampleNearestImpl(const T* in, int64_t planes, int64_t h, int64_t w,
                         int stride, T* out) {
  const int64_t ow = w * stride;
  for (int64_t p = 0; p < planes; ++p) {
    const T* src = in + p * h * w;
    T* dst = out + p * h * w * stride * stride;
    for (int64_t y = 0; y < h; ++y) {
      const T* srow = src + y * w;
      T* row = dst + y * stride * ow;
      for (int64_t x = 0; x < w; ++x) {
        std::fill_n(row + x * stride, stride, srow[x]);
      }
      for (int s = 1; s < stride; ++s) std::copy_n(row, ow, row + s * ow);
    }
  }
}

}  // namespace

void UpsampleNearest(const float* in, int64_t planes, int64_t h, int64_t w,
                     int stride, float* out) {
  UpsampleNearestImpl(in, planes, h, w, stride, out);
}

void UpsampleNearest(const uint8_t* in, int64_t planes, int64_t h, int64_t w,
                     int stride, uint8_t* out) {
  UpsampleNearestImpl(in, planes, h, w, stride, out);
}

// Plane p maps to plane p and the channel count is preserved, so the
// group's planes map to themselves. When the plan compiler adopted this
// layer into a following route's concat block, output_ is simply bound
// inside that block — the writes below land in place.
void UpsampleLayer::Forward(const Tensor& input, Network& net, bool,
                            const ItemRange& items) {
  const int64_t ih = in_shape_.dim(2);
  const int64_t iw = in_shape_.dim(3);
  const int64_t first = items.begin * in_shape_.dim(1);
  const int64_t count = items.size() * in_shape_.dim(1);
  const int64_t in_at = first * ih * iw;
  const int64_t out_at = in_at * stride_ * stride_;
  // Nearest-neighbor replication moves values, so a u8 chain's
  // quantization domain passes through untouched.
  if (plan().out_dtype == DType::kU8) {
    UpsampleNearest(net.quant_act(index() - 1) + in_at, count, ih, iw, stride_,
                    net.quant_act(index()) + out_at);
  } else {
    UpsampleNearest(input.data() + in_at, count, ih, iw, stride_,
                    output_.data() + out_at);
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
