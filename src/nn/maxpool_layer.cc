#include "nn/maxpool_layer.h"

#include <cfloat>

#include "nn/network.h"

namespace thali {

Status MaxPoolLayer::Configure(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4) {
    return Status::InvalidArgument("maxpool input must be NCHW");
  }
  if (opts_.size <= 0 || opts_.stride <= 0) {
    return Status::InvalidArgument("bad maxpool geometry");
  }
  const int64_t out_h =
      (input_shape.dim(2) + opts_.padding - opts_.size) / opts_.stride + 1;
  const int64_t out_w =
      (input_shape.dim(3) + opts_.padding - opts_.size) / opts_.stride + 1;
  if (out_h <= 0 || out_w <= 0) {
    return Status::InvalidArgument("maxpool output collapses to zero");
  }
  THALI_RETURN_IF_ERROR(SetShapes(
      input_shape,
      Shape({input_shape.dim(0), input_shape.dim(1), out_h, out_w})));
  const int64_t offset = -opts_.padding / 2;
  geom_.y = MakePoolAxis(input_shape.dim(2), out_h, opts_.size, opts_.stride,
                         offset);
  geom_.x = MakePoolAxis(input_shape.dim(3), out_w, opts_.size, opts_.stride,
                         offset);
  if (inference()) {
    // Backward never runs; skip the argmax routing cache entirely.
    argmax_.clear();
    argmax_.shrink_to_fit();
  } else {
    argmax_.assign(static_cast<size_t>(out_shape_.num_elements()), 0);
  }
  return Status::OK();
}

int64_t MaxPoolLayer::WorkspaceSize() const {
  return inference() ? MaxPoolScratch(geom_) : 0;
}

// Inference runs the separable kernel of tensor/pool.h over the planes
// of the group's items. Pooling keeps the channel count, so input plane
// p becomes output plane p. The group's scratch slot holds
// MaxPoolScratch floats, enough for the u8 chain's bytes too.
void MaxPoolLayer::Forward(const Tensor& input, Network& net, bool,
                           const ItemRange& items) {
  const int64_t planes = in_shape_.dim(0) * in_shape_.dim(1);
  if (inference()) {
    const int64_t first = items.begin * in_shape_.dim(1);
    const int64_t count = items.size() * in_shape_.dim(1);
    const int64_t in_plane = in_shape_.dim(2) * in_shape_.dim(3);
    const int64_t out_plane = out_shape_.dim(2) * out_shape_.dim(3);
    float* rows = net.workspace(items.slot, MaxPoolScratch(geom_));
    if (plan().out_dtype == DType::kU8) {
      // Quantize-once chain: pool the u8 bytes directly. The quantizer is
      // monotonic, so the byte max picks the same tap the fp32 max
      // would; an all-padding window writes the zero point (the exact
      // image of the fp32 path's 0.0f).
      MaxPoolU8(geom_, net.quant_act(index() - 1) + first * in_plane, count,
                static_cast<uint8_t>(plan().out_qzp),
                reinterpret_cast<uint8_t*>(rows),
                net.quant_act(index()) + first * out_plane);
    } else {
      MaxPoolF32(geom_, input.data() + first * in_plane, count, rows,
                 output_.data() + first * out_plane);
    }
    return;
  }

  // Training keeps the raster-order argmax loop over the whole batch:
  // Backward routes each output's delta through it, and it is the
  // kernel's fp32 oracle.
  const int64_t ih = in_shape_.dim(2);
  const int64_t iw = in_shape_.dim(3);
  const int64_t oh = out_shape_.dim(2);
  const int64_t ow = out_shape_.dim(3);
  const int64_t offset = -opts_.padding / 2;
  int64_t out_idx = 0;
  for (int64_t p = 0; p < planes; ++p) {
    const float* plane = input.data() + p * ih * iw;
    const int64_t plane_base = p * ih * iw;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x, ++out_idx) {
        float best = -FLT_MAX;
        int64_t best_idx = -1;
        for (int64_t ky = 0; ky < opts_.size; ++ky) {
          const int64_t sy = y * opts_.stride + offset + ky;
          if (sy < 0 || sy >= ih) continue;
          for (int64_t kx = 0; kx < opts_.size; ++kx) {
            const int64_t sx = x * opts_.stride + offset + kx;
            if (sx < 0 || sx >= iw) continue;
            const float v = plane[sy * iw + sx];
            if (v > best) {
              best = v;
              best_idx = plane_base + sy * iw + sx;
            }
          }
        }
        output_.data()[out_idx] = best_idx >= 0 ? best : 0.0f;
        argmax_[static_cast<size_t>(out_idx)] = best_idx;
      }
    }
  }
}

void MaxPoolLayer::Backward(const Tensor&, Tensor* input_delta, Network&) {
  if (input_delta == nullptr) return;
  float* id = input_delta->data();
  const float* d = delta_.data();
  for (int64_t i = 0; i < output_.size(); ++i) {
    const int64_t src = argmax_[static_cast<size_t>(i)];
    if (src >= 0) id[src] += d[i];
  }
}

}  // namespace thali
