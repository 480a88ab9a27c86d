#include "nn/shortcut_layer.h"

#include "nn/network.h"

namespace thali {

Status ShortcutLayer::Configure(const Shape& input_shape, const Network& net) {
  from_ = opts_.from < 0 ? index() + opts_.from : opts_.from;
  if (from_ < 0 || from_ >= index()) {
    return Status::InvalidArgument("shortcut source must precede it");
  }
  const Shape& from_shape = net.layer(from_).output_shape();
  if (from_shape != input_shape) {
    return Status::InvalidArgument(
        "shortcut shape mismatch: " + from_shape.ToString() + " vs " +
        input_shape.ToString());
  }
  THALI_RETURN_IF_ERROR(SetShapes(input_shape, input_shape));
  if (opts_.activation != Activation::kLinear && !inference()) {
    pre_activation_.Resize(out_shape_);
  }
  return Status::OK();
}

// Elementwise over the group's items, elements [begin*CHW, end*CHW).
// When the plan elided this layer's copy, output_ aliases the previous
// layer's block: each o[i] reads a[i] before overwriting it, so the
// in-place add needs no special casing.
void ShortcutLayer::Forward(const Tensor& input, Network& net, bool,
                            const ItemRange& items) {
  const int64_t item = out_shape_.num_elements() / out_shape_.dim(0);
  const int64_t i0 = items.begin * item;
  const int64_t i1 = items.end * item;
  if (plan().out_dtype == DType::kU8) {
    // Quantize-once chain (linear-activation shortcuts only, per the
    // dtype pass). Both inputs share the output's quantization domain,
    // so with q = rne(x/s) + zp the fp32 sum maps to a + b - zp,
    // saturated to the 7-bit activation range. In-place elision is safe
    // for the same reason as the fp32 path: o[i] reads a[i] first.
    const uint8_t* a = net.quant_act(index() - 1);
    const uint8_t* b = net.quant_act(from_);
    uint8_t* o = net.quant_act(index());
    const int zp = plan().out_qzp;
    for (int64_t i = i0; i < i1; ++i) {
      const int v = static_cast<int>(a[i]) + static_cast<int>(b[i]) - zp;
      o[i] = static_cast<uint8_t>(v < 0 ? 0 : (v > 127 ? 127 : v));
    }
    return;
  }
  const float* a = input.data();
  const float* b = net.layer(from_).output().data();
  float* o = output_.data();
  for (int64_t i = i0; i < i1; ++i) o[i] = a[i] + b[i];
  if (opts_.activation != Activation::kLinear) {
    if (!inference()) {
      std::copy(o + i0, o + i1, pre_activation_.data() + i0);
    }
    ApplyActivation(opts_.activation, o + i0, i1 - i0);
  }
}

void ShortcutLayer::Backward(const Tensor&, Tensor* input_delta,
                             Network& net) {
  if (opts_.activation != Activation::kLinear) {
    GradientActivation(opts_.activation, pre_activation_.data(), delta_.data(),
                       delta_.size());
  }
  const float* d = delta_.data();
  const int64_t n = delta_.size();
  if (input_delta != nullptr) {
    float* id = input_delta->data();
    for (int64_t i = 0; i < n; ++i) id[i] += d[i];
  }
  float* fd = net.layer(from_).delta().data();
  for (int64_t i = 0; i < n; ++i) fd[i] += d[i];
}

}  // namespace thali
