#include "nn/route_layer.h"

#include "nn/network.h"

namespace thali {

Status RouteLayer::Configure(const Shape& input_shape, const Network& net) {
  if (opts_.layers.empty()) {
    return Status::InvalidArgument("route needs at least one source");
  }
  if (opts_.groups <= 0 || opts_.group_id < 0 ||
      opts_.group_id >= opts_.groups) {
    return Status::InvalidArgument("bad route groups");
  }
  sources_.clear();
  src_chans_.clear();
  src_offset_.clear();

  int64_t out_c = 0;
  int64_t h = -1, w = -1;
  for (int ref : opts_.layers) {
    const int idx = ref < 0 ? index() + ref : ref;
    if (idx < 0 || idx >= index() || idx >= net.num_layers()) {
      return Status::InvalidArgument("route source must precede the route");
    }
    const Shape& s = net.layer(idx).output_shape();
    if (s.dim(1) % opts_.groups != 0) {
      return Status::InvalidArgument("route source channels not divisible");
    }
    const int64_t take = s.dim(1) / opts_.groups;
    if (h < 0) {
      h = s.dim(2);
      w = s.dim(3);
    } else if (h != s.dim(2) || w != s.dim(3)) {
      return Status::InvalidArgument("route sources disagree on spatial size");
    }
    sources_.push_back(idx);
    src_chans_.push_back(take);
    src_offset_.push_back(take * opts_.group_id);
    out_c += take;
  }
  return SetShapes(input_shape, Shape({input_shape.dim(0), out_c, h, w}));
}

void RouteLayer::Forward(const Tensor&, Network& net, bool,
                         const ItemRange& items) {
  // Elided by the plan compiler: output_ is bound as a view of the
  // source (group split) or the sources already wrote into this block
  // (concat adoption) — there is nothing to move.
  if (plan().copy_elided) return;

  // Each source's channel slice of the group's items: one copy per item
  // and source.
  const int64_t spatial = out_shape_.dim(2) * out_shape_.dim(3);
  const int64_t out_c = out_shape_.dim(1);
  const auto concat = [&](auto* out, auto source_of) {
    int64_t chan_base = 0;
    for (size_t s = 0; s < sources_.size(); ++s) {
      const auto* src = source_of(sources_[s]);
      const int64_t src_c = net.layer(sources_[s]).output_shape().dim(1);
      for (int64_t b = items.begin; b < items.end; ++b) {
        const auto* from = src + (b * src_c + src_offset_[s]) * spatial;
        std::copy(from, from + src_chans_[s] * spatial,
                  out + (b * out_c + chan_base) * spatial);
      }
      chan_base += src_chans_[s];
    }
  };
  if (plan().out_dtype == DType::kU8) {
    // Quantize-once chain: concatenate the sources' u8 bytes. The dtype
    // pass guarantees every source shares this layer's dtype (and
    // quantization domain).
    concat(net.quant_act(index()),
           [&net](int i) -> const uint8_t* { return net.quant_act(i); });
  } else {
    concat(output_.data(), [&net](int i) -> const float* {
      return net.layer(i).output().data();
    });
  }
}

void RouteLayer::Backward(const Tensor&, Tensor*, Network& net) {
  const int64_t batch = out_shape_.dim(0);
  const int64_t spatial = out_shape_.dim(2) * out_shape_.dim(3);
  const int64_t out_c = out_shape_.dim(1);

  int64_t chan_base = 0;
  for (size_t s = 0; s < sources_.size(); ++s) {
    Tensor& src_delta = net.layer(sources_[s]).delta();
    const int64_t src_c = net.layer(sources_[s]).output_shape().dim(1);
    for (int64_t b = 0; b < batch; ++b) {
      const float* from = delta_.data() + (b * out_c + chan_base) * spatial;
      float* to = src_delta.data() + (b * src_c + src_offset_[s]) * spatial;
      const int64_t n = src_chans_[s] * spatial;
      for (int64_t i = 0; i < n; ++i) to[i] += from[i];
    }
    chan_base += src_chans_[s];
  }
}

}  // namespace thali
