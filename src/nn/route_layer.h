#ifndef THALI_NN_ROUTE_LAYER_H_
#define THALI_NN_ROUTE_LAYER_H_

#include <vector>

#include "nn/layer.h"

namespace thali {

// Darknet's `[route]`: concatenates the outputs of earlier layers along
// the channel axis. With groups > 1, each source contributes only channel
// group `group_id` of `groups` equal slices — the channel-split that CSP
// blocks are built from.
class RouteLayer : public Layer {
 public:
  struct Options {
    std::vector<int> layers;  // absolute or negative (relative) indices
    int groups = 1;
    int group_id = 0;
  };

  explicit RouteLayer(const Options& options) : opts_(options) {}

  const char* kind() const override { return "route"; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train,
               const ItemRange& items) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;
  // Route reads only its source layers, never the `input` argument.
  std::vector<int> ExtraInputIndices() const override { return sources_; }
  bool ReadsPreviousOutput() const override { return false; }

  const std::vector<int>& source_indices() const { return sources_; }
  // Channels taken from / channel offset within each source — the plan
  // compiler reads these to decide view aliasing and concat adoption.
  const std::vector<int64_t>& source_channels() const { return src_chans_; }
  const std::vector<int64_t>& source_offsets() const { return src_offset_; }

 private:
  Options opts_;
  std::vector<int> sources_;        // resolved absolute indices
  std::vector<int64_t> src_chans_;  // channels taken from each source
  std::vector<int64_t> src_offset_; // channel offset within each source
};

}  // namespace thali

#endif  // THALI_NN_ROUTE_LAYER_H_
