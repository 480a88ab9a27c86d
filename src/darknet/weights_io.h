#ifndef THALI_DARKNET_WEIGHTS_IO_H_
#define THALI_DARKNET_WEIGHTS_IO_H_

#include <string>

#include "base/statusor.h"
#include "nn/network.h"

namespace thali {

// Darknet .weights binary serialization. Layout matches AlexeyAB Darknet:
//   int32 major, int32 minor, int32 revision,
//   uint64 seen (images trained on; uint32 when major*10+minor < 2),
//   then for each convolutional layer in network order:
//     biases[f], (if batch_normalize) scales[f], rolling_mean[f],
//     rolling_var[f], weights[f*c*k*k]
// all little-endian float32.
//
// Partial loading with `cutoff` reads only the first `cutoff` layers —
// Darknet's transfer-learning entry point (yolov4.conv.137 is exactly a
// weights file consumed with a cutoff).

// Saves all (or the first `cutoff`) layers' parameters.
Status SaveWeights(Network& net, const std::string& path,
                   uint64_t seen = 0, int cutoff = -1);

// Loads parameters into an already-built network. Layers beyond `cutoff`
// (or beyond the data present in the file) keep their current weights.
// Returns the number of conv layers loaded, or FailedPrecondition —
// touching nothing — when a conv within `cutoff` had its batch norm
// folded (ConvLayer::FoldBatchNorm, Detector::FuseBatchNorm).
StatusOr<int> LoadWeights(Network& net, const std::string& path,
                          int cutoff = -1);

// Reads the `seen` counter from a weights file header.
StatusOr<uint64_t> ReadWeightsSeen(const std::string& path);

}  // namespace thali

#endif  // THALI_DARKNET_WEIGHTS_IO_H_
