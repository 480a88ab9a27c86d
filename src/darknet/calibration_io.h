#ifndef THALI_DARKNET_CALIBRATION_IO_H_
#define THALI_DARKNET_CALIBRATION_IO_H_

#include <string>

#include "base/statusor.h"
#include "nn/network.h"

namespace thali {

// Persistence for int8 activation-calibration results, styled after the
// .weights serialization (weights_io.h): a calibration run is expensive
// relative to model load, so deployments calibrate once and ship the
// ranges next to the weights file.
//
// Binary layout (little-endian):
//   char magic[8] = "THALICAL", int32 version = 1, int32 count,
//   then `count` entries of { int32 layer_index, float range_min,
//   float range_max } — one per conv layer that holds a calibrated
//   activation range, in network order.

// Saves every calibrated conv layer's activation range.
Status SaveCalibration(const Network& net, const std::string& path);

// Installs saved ranges into an already-built network (layer indices
// must match the cfg the file was calibrated against) and replans, so
// loading a calibration file is an int8 opt-in like
// Detector::CalibrateInt8. Every entry is validated before any range is
// installed: on error the network is left untouched. Returns the number
// of conv layers armed.
StatusOr<int> LoadCalibration(Network& net, const std::string& path);

}  // namespace thali

#endif  // THALI_DARKNET_CALIBRATION_IO_H_
