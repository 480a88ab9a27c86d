#include "darknet/calibration_io.h"

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "base/file_util.h"
#include "nn/conv_layer.h"

namespace thali {

namespace {

constexpr char kMagic[8] = {'T', 'H', 'A', 'L', 'I', 'C', 'A', 'L'};
constexpr int32_t kVersion = 1;

struct Entry {
  int32_t layer_index;
  float range_min;
  float range_max;
};

void AppendRaw(std::string& out, const void* p, size_t n) {
  out.append(reinterpret_cast<const char*>(p), n);
}

}  // namespace

Status SaveCalibration(const Network& net, const std::string& path) {
  if (!net.finalized()) return Status::FailedPrecondition("net not finalized");
  std::vector<Entry> entries;
  for (int i = 0; i < net.num_layers(); ++i) {
    const Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    const auto& conv = static_cast<const ConvLayer&>(l);
    if (!conv.has_activation_range()) continue;
    entries.push_back({i, conv.activation_range_min(),
                       conv.activation_range_max()});
  }
  std::string out;
  AppendRaw(out, kMagic, sizeof(kMagic));
  AppendRaw(out, &kVersion, sizeof(kVersion));
  const int32_t count = static_cast<int32_t>(entries.size());
  AppendRaw(out, &count, sizeof(count));
  for (const Entry& e : entries) AppendRaw(out, &e, sizeof(e));
  return WriteStringToFile(path, out);
}

StatusOr<int> LoadCalibration(Network& net, const std::string& path) {
  if (!net.finalized()) return Status::FailedPrecondition("net not finalized");
  // Read in place: GCC 12 flags a string moved out of the StatusOr as
  // maybe-uninitialized.
  const StatusOr<std::string> file = ReadFileToString(path);
  if (!file.ok()) return file.status();
  const std::string& data = *file;
  size_t pos = 0;
  auto read = [&](void* dst, size_t n) -> bool {
    if (pos + n > data.size()) return false;
    std::memcpy(dst, data.data() + pos, n);
    pos += n;
    return true;
  };
  char magic[8];
  int32_t version = 0, count = 0;
  if (!read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a calibration file");
  }
  if (!read(&version, sizeof(version)) || version != kVersion) {
    return Status::Corruption("unsupported calibration version");
  }
  // The entry count must fit in the bytes that are left before it sizes
  // anything.
  if (!read(&count, sizeof(count)) || count < 0 ||
      static_cast<size_t>(count) > (data.size() - pos) / sizeof(Entry)) {
    return Status::Corruption("calibration file truncated");
  }
  // Validate every entry first, then install: a bad entry must not leave
  // the entries before it armed.
  std::vector<Entry> entries(static_cast<size_t>(count));
  for (Entry& e : entries) {
    read(&e, sizeof(e));
    if (e.layer_index < 0 || e.layer_index >= net.num_layers() ||
        std::string_view(net.layer(e.layer_index).kind()) !=
            "convolutional") {
      return Status::Corruption("calibration entry does not match network");
    }
    if (!(e.range_min <= e.range_max)) {  // also rejects NaN
      return Status::Corruption("calibration entry has an invalid range");
    }
  }
  for (const Entry& e : entries) {
    static_cast<ConvLayer&>(net.layer(e.layer_index))
        .SetActivationRange(e.range_min, e.range_max);
  }
  // Installed ranges enable quantize-once chaining; recompile the plan
  // so the chains take effect before the next Forward.
  THALI_RETURN_IF_ERROR(net.ReplanInference());
  return count;
}

}  // namespace thali
