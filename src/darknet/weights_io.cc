#include "darknet/weights_io.h"

#include <cstdint>
#include <cstring>
#include <string>

#include "base/file_util.h"
#include "base/string_util.h"
#include "nn/conv_layer.h"

namespace thali {

namespace {

constexpr int32_t kMajor = 0;
constexpr int32_t kMinor = 2;
constexpr int32_t kRevision = 5;

void AppendRaw(std::string& out, const void* p, size_t n) {
  out.append(reinterpret_cast<const char*>(p), n);
}

void AppendTensor(std::string& out, const Tensor& t) {
  AppendRaw(out, t.data(), static_cast<size_t>(t.size()) * sizeof(float));
}

class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  Status Read(void* dst, size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::Corruption("weights file truncated");
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status ReadTensor(Tensor& t) {
    return Read(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
  }

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace

Status SaveWeights(Network& net, const std::string& path, uint64_t seen,
                   int cutoff) {
  if (!net.finalized()) return Status::FailedPrecondition("net not finalized");
  std::string out;
  AppendRaw(out, &kMajor, sizeof(kMajor));
  AppendRaw(out, &kMinor, sizeof(kMinor));
  AppendRaw(out, &kRevision, sizeof(kRevision));
  AppendRaw(out, &seen, sizeof(seen));

  const int limit = cutoff < 0 ? net.num_layers() : cutoff;
  for (int i = 0; i < net.num_layers() && i < limit; ++i) {
    Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    auto& conv = static_cast<ConvLayer&>(l);
    AppendTensor(out, conv.biases());
    if (conv.options().batch_normalize) {
      AppendTensor(out, conv.scales());
      AppendTensor(out, conv.rolling_mean());
      AppendTensor(out, conv.rolling_var());
    }
    AppendTensor(out, conv.weights());
  }
  return WriteStringToFile(path, out);
}

StatusOr<int> LoadWeights(Network& net, const std::string& path, int cutoff) {
  if (!net.finalized()) return Status::FailedPrecondition("net not finalized");
  // Read in place: GCC 12 flags a string moved out of the StatusOr as
  // maybe-uninitialized.
  const StatusOr<std::string> file = ReadFileToString(path);
  if (!file.ok()) return file.status();
  Reader r(*file);

  int32_t major = 0, minor = 0, revision = 0;
  THALI_RETURN_IF_ERROR(r.Read(&major, sizeof(major)));
  THALI_RETURN_IF_ERROR(r.Read(&minor, sizeof(minor)));
  THALI_RETURN_IF_ERROR(r.Read(&revision, sizeof(revision)));
  if (major * 10 + minor >= 2) {
    uint64_t seen = 0;
    THALI_RETURN_IF_ERROR(r.Read(&seen, sizeof(seen)));
  } else {
    uint32_t seen32 = 0;
    THALI_RETURN_IF_ERROR(r.Read(&seen32, sizeof(seen32)));
  }

  const int limit = cutoff < 0 ? net.num_layers() : cutoff;
  // A folded conv no longer holds the batch-norm tensors its cfg's
  // .weights layout carries, so every later tensor would be read from
  // the wrong offset.
  for (int i = 0; i < net.num_layers() && i < limit; ++i) {
    const Layer& l = net.layer(i);
    if (std::string_view(l.kind()) == "convolutional" &&
        static_cast<const ConvLayer&>(l).folded()) {
      return Status::FailedPrecondition(StrFormat(
          "conv layer %d has folded batch norm; load weights before "
          "folding",
          i));
    }
  }
  int loaded = 0;
  for (int i = 0; i < net.num_layers() && i < limit; ++i) {
    Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    if (r.AtEnd()) break;  // shorter checkpoint (e.g. backbone-only file)
    auto& conv = static_cast<ConvLayer&>(l);
    const size_t need =
        sizeof(float) *
        static_cast<size_t>(
            conv.biases().size() +
            (conv.options().batch_normalize ? 3 * conv.scales().size() : 0) +
            conv.weights().size());
    if (r.remaining() < need) {
      return Status::Corruption(
          StrFormat("weights truncated at conv layer %d", i));
    }
    THALI_RETURN_IF_ERROR(r.ReadTensor(conv.biases()));
    if (conv.options().batch_normalize) {
      THALI_RETURN_IF_ERROR(r.ReadTensor(conv.scales()));
      THALI_RETURN_IF_ERROR(r.ReadTensor(conv.rolling_mean()));
      THALI_RETURN_IF_ERROR(r.ReadTensor(conv.rolling_var()));
    }
    THALI_RETURN_IF_ERROR(r.ReadTensor(conv.weights()));
    conv.MarkWeightsDirty();  // inference nets re-pack on the next Forward
    ++loaded;
  }
  return loaded;
}

StatusOr<uint64_t> ReadWeightsSeen(const std::string& path) {
  const StatusOr<std::string> file = ReadFileToString(path);
  if (!file.ok()) return file.status();
  Reader r(*file);
  int32_t major = 0, minor = 0, revision = 0;
  THALI_RETURN_IF_ERROR(r.Read(&major, sizeof(major)));
  THALI_RETURN_IF_ERROR(r.Read(&minor, sizeof(minor)));
  THALI_RETURN_IF_ERROR(r.Read(&revision, sizeof(revision)));
  if (major * 10 + minor >= 2) {
    uint64_t seen = 0;
    THALI_RETURN_IF_ERROR(r.Read(&seen, sizeof(seen)));
    return seen;
  }
  uint32_t seen32 = 0;
  THALI_RETURN_IF_ERROR(r.Read(&seen32, sizeof(seen32)));
  return static_cast<uint64_t>(seen32);
}

}  // namespace thali
