#include "core/detector.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "darknet/weights_io.h"
#include "image/image_prepost.h"
#include "nn/conv_layer.h"

namespace thali {

StatusOr<Detector> Detector::FromCfg(const std::string& cfg_text,
                                     uint64_t seed) {
  Rng rng(seed);
  THALI_ASSIGN_OR_RETURN(BuiltNetwork built,
                         BuildNetworkFromCfg(cfg_text, /*batch_override=*/1,
                                             rng, ExecMode::kInference));
  std::vector<DetectionHead*> heads(built.yolo_layers.begin(),
                                    built.yolo_layers.end());
  return Detector(std::move(built.net), std::move(heads));
}

StatusOr<Detector> Detector::FromFiles(const std::string& cfg_text,
                                       const std::string& weights_path,
                                       uint64_t seed) {
  THALI_ASSIGN_OR_RETURN(Detector det, FromCfg(cfg_text, seed));
  THALI_ASSIGN_OR_RETURN(int loaded,
                         LoadWeights(det.network(), weights_path));
  if (loaded == 0) return Status::Corruption("no layers loaded");
  return det;
}

Detector::Detector(std::unique_ptr<Network> net,
                   std::vector<DetectionHead*> heads, Options options)
    : net_(std::move(net)), heads_(std::move(heads)), opts_(options) {
  THALI_CHECK(net_ != nullptr);
  THALI_CHECK(!heads_.empty()) << "network has no detection heads";
  // The detector never reads head outputs directly — detections come
  // from GetDetections — so it opts into the raw-output head decode
  // (logit-space objectness pre-filter; see nn/yolo_layer.h).
  net_->set_defer_head_activation(true);
}

std::vector<Detection> CollectDetections(
    const std::vector<DetectionHead*>& heads, int b, float conf_threshold,
    float nms_threshold, int net_w, int net_h) {
  std::vector<Detection> all;
  for (DetectionHead* head : heads) {
    std::vector<Detection> dets =
        head->GetDetections(b, conf_threshold, net_w, net_h);
    all.insert(all.end(), dets.begin(), dets.end());
  }
  return Nms(std::move(all), nms_threshold);
}

std::vector<Detection> Detector::Detect(const Image& image) {
  return Detect(image, opts_.conf_threshold, opts_.nms_threshold);
}

std::vector<Detection> Detector::Detect(const Image& image,
                                        float conf_threshold,
                                        float nms_threshold) {
  const ImageView view = image;
  std::vector<std::vector<Detection>> per_image =
      DetectBatch(std::span<const ImageView>(&view, 1), conf_threshold,
                  nms_threshold);
  return std::move(per_image.front());
}

std::vector<std::vector<Detection>> Detector::DetectBatch(
    std::span<const ImageView> images) {
  return DetectBatch(images, opts_.conf_threshold, opts_.nms_threshold);
}

std::vector<std::vector<Detection>> Detector::DetectBatch(
    std::span<const Image> images) {
  return DetectBatch(images, opts_.conf_threshold, opts_.nms_threshold);
}

std::vector<std::vector<Detection>> Detector::DetectBatch(
    std::span<const Image> images, float conf_threshold,
    float nms_threshold) {
  const std::vector<ImageView> views(images.begin(), images.end());
  return DetectBatch(std::span<const ImageView>(views), conf_threshold,
                     nms_threshold);
}

namespace {

// Flips the Detector reentrancy flag for one detection call, trapping
// concurrent entry from a second thread.
class ReentrancyGuard {
 public:
  explicit ReentrancyGuard(std::atomic<bool>& flag) : flag_(flag) {
    THALI_CHECK(!flag_.exchange(true, std::memory_order_acquire))
        << "Detector entered concurrently: Detect/DetectBatch mutate the "
           "network, so each Detector admits one caller at a time (use one "
           "Detector per thread; see core/detector.h)";
  }
  ~ReentrancyGuard() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool>& flag_;
};

}  // namespace

Detector::SlotMapping Detector::LoadImageIntoSlot(ImageView image, int64_t b,
                                                  bool fused_quant) {
  const int nw = net_->input_width();
  const int nh = net_->input_height();
  const int64_t plane = static_cast<int64_t>(3) * nh * nw;
  THALI_CHECK_EQ(image.channels(), 3);
  SlotMapping m;
  m.direct = image.width() == nw && image.height() == nh;
  if (fused_quant) {
    // Quantized input chain: emit the slot's u8 bytes directly in the
    // plan's input domain. Same-size images go through the shared
    // quantizer alone; others through the fused letterbox-quantize.
    uint8_t* qdst = net_->quant_input() + b * plane;
    const float inv_scale = 1.0f / net_->exec_plan().input_qscale;
    const int32_t zp = net_->exec_plan().input_qzp;
    if (m.direct) {
      QuantizeIntoPlanes(image, inv_scale, zp, qdst);
    } else {
      const LetterboxGeometry g =
          LetterboxIntoQuantizedPlanes(image, nw, nh, inv_scale, zp, qdst);
      m.scale = g.scale;
      m.pad_x = g.pad_x;
      m.pad_y = g.pad_y;
    }
    return m;
  }
  float* dst = input_staging_.data() + b * plane;
  if (m.direct) {
    std::memcpy(dst, image.bytes(), static_cast<size_t>(plane) * sizeof(float));
  } else {
    // Table-driven letterbox straight into the staging slot — no
    // intermediate Image allocation.
    const LetterboxGeometry g = LetterboxIntoPlanes(image, nw, nh, dst);
    m.scale = g.scale;
    m.pad_x = g.pad_x;
    m.pad_y = g.pad_y;
  }
  return m;
}

std::vector<std::vector<Detection>> Detector::DetectBatch(
    std::span<const ImageView> images, float conf_threshold,
    float nms_threshold) {
  ReentrancyGuard guard(in_detect_);
  const int n = static_cast<int>(images.size());
  if (n == 0) return {};
  const int nw = net_->input_width();
  const int nh = net_->input_height();

  // Re-plan buffers when the request size differs from the current batch.
  if (net_->batch() != n) THALI_CHECK_OK(net_->SetBatch(n));

  const auto ms = [](auto d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  const auto t0 = std::chrono::steady_clock::now();

  // Each stage runs over the forward's item groups, so an item is
  // staged, forwarded and decoded by the same group. Letterbox + load
  // each image into its batch slot: slots are disjoint and letterboxing
  // is a pure per-item function, so groups change no result.
  std::vector<SlotMapping> mappings(static_cast<size_t>(n));
  if (!(input_staging_.shape() == net_->input_shape())) {
    input_staging_.Resize(net_->input_shape());
  }
  const bool fused_quant = net_->exec_plan().input_u8;
  net_->ForEachGroup([&](const ItemRange& items) {
    for (int64_t b = items.begin; b < items.end; ++b) {
      mappings[static_cast<size_t>(b)] =
          LoadImageIntoSlot(images[static_cast<size_t>(b)], b, fused_quant);
    }
  });
  if (fused_quant) net_->set_input_prequantized(true);

  const auto t1 = std::chrono::steady_clock::now();
  net_->Forward(input_staging_, /*train=*/false);
  const auto t2 = std::chrono::steady_clock::now();

  // Decode and NMS per item: both only read the head outputs.
  std::vector<std::vector<Detection>> results(static_cast<size_t>(n));
  net_->ForEachGroup([&](const ItemRange& items) {
    for (int64_t b = items.begin; b < items.end; ++b) {
      std::vector<Detection> dets =
          CollectDetections(heads_, static_cast<int>(b), conf_threshold,
                            nms_threshold, nw, nh);
      const SlotMapping& m = mappings[static_cast<size_t>(b)];
      if (!m.direct) {
        // Map boxes from network frame back into image-normalized frame.
        const ImageView& image = images[static_cast<size_t>(b)];
        for (Detection& d : dets) {
          const float px = d.box.x * nw - m.pad_x;
          const float py = d.box.y * nh - m.pad_y;
          d.box.x = px / m.scale / image.width();
          d.box.y = py / m.scale / image.height();
          d.box.w = d.box.w * nw / m.scale / image.width();
          d.box.h = d.box.h * nh / m.scale / image.height();
        }
      }
      results[static_cast<size_t>(b)] = std::move(dets);
    }
  });
  const auto t3 = std::chrono::steady_clock::now();
  stage_times_ = {ms(t1 - t0), ms(t2 - t1), ms(t3 - t2)};
  return results;
}

void Detector::FuseBatchNorm() {
  for (int i = 0; i < net_->num_layers(); ++i) {
    if (std::string_view(net_->layer(i).kind()) == "convolutional") {
      static_cast<ConvLayer&>(net_->layer(i)).FoldBatchNorm();
    }
  }
  THALI_CHECK_OK(net_->ReplanInference());
}

void Detector::ForwardImage(const Image& image) {
  if (net_->batch() != 1) THALI_CHECK_OK(net_->SetBatch(1));
  if (!(input_staging_.shape() == net_->input_shape())) {
    input_staging_.Resize(net_->input_shape());
  }
  LoadImageIntoSlot(image, 0, /*fused_quant=*/false);
  net_->Forward(input_staging_, /*train=*/false);
}

int Detector::CalibrateInt8(const FoodDataset& dataset,
                            std::span<const int> indices,
                            const Int8CalibrationOptions& options) {
  ReentrancyGuard guard(in_detect_);
  // The quantized path runs on folded weights; fold first so the
  // observed ranges describe the network int8 actually executes.
  // (FoldBatchNorm is a per-layer no-op once folded.)
  FuseBatchNorm();
  std::vector<ConvLayer*> eligible;
  for (int i = 0; i < net_->num_layers(); ++i) {
    Layer& l = net_->layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    if (!l.plan().quantizable) continue;
    eligible.push_back(static_cast<ConvLayer*>(&l));
  }
  if (eligible.empty() || indices.empty()) return 0;
  // Ranges from a previous calibration are dropped; the calibration
  // phases below replan every conv onto its fp32 algorithm anyway.
  for (ConvLayer* conv : eligible) conv->ResetCalibration();

  const int limit = std::min(static_cast<int>(indices.size()),
                             std::max(1, options.max_images));
  const auto run_pass = [&](CalibPhase phase) {
    net_->set_calib_phase(phase);
    for (int i = 0; i < limit; ++i) {
      ForwardImage(dataset.item(indices[static_cast<size_t>(i)]).image);
    }
    net_->set_calib_phase(CalibPhase::kOff);
  };
  run_pass(CalibPhase::kRange);
  const bool percentile =
      options.mode == Int8CalibrationOptions::Mode::kPercentile;
  if (percentile) run_pass(CalibPhase::kHist);

  int armed = 0;
  for (ConvLayer* conv : eligible) {
    conv->FinalizeCalibration(percentile ? options.percentile : 100.0);
    if (conv->has_activation_range()) ++armed;
  }
  // The freshly installed ranges arm the quantized algorithms and their
  // quantize-once chains; recompile the plan so the next Forward runs
  // them.
  THALI_CHECK_OK(net_->ReplanInference());
  return armed;
}

}  // namespace thali
