#include "replay.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "bench_common.h"
#include "image/image_prepost.h"
#include "net/protocol.h"
#include "nn/conv_layer.h"
#include "tensor/gemm_int8.h"

namespace perfbench {

using thali::Detection;
using thali::Image;

namespace {

double P50(const Tracer& t, const char* name) {
  return thali::bench::Percentile(t.DurationsMs(name), 50);
}

// Multiply-adds x2 of every conv layer for one image, from weight and
// output tensor shapes.
double ConvOpsPerImage(thali::Network& net) {
  double ops = 0.0;
  for (int i = 0; i < net.num_layers(); ++i) {
    thali::Layer& layer = net.layer(i);
    if (std::string_view(layer.kind()) != "convolutional") continue;
    auto& conv = static_cast<thali::ConvLayer&>(layer);
    const thali::Shape& out = layer.output().shape();
    ops += 2.0 * static_cast<double>(conv.weights().size()) *
           static_cast<double>(out.dim(out.rank() - 2) * out.dim(out.rank() - 1));
  }
  return ops;
}

}  // namespace

void ReplayLayers(thali::Detector& det, const std::vector<Image>& images,
                  const ReplayOptions& options, Tracer* tracer,
                  std::map<std::string, double>* out) {
  thali::Network& net = det.network();
  const int nw = net.input_width();
  const int nh = net.input_height();
  const int64_t plane = static_cast<int64_t>(3) * nw * nh;
  const thali::ExecPlan& plan0 = net.exec_plan();
  const bool quantized_input = plan0.input_u8;
  const float inv_scale = 1.0f / plan0.input_qscale;
  const int32_t zp = plan0.input_qzp;
  const int32_t root = tracer->Begin("replay");

  // net: the request each image travels as, and its server-side decode.
  double bytes = 0.0;
  for (size_t i = 0; i < images.size(); ++i) {
    thali::net::DetectRequest req;
    req.image = images[i];
    std::vector<uint8_t> payload, frame;
    {
      ScopedSpan s(tracer, "net.encode", root, static_cast<int64_t>(i));
      payload = thali::net::EncodeDetectRequest(req);
      frame = thali::net::EncodeFrame(thali::net::Op::kDetect, payload);
    }
    bytes += static_cast<double>(frame.size());
    thali::net::DetectRequest decoded;
    {
      ScopedSpan s(tracer, "net.decode", root, static_cast<int64_t>(i));
      THALI_CHECK_OK(thali::net::DecodeDetectRequest(payload, &decoded));
    }
  }

  // image: the letterbox the plan's input path runs.
  {
    std::vector<uint8_t> q(static_cast<size_t>(plane));
    std::vector<float> f(static_cast<size_t>(plane));
    for (size_t i = 0; i < images.size(); ++i) {
      ScopedSpan s(tracer, "image.letterbox", root, static_cast<int64_t>(i));
      if (quantized_input) {
        thali::LetterboxIntoQuantizedPlanes(images[i], nw, nh, inv_scale, zp,
                                            q.data());
      } else {
        thali::LetterboxIntoPlanes(images[i], nw, nh, f.data());
      }
    }
  }

  // nn / eval: forward at the replay batch, then decode and NMS per image,
  // staging the input exactly as Detector::DetectBatch does.
  const int batch = std::max(1, options.batch);
  THALI_CHECK_OK(net.SetBatch(batch));
  thali::Tensor input(net.input_shape());
  const std::vector<thali::DetectionHead*> heads = HeadsOf(net);
  double candidates = 0.0, kept = 0.0, decoded_images = 0.0;
  for (size_t start = 0; start + batch <= images.size(); start += batch) {
    for (int b = 0; b < batch; ++b) {
      const Image& img = images[start + static_cast<size_t>(b)];
      const bool direct = img.width() == nw && img.height() == nh;
      if (quantized_input) {
        uint8_t* dst = net.quant_input() + b * plane;
        if (direct) {
          thali::Int8QuantizeActivations(img.data(), plane, inv_scale, zp, dst);
        } else {
          thali::LetterboxIntoQuantizedPlanes(img, nw, nh, inv_scale, zp, dst);
        }
      } else {
        float* dst = input.data() + b * plane;
        if (direct) {
          std::memcpy(dst, img.data(), static_cast<size_t>(plane) * 4);
        } else {
          thali::LetterboxIntoPlanes(img, nw, nh, dst);
        }
      }
    }
    if (quantized_input) net.set_input_prequantized(true);
    {
      ScopedSpan s(tracer, "nn.forward", root, static_cast<int64_t>(start));
      net.Forward(input, /*train=*/false);
    }
    for (int b = 0; b < batch; ++b) {
      const int64_t id = static_cast<int64_t>(start) + b;
      std::vector<Detection> all;
      {
        ScopedSpan s(tracer, "nn.head_decode", root, id);
        for (thali::DetectionHead* head : heads) {
          std::vector<Detection> d =
              head->GetDetections(b, options.conf, nw, nh);
          all.insert(all.end(), d.begin(), d.end());
        }
      }
      candidates += static_cast<double>(all.size());
      {
        ScopedSpan s(tracer, "eval.nms", root, id);
        kept += static_cast<double>(
            thali::Nms(std::move(all), options.nms).size());
      }
      decoded_images += 1.0;
    }
  }
  tracer->End(root);

  const double forward_ms = P50(*tracer, "nn.forward");
  (*out)["net.request_bytes"] = bytes / static_cast<double>(images.size());
  (*out)["net.encode_ms"] = P50(*tracer, "net.encode");
  (*out)["net.decode_ms"] = P50(*tracer, "net.decode");
  (*out)["image.letterbox_ms"] = P50(*tracer, "image.letterbox");
  (*out)["nn.forward_ms"] = forward_ms;
  (*out)["tensor.conv_gops"] =
      ConvOpsPerImage(net) * batch / (forward_ms * 1e-3) * 1e-9;
  (*out)["nn.activation_bytes"] = static_cast<double>(net.ActivationBytes());
  (*out)["nn.quantized_layers"] = net.exec_plan().quantized_layers;
  (*out)["nn.head_decode_ms"] = P50(*tracer, "nn.head_decode");
  (*out)["nn.decode_candidates"] =
      decoded_images > 0 ? candidates / decoded_images : 0.0;
  (*out)["eval.nms_ms"] = P50(*tracer, "eval.nms");
  (*out)["eval.nms_keep_ratio"] = candidates > 0 ? kept / candidates : 0.0;
}

}  // namespace perfbench
