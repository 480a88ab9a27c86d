#include "baseline/ssd_head_layer.h"

#include <algorithm>
#include <cmath>

#include "nn/network.h"
#include "tensor/ops.h"

namespace thali {

Status SsdHeadLayer::Configure(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4) {
    return Status::InvalidArgument("ssd head input must be NCHW");
  }
  if (opts_.anchors.empty() || opts_.classes <= 0) {
    return Status::InvalidArgument("ssd head needs anchors and classes");
  }
  const int64_t want =
      static_cast<int64_t>(opts_.anchors.size()) * (5 + opts_.classes);
  if (input_shape.dim(1) != want) {
    return Status::InvalidArgument("ssd head channel mismatch");
  }
  return SetShapes(input_shape, input_shape);
}

int64_t SsdHeadLayer::Entry(int64_t b, int64_t n, int64_t attr, int64_t y,
                            int64_t x) const {
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const int64_t c = out_shape_.dim(1);
  return ((b * c + n * (5 + opts_.classes) + attr) * gh + y) * gw + x;
}

void SsdHeadLayer::Forward(const Tensor& input, Network&, bool,
                           const ItemRange& items) {
  // A head's input is NCHW, so the group's items are one run.
  const int64_t item = in_shape_.dim(1) * in_shape_.dim(2) * in_shape_.dim(3);
  std::copy(input.data() + items.begin * item, input.data() + items.end * item,
            output_.data() + items.begin * item);
  const int64_t spatial = out_shape_.dim(2) * out_shape_.dim(3);
  const int64_t n_anchors = static_cast<int64_t>(opts_.anchors.size());
  for (int64_t b = items.begin; b < items.end; ++b) {
    for (int64_t n = 0; n < n_anchors; ++n) {
      for (int64_t attr = 0; attr < 5 + opts_.classes; ++attr) {
        if (attr == 2 || attr == 3) continue;  // w,h stay raw
        float* p = output_.data() + Entry(b, n, attr, 0, 0);
        for (int64_t i = 0; i < spatial; ++i) p[i] = Sigmoid(p[i]);
      }
    }
  }
}

void SsdHeadLayer::Backward(const Tensor&, Tensor* input_delta, Network&) {
  if (input_delta == nullptr) return;
  float* id = input_delta->data();
  const float* d = delta_.data();
  for (int64_t i = 0; i < delta_.size(); ++i) id[i] += d[i];
}

Box SsdHeadLayer::PredBox(int64_t b, int64_t n, int64_t y, int64_t x,
                          int net_w, int net_h) const {
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const auto& anchor = opts_.anchors[static_cast<size_t>(n)];
  Box box;
  box.x = (static_cast<float>(x) + output_[Entry(b, n, 0, y, x)]) / gw;
  box.y = (static_cast<float>(y) + output_[Entry(b, n, 1, y, x)]) / gh;
  box.w = anchor.first * std::exp(output_[Entry(b, n, 2, y, x)]) / net_w;
  box.h = anchor.second * std::exp(output_[Entry(b, n, 3, y, x)]) / net_h;
  return box;
}

HeadLossStats SsdHeadLayer::ComputeLoss(const TruthBatch& truths, int net_w,
                                        int net_h) {
  const int64_t batch = out_shape_.dim(0);
  THALI_CHECK_EQ(static_cast<int64_t>(truths.size()), batch);
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const int64_t n_anchors = static_cast<int64_t>(opts_.anchors.size());

  HeadLossStats stats;
  float iou_sum = 0.0f;

  // Background objectness everywhere (no ignore region — one of the
  // classic pipeline's weaknesses on crowded platters).
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t n = 0; n < n_anchors; ++n) {
      float* d = delta_.data() + Entry(b, n, 4, 0, 0);
      const float* o = output_.data() + Entry(b, n, 4, 0, 0);
      for (int64_t i = 0; i < gh * gw; ++i) {
        d[i] = o[i] * opts_.obj_scale;
        stats.obj += -std::log(std::clamp(1.0f - o[i], 1e-7f, 1.0f)) *
                     opts_.obj_scale;
      }
    }
  }

  for (int64_t b = 0; b < batch; ++b) {
    for (const TruthBox& t : truths[static_cast<size_t>(b)]) {
      if (t.box.w <= 0 || t.box.h <= 0) continue;
      const int64_t cx =
          std::clamp<int64_t>(static_cast<int64_t>(t.box.x * gw), 0, gw - 1);
      const int64_t cy =
          std::clamp<int64_t>(static_cast<int64_t>(t.box.y * gh), 0, gh - 1);
      // Best anchor by wh-IoU.
      int best = 0;
      float best_wh = -1.0f;
      for (int64_t a = 0; a < n_anchors; ++a) {
        const float wh =
            WhIou(t.box.w * net_w, t.box.h * net_h,
                  opts_.anchors[static_cast<size_t>(a)].first,
                  opts_.anchors[static_cast<size_t>(a)].second);
        if (wh > best_wh) {
          best_wh = wh;
          best = static_cast<int>(a);
        }
      }
      const int64_t n = best;
      const auto& anchor = opts_.anchors[static_cast<size_t>(n)];

      // MSE on the transform coordinates.
      const float tx = t.box.x * gw - static_cast<float>(cx);
      const float ty = t.box.y * gh - static_cast<float>(cy);
      const float tw = std::log(std::max(t.box.w * net_w / anchor.first,
                                         1e-6f));
      const float th = std::log(std::max(t.box.h * net_h / anchor.second,
                                         1e-6f));

      const float sx = output_[Entry(b, n, 0, cy, cx)];
      const float sy = output_[Entry(b, n, 1, cy, cx)];
      const float rw = output_[Entry(b, n, 2, cy, cx)];
      const float rh = output_[Entry(b, n, 3, cy, cx)];

      // d(MSE)/dlogit for the sigmoid-activated coords includes sigma'.
      delta_[Entry(b, n, 0, cy, cx)] +=
          opts_.box_scale * (sx - tx) * sx * (1.0f - sx);
      delta_[Entry(b, n, 1, cy, cx)] +=
          opts_.box_scale * (sy - ty) * sy * (1.0f - sy);
      delta_[Entry(b, n, 2, cy, cx)] += opts_.box_scale * (rw - tw);
      delta_[Entry(b, n, 3, cy, cx)] += opts_.box_scale * (rh - th);
      stats.box += 0.5f * opts_.box_scale *
                   ((sx - tx) * (sx - tx) + (sy - ty) * (sy - ty) +
                    (rw - tw) * (rw - tw) + (rh - th) * (rh - th));

      const float obj = output_[Entry(b, n, 4, cy, cx)];
      // Replace the background term this cell received in the first pass
      // (delta and loss value alike) with the positive target.
      stats.obj -= -std::log(std::clamp(1.0f - obj, 1e-7f, 1.0f)) *
                   opts_.obj_scale;
      delta_[Entry(b, n, 4, cy, cx)] = (obj - 1.0f) * opts_.obj_scale;
      stats.obj +=
          -std::log(std::clamp(obj, 1e-7f, 1.0f)) * opts_.obj_scale;

      for (int c = 0; c < opts_.classes; ++c) {
        const float p = output_[Entry(b, n, 5 + c, cy, cx)];
        const float target = c == t.class_id ? 1.0f : 0.0f;
        delta_[Entry(b, n, 5 + c, cy, cx)] = (p - target) * opts_.cls_scale;
        const float pc =
            std::clamp(target > 0.5f ? p : 1.0f - p, 1e-7f, 1.0f);
        stats.cls += -std::log(pc) * opts_.cls_scale;
      }

      iou_sum += Iou(PredBox(b, n, cy, cx, net_w, net_h), t.box);
      ++stats.assigned;
    }
  }
  stats.avg_iou = stats.assigned > 0 ? iou_sum / stats.assigned : 0.0f;
  stats.total = stats.box + stats.obj + stats.cls;
  return stats;
}

std::vector<Detection> SsdHeadLayer::GetDetections(int b, float conf_thresh,
                                                   int net_w,
                                                   int net_h) const {
  std::vector<Detection> dets;
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const int64_t n_anchors = static_cast<int64_t>(opts_.anchors.size());
  for (int64_t n = 0; n < n_anchors; ++n) {
    for (int64_t y = 0; y < gh; ++y) {
      for (int64_t x = 0; x < gw; ++x) {
        const float obj = output_[Entry(b, n, 4, y, x)];
        if (obj < conf_thresh) continue;
        const Box box = PredBox(b, n, y, x, net_w, net_h);
        for (int c = 0; c < opts_.classes; ++c) {
          const float conf = obj * output_[Entry(b, n, 5 + c, y, x)];
          if (conf < conf_thresh) continue;
          dets.push_back({box, c, conf});
        }
      }
    }
  }
  return dets;
}

}  // namespace thali
