#include "nn/yolo_layer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/network.h"
#include "tensor/act_kernels.h"
#include "tensor/ops.h"

namespace thali {

Status YoloLayer::Configure(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4) {
    return Status::InvalidArgument("yolo input must be NCHW");
  }
  if (opts_.mask.empty() || opts_.classes <= 0) {
    return Status::InvalidArgument("yolo needs mask and classes");
  }
  for (int m : opts_.mask) {
    if (m < 0 || m >= static_cast<int>(opts_.anchors.size())) {
      return Status::InvalidArgument("yolo mask index out of range");
    }
  }
  const int64_t want =
      static_cast<int64_t>(opts_.mask.size()) * (5 + opts_.classes);
  if (input_shape.dim(1) != want) {
    return Status::InvalidArgument(
        "yolo input channels mismatch: got " +
        std::to_string(input_shape.dim(1)) + ", want " + std::to_string(want));
  }
  return SetShapes(input_shape, input_shape);
}

int64_t YoloLayer::Entry(int64_t b, int64_t n, int64_t attr, int64_t y,
                         int64_t x) const {
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const int64_t c = out_shape_.dim(1);
  const int64_t chan = n * (5 + opts_.classes) + attr;
  return ((b * c + chan) * gh + y) * gw + x;
}

void YoloLayer::BeginForward(const Network& net, bool train) {
  // Fast decode path: leave the raw values in place and let
  // GetDetections pre-filter in logit space, sigmoiding only survivors.
  // Opt-in via the network flag because the raw output is observable to
  // anyone reading output() directly; only owners that never do (the
  // detector) set it. Training forwards always activate — ComputeLoss
  // reads the sigmoided planes.
  raw_output_ = !train && inference() && net.defer_head_activation();
}

void YoloLayer::Forward(const Tensor& input, Network&, bool,
                        const ItemRange& items) {
  // The plan pins a head's input NCHW, so the group's items are one run.
  const int64_t item = in_shape_.dim(1) * in_shape_.dim(2) * in_shape_.dim(3);
  std::copy(input.data() + items.begin * item, input.data() + items.end * item,
            output_.data() + items.begin * item);
  if (raw_output_) return;
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const int64_t spatial = gh * gw;
  const float s = opts_.scale_x_y;
  const int64_t n_anchors = static_cast<int64_t>(opts_.mask.size());

  for (int64_t b = items.begin; b < items.end; ++b) {
    for (int64_t n = 0; n < n_anchors; ++n) {
      // x, y planes: scaled sigmoid.
      for (int64_t attr = 0; attr < 2; ++attr) {
        float* p = output_.data() + Entry(b, n, attr, 0, 0);
        for (int64_t i = 0; i < spatial; ++i) {
          p[i] = Sigmoid(p[i]) * s - 0.5f * (s - 1.0f);
        }
      }
      // objectness + class planes: plain sigmoid.
      for (int64_t attr = 4; attr < 5 + opts_.classes; ++attr) {
        float* p = output_.data() + Entry(b, n, attr, 0, 0);
        for (int64_t i = 0; i < spatial; ++i) p[i] = Sigmoid(p[i]);
      }
    }
  }
}

void YoloLayer::Backward(const Tensor&, Tensor* input_delta, Network&) {
  if (input_delta == nullptr) return;
  // delta_ already holds dL/d(raw input); accumulate.
  float* id = input_delta->data();
  const float* d = delta_.data();
  for (int64_t i = 0; i < delta_.size(); ++i) id[i] += d[i];
}

Box YoloLayer::PredBox(int64_t b, int64_t n, int64_t y, int64_t x, int net_w,
                       int net_h) const {
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const auto& anchor = opts_.anchors[static_cast<size_t>(
      opts_.mask[static_cast<size_t>(n)])];
  Box box;
  box.x = (static_cast<float>(x) + output_[Entry(b, n, 0, y, x)]) / gw;
  box.y = (static_cast<float>(y) + output_[Entry(b, n, 1, y, x)]) / gh;
  box.w = anchor.first * std::exp(output_[Entry(b, n, 2, y, x)]) / net_w;
  box.h = anchor.second * std::exp(output_[Entry(b, n, 3, y, x)]) / net_h;
  return box;
}

float YoloLayer::DeltaBox(int64_t b, int64_t n, int64_t y, int64_t x,
                          const Box& truth, int net_w, int net_h,
                          LossStats& stats) {
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const Box pred = PredBox(b, n, y, x, net_w, net_h);

  float g[4];
  const float ciou = CiouGrad(pred, truth, g);
  stats.box += (1.0f - ciou) * opts_.iou_normalizer;

  // dLoss/dpred = -grad(CIoU) * normalizer.
  const float s = opts_.scale_x_y;
  // Recover sigma from the stored scaled value: v = sig*s - 0.5(s-1).
  const float vx = output_[Entry(b, n, 0, y, x)];
  const float vy = output_[Entry(b, n, 1, y, x)];
  const float sig_x = (vx + 0.5f * (s - 1.0f)) / s;
  const float sig_y = (vy + 0.5f * (s - 1.0f)) / s;

  // Chain rules: bx = (cell + sig*s - 0.5(s-1))/gw; bw = aw*exp(tw)/net_w.
  const float dbx_dtx = s * sig_x * (1.0f - sig_x) / gw;
  const float dby_dty = s * sig_y * (1.0f - sig_y) / gh;
  const float dbw_dtw = pred.w;
  const float dbh_dth = pred.h;

  delta_[Entry(b, n, 0, y, x)] += -g[0] * opts_.iou_normalizer * dbx_dtx;
  delta_[Entry(b, n, 1, y, x)] += -g[1] * opts_.iou_normalizer * dby_dty;
  delta_[Entry(b, n, 2, y, x)] += -g[2] * opts_.iou_normalizer * dbw_dtw;
  delta_[Entry(b, n, 3, y, x)] += -g[3] * opts_.iou_normalizer * dbh_dth;

  return Iou(pred, truth);
}

void YoloLayer::DeltaClass(int64_t b, int64_t n, int64_t y, int64_t x,
                           int true_class, LossStats& stats) {
  for (int c = 0; c < opts_.classes; ++c) {
    const float p = output_[Entry(b, n, 5 + c, y, x)];
    const float target = (c == true_class) ? 1.0f : 0.0f;
    // BCE-with-logits gradient: sigma - target.
    delta_[Entry(b, n, 5 + c, y, x)] =
        (p - target) * opts_.cls_normalizer;
    const float pc = std::clamp(target > 0.5f ? p : 1.0f - p, 1e-7f, 1.0f);
    stats.cls += -std::log(pc) * opts_.cls_normalizer;
  }
}

YoloLayer::LossStats YoloLayer::ComputeLoss(const TruthBatch& truths,
                                            int net_w, int net_h) {
  const int64_t batch = out_shape_.dim(0);
  THALI_CHECK_EQ(static_cast<int64_t>(truths.size()), batch);
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const int64_t n_anchors = static_cast<int64_t>(opts_.mask.size());

  LossStats stats;
  float iou_sum = 0.0f;

  // Objectness target per anchor-cell: 0 = background, -1 = ignored
  // (overlaps a truth beyond ignore_thresh), 1 = assigned to a truth.
  // Deltas and the loss value are derived from this grid in one place so
  // they can never disagree.
  std::vector<int8_t> obj_state(
      static_cast<size_t>(batch * n_anchors * gh * gw), 0);
  auto state_at = [&](int64_t b, int64_t n, int64_t y, int64_t x) -> int8_t& {
    return obj_state[static_cast<size_t>(((b * n_anchors + n) * gh + y) * gw +
                                         x)];
  };

  // Pass 1: mark ignored cells (prediction already overlaps some truth).
  for (int64_t b = 0; b < batch; ++b) {
    if (truths[static_cast<size_t>(b)].empty()) continue;
    for (int64_t n = 0; n < n_anchors; ++n) {
      for (int64_t y = 0; y < gh; ++y) {
        for (int64_t x = 0; x < gw; ++x) {
          const Box pred = PredBox(b, n, y, x, net_w, net_h);
          float best_iou = 0.0f;
          for (const TruthBox& t : truths[static_cast<size_t>(b)]) {
            best_iou = std::max(best_iou, Iou(pred, t.box));
          }
          if (best_iou > opts_.ignore_thresh) state_at(b, n, y, x) = -1;
        }
      }
    }
  }

  // Pass 2: per-truth assignments.
  for (int64_t b = 0; b < batch; ++b) {
    for (const TruthBox& t : truths[static_cast<size_t>(b)]) {
      if (t.box.w <= 0 || t.box.h <= 0) continue;
      const int64_t cx = std::clamp<int64_t>(
          static_cast<int64_t>(t.box.x * gw), 0, gw - 1);
      const int64_t cy = std::clamp<int64_t>(
          static_cast<int64_t>(t.box.y * gh), 0, gh - 1);

      // Best anchor across the whole network, by wh-IoU in input pixels.
      const float tw_px = t.box.w * net_w;
      const float th_px = t.box.h * net_h;
      int best_a = 0;
      float best_wh = -1.0f;
      for (size_t a = 0; a < opts_.anchors.size(); ++a) {
        const float wh = WhIou(tw_px, th_px, opts_.anchors[a].first,
                               opts_.anchors[a].second);
        if (wh > best_wh) {
          best_wh = wh;
          best_a = static_cast<int>(a);
        }
      }

      for (int64_t n = 0; n < n_anchors; ++n) {
        const int a = opts_.mask[static_cast<size_t>(n)];
        bool assign = (a == best_a);
        if (!assign && opts_.iou_thresh < 1.0f) {
          const float wh = WhIou(tw_px, th_px, opts_.anchors[a].first,
                                 opts_.anchors[a].second);
          assign = wh > opts_.iou_thresh;
        }
        if (!assign) continue;

        const float iou = DeltaBox(b, n, cy, cx, t.box, net_w, net_h, stats);
        iou_sum += iou;
        ++stats.assigned;
        state_at(b, n, cy, cx) = 1;
        DeltaClass(b, n, cy, cx, t.class_id, stats);
      }
    }
  }

  // Pass 3: objectness deltas + loss from the final target grid.
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t n = 0; n < n_anchors; ++n) {
      for (int64_t y = 0; y < gh; ++y) {
        for (int64_t x = 0; x < gw; ++x) {
          const float obj = output_[Entry(b, n, 4, y, x)];
          switch (state_at(b, n, y, x)) {
            case -1:
              delta_[Entry(b, n, 4, y, x)] = 0.0f;
              break;
            case 0:
              delta_[Entry(b, n, 4, y, x)] = obj * opts_.obj_normalizer;
              stats.obj += -std::log(std::clamp(1.0f - obj, 1e-7f, 1.0f)) *
                           opts_.obj_normalizer;
              break;
            default:
              delta_[Entry(b, n, 4, y, x)] =
                  (obj - 1.0f) * opts_.obj_normalizer;
              stats.obj += -std::log(std::clamp(obj, 1e-7f, 1.0f)) *
                           opts_.obj_normalizer;
              break;
          }
        }
      }
    }
  }

  stats.avg_iou = stats.assigned > 0 ? iou_sum / stats.assigned : 0.0f;
  stats.total = stats.box + stats.obj + stats.cls;
  return stats;
}

std::vector<Detection> YoloLayer::DecodeRaw(int b, float conf_thresh,
                                            int net_w, int net_h) const {
  std::vector<Detection> dets;
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const int64_t spatial = gh * gw;
  const float s = opts_.scale_x_y;
  const int64_t n_anchors = static_cast<int64_t>(opts_.mask.size());

  // Conservative raw-logit threshold. Sigmoid is strictly monotone, so
  // obj >= conf_thresh implies t_obj >= logit(conf_thresh); the 1e-3
  // margin absorbs the float rounding of logit(). Survivors re-check the
  // exact sigmoid-domain test below, so the pre-filter can only ever be
  // conservative — the kept set is bitwise identical to the reference.
  float raw_thresh;
  if (!(conf_thresh > 0.0f)) {
    // Also covers NaN thresholds: collect everything, exactly like the
    // reference's never-true `obj < conf_thresh` skip.
    raw_thresh = -std::numeric_limits<float>::infinity();
  } else if (conf_thresh >= 1.0f) {
    // float Sigmoid rounds to exactly 1.0f for raw values above ~17, so
    // saturated cells can still pass the exact `obj < 1.0f` check.
    raw_thresh = 15.0f;
  } else {
    raw_thresh = std::log(conf_thresh / (1.0f - conf_thresh)) - 1e-3f;
  }

  std::vector<int32_t> hits(static_cast<size_t>(spatial));
  for (int64_t n = 0; n < n_anchors; ++n) {
    const float* obj_plane = output_.data() + Entry(b, n, 4, 0, 0);
    const int64_t m = CollectAtLeast(obj_plane, spatial, raw_thresh,
                                     hits.data());
    const auto& anchor = opts_.anchors[static_cast<size_t>(
        opts_.mask[static_cast<size_t>(n)])];
    for (int64_t h = 0; h < m; ++h) {
      const int64_t i = hits[static_cast<size_t>(h)];
      const int64_t y = i / gw;
      const int64_t x = i - y * gw;
      const float obj = Sigmoid(obj_plane[i]);
      if (obj < conf_thresh) continue;
      // Exact seed expressions on the raw values: each activated value
      // is computed with the same expression Forward stores, then fed
      // through the same PredBox arithmetic — identical bits.
      const float vx =
          Sigmoid(output_[Entry(b, n, 0, y, x)]) * s - 0.5f * (s - 1.0f);
      const float vy =
          Sigmoid(output_[Entry(b, n, 1, y, x)]) * s - 0.5f * (s - 1.0f);
      Box box;
      box.x = (static_cast<float>(x) + vx) / gw;
      box.y = (static_cast<float>(y) + vy) / gh;
      box.w = anchor.first * std::exp(output_[Entry(b, n, 2, y, x)]) / net_w;
      box.h = anchor.second * std::exp(output_[Entry(b, n, 3, y, x)]) / net_h;
      for (int c = 0; c < opts_.classes; ++c) {
        const float conf = obj * Sigmoid(output_[Entry(b, n, 5 + c, y, x)]);
        if (conf < conf_thresh) continue;
        Detection d;
        d.box = box;
        d.class_id = c;
        d.confidence = conf;
        dets.push_back(d);
      }
    }
  }
  return dets;
}

std::vector<Detection> YoloLayer::GetDetections(int b, float conf_thresh,
                                                int net_w, int net_h) const {
  if (raw_output_) return DecodeRaw(b, conf_thresh, net_w, net_h);
  std::vector<Detection> dets;
  const int64_t gh = out_shape_.dim(2);
  const int64_t gw = out_shape_.dim(3);
  const int64_t n_anchors = static_cast<int64_t>(opts_.mask.size());
  for (int64_t n = 0; n < n_anchors; ++n) {
    for (int64_t y = 0; y < gh; ++y) {
      for (int64_t x = 0; x < gw; ++x) {
        const float obj = output_[Entry(b, n, 4, y, x)];
        if (obj < conf_thresh) continue;
        const Box box = PredBox(b, n, y, x, net_w, net_h);
        for (int c = 0; c < opts_.classes; ++c) {
          const float conf = obj * output_[Entry(b, n, 5 + c, y, x)];
          if (conf < conf_thresh) continue;
          Detection d;
          d.box = box;
          d.class_id = c;
          d.confidence = conf;
          dets.push_back(d);
        }
      }
    }
  }
  return dets;
}

}  // namespace thali
