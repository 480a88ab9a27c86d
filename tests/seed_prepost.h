// Seed pre/post-processing loops, kept as test oracles: the bilinear
// resize and letterbox that image/image_prepost.h's scalar kernel
// family reproduces bit for bit, and the all-pairs greedy NMS whose kept
// set eval/detection.cc's bucketed NMS returns exactly. The library runs
// only the fast implementations; these exist so the parity tests have
// something independent to compare against.

#ifndef THALI_TESTS_SEED_PREPOST_H_
#define THALI_TESTS_SEED_PREPOST_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "eval/box.h"
#include "eval/detection.h"
#include "image/image.h"

namespace thali {

// Per-pixel bilinear resize: fx = x*sx, taps (x0, x0+1) clamped to the
// last column, weights 1-wx / wx; rows likewise.
inline Image SeedResize(const Image& src, int new_width, int new_height) {
  Image dst(new_width, new_height, src.channels());
  const float sx =
      new_width > 1 ? static_cast<float>(src.width() - 1) / (new_width - 1)
                    : 0.0f;
  const float sy =
      new_height > 1 ? static_cast<float>(src.height() - 1) / (new_height - 1)
                     : 0.0f;
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < new_height; ++y) {
      const float fy = y * sy;
      const int y0 = static_cast<int>(fy);
      const int y1 = std::min(y0 + 1, src.height() - 1);
      const float wy = fy - y0;
      for (int x = 0; x < new_width; ++x) {
        const float fx = x * sx;
        const int x0 = static_cast<int>(fx);
        const int x1 = std::min(x0 + 1, src.width() - 1);
        const float wx = fx - x0;
        const float v = (1 - wy) * ((1 - wx) * src.at(c, y0, x0) +
                                    wx * src.at(c, y0, x1)) +
                        wy * ((1 - wx) * src.at(c, y1, x0) +
                              wx * src.at(c, y1, x1));
        dst.set(c, y, x, v);
      }
    }
  }
  return dst;
}

// Aspect-preserving SeedResize into an intermediate Image, pasted
// centered onto a canvas whose pad bands are 0.5 grey.
inline Letterbox SeedLetterbox(const Image& src, int target_w, int target_h) {
  Letterbox out;
  out.image = Image(target_w, target_h, src.channels());
  const float scale =
      std::min(static_cast<float>(target_w) / src.width(),
               static_cast<float>(target_h) / src.height());
  const int new_w = std::max(1, static_cast<int>(src.width() * scale));
  const int new_h = std::max(1, static_cast<int>(src.height() * scale));
  const Image resized = SeedResize(src, new_w, new_h);

  out.pad_x = (target_w - new_w) / 2;
  out.pad_y = (target_h - new_h) / 2;
  out.scale = scale;
  const int64_t plane = static_cast<int64_t>(target_w) * target_h;
  for (int c = 0; c < src.channels(); ++c) {
    float* p = out.image.data() + c * plane;
    std::fill(p, p + static_cast<int64_t>(out.pad_y) * target_w, 0.5f);
    float* bottom = p + static_cast<int64_t>(out.pad_y + new_h) * target_w;
    std::fill(bottom, p + plane, 0.5f);
    for (int y = 0; y < new_h; ++y) {
      float* row = p + static_cast<int64_t>(out.pad_y + y) * target_w;
      std::fill(row, row + out.pad_x, 0.5f);
      std::fill(row + out.pad_x + new_w, row + target_w, 0.5f);
    }
  }
  Paste(resized, out.pad_x, out.pad_y, out.image);
  return out;
}

// All-pairs greedy NMS: stable sort by confidence, then every kept box
// suppresses each later (same-class, when class_aware) box whose Iou
// exceeds the threshold.
inline std::vector<Detection> SeedNms(std::vector<Detection> dets,
                                      float iou_threshold, bool class_aware) {
  std::stable_sort(dets.begin(), dets.end(),
                   [](const Detection& a, const Detection& b) {
                     return a.confidence > b.confidence;
                   });
  std::vector<Detection> kept;
  std::vector<bool> suppressed(dets.size(), false);
  for (size_t i = 0; i < dets.size(); ++i) {
    if (suppressed[i]) continue;
    kept.push_back(dets[i]);
    for (size_t j = i + 1; j < dets.size(); ++j) {
      if (suppressed[j]) continue;
      if (class_aware && dets[j].class_id != dets[i].class_id) continue;
      if (Iou(dets[i].box, dets[j].box) > iou_threshold) {
        suppressed[j] = true;
      }
    }
  }
  return kept;
}

}  // namespace thali

#endif  // THALI_TESTS_SEED_PREPOST_H_
