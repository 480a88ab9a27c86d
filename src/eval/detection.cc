#include "eval/detection.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"

namespace thali {

std::string Detection::ToString() const {
  return StrFormat("Detection(class=%d conf=%.3f %s)", class_id, confidence,
                   box.ToString().c_str());
}

namespace {

// Matches box.cc's kEps: NmsImpl reproduces Iou's arithmetic with
// cached corners/areas, so the degenerate-union guard must be the same
// constant.
constexpr float kIouEps = 1e-9f;

// Greedy NMS with the seed all-pairs algorithm's kept set (the seed
// loop is the oracle of the property tests in tests/prepost_test.cc),
// but different bookkeeping:
//
//  - corners and areas are computed once per box, not once per IoU pair;
//  - class-aware runs bucket the sorted indices per class (suppression
//    never crosses classes, so the per-class greedy scans are
//    independent — the seed's `continue` on class mismatch does the
//    same walk with the mismatches inlined);
//  - each bucket compacts its alive list every round (keep the
//    highest-confidence survivor, filter the rest), so total pair work
//    is sum(alive per round) instead of all-pairs — with heavy overlap
//    (the common detector output) that terminates after a few rounds.
//
// The IoU arithmetic mirrors box.cc's Intersection/Union/Iou float for
// float: the intersection is evaluated once and reused where Iou calls
// the pure function twice, which cannot change the value.
struct NmsScratch {
  std::vector<float> left, right, top, bottom, area;
  std::vector<int> bucket, alive, next;
  std::vector<char> kept_mask;
};

void SuppressBucket(float iou_threshold, NmsScratch& s) {
  s.alive = s.bucket;
  while (!s.alive.empty()) {
    const int i = s.alive.front();
    s.kept_mask[static_cast<size_t>(i)] = 1;
    s.next.clear();
    for (size_t b = 1; b < s.alive.size(); ++b) {
      const int j = s.alive[b];
      const float iw =
          std::min(s.right[i], s.right[j]) - std::max(s.left[i], s.left[j]);
      const float ih =
          std::min(s.bottom[i], s.bottom[j]) - std::max(s.top[i], s.top[j]);
      const float inter = (iw <= 0 || ih <= 0) ? 0.0f : iw * ih;
      const float u = s.area[i] + s.area[j] - inter;
      const float iou = u <= kIouEps ? 0.0f : inter / u;
      if (!(iou > iou_threshold)) s.next.push_back(j);
    }
    s.alive.swap(s.next);
  }
}

std::vector<Detection> NmsImpl(std::vector<Detection> dets,
                               float iou_threshold, bool class_aware) {
  std::stable_sort(dets.begin(), dets.end(),
                   [](const Detection& a, const Detection& b) {
                     return a.confidence > b.confidence;
                   });
  const size_t n = dets.size();
  NmsScratch s;
  s.left.resize(n);
  s.right.resize(n);
  s.top.resize(n);
  s.bottom.resize(n);
  s.area.resize(n);
  s.kept_mask.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Box& b = dets[i].box;
    s.left[i] = b.Left();
    s.right[i] = b.Right();
    s.top[i] = b.Top();
    s.bottom[i] = b.Bottom();
    s.area[i] = b.Area();
  }
  if (class_aware) {
    // Bucket the sorted indices by class, preserving confidence order
    // inside each bucket. Class ids are few (dataset classes), so the
    // linear id scan beats hashing.
    std::vector<int> ids;
    for (size_t i = 0; i < n; ++i) {
      const int c = dets[i].class_id;
      if (std::find(ids.begin(), ids.end(), c) == ids.end()) ids.push_back(c);
    }
    for (const int c : ids) {
      s.bucket.clear();
      for (size_t i = 0; i < n; ++i) {
        if (dets[i].class_id == c) s.bucket.push_back(static_cast<int>(i));
      }
      SuppressBucket(iou_threshold, s);
    }
  } else {
    s.bucket.resize(n);
    for (size_t i = 0; i < n; ++i) s.bucket[i] = static_cast<int>(i);
    SuppressBucket(iou_threshold, s);
  }
  std::vector<Detection> kept;
  for (size_t i = 0; i < n; ++i) {
    if (s.kept_mask[i]) kept.push_back(dets[i]);
  }
  return kept;
}

}  // namespace

std::vector<Detection> Nms(std::vector<Detection> dets, float iou_threshold) {
  return NmsImpl(std::move(dets), iou_threshold, /*class_aware=*/true);
}

std::vector<Detection> NmsClassAgnostic(std::vector<Detection> dets,
                                        float iou_threshold) {
  return NmsImpl(std::move(dets), iou_threshold, /*class_aware=*/false);
}

}  // namespace thali
