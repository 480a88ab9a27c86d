#ifndef THALI_EVAL_DETECTION_H_
#define THALI_EVAL_DETECTION_H_

#include <string>
#include <vector>

#include "eval/box.h"

namespace thali {

// One predicted object: a box, a class id, and a confidence score
// (objectness x class probability, as YOLO reports it).
struct Detection {
  Box box;
  int class_id = -1;
  float confidence = 0.0f;

  std::string ToString() const;
};

// One ground-truth object (a labelled dish).
struct GroundTruth {
  Box box;
  int class_id = -1;
};

// All predictions/labels for one evaluation image, keyed by an image id so
// the matcher never pairs detections with another image's truths.
struct ImageEval {
  int image_id = 0;
  std::vector<Detection> detections;
  std::vector<GroundTruth> truths;
};

// Non-maximum suppression: sorts by confidence descending and greedily
// suppresses same-class boxes whose IoU with a kept box exceeds
// `iou_threshold`. Returns the surviving detections, still sorted.
//
// Keeps exactly the set the seed all-pairs greedy loop keeps, with
// cached areas, per-class index buckets and alive-list compaction (the
// seed loop is the test oracle, tests/seed_prepost.h).
std::vector<Detection> Nms(std::vector<Detection> dets, float iou_threshold);

// Class-agnostic variant (suppresses across classes); not used by the
// paper pipeline but exposed for the baseline detector.
std::vector<Detection> NmsClassAgnostic(std::vector<Detection> dets,
                                        float iou_threshold);

}  // namespace thali

#endif  // THALI_EVAL_DETECTION_H_
