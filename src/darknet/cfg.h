#ifndef THALI_DARKNET_CFG_H_
#define THALI_DARKNET_CFG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/statusor.h"
#include "nn/network.h"
#include "nn/yolo_layer.h"

namespace thali {

// One `[section]` of a Darknet .cfg file with its key=value options.
struct CfgSection {
  std::string name;
  std::map<std::string, std::string> options;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  StatusOr<int> GetInt(const std::string& key) const;
  int GetInt(const std::string& key, int default_value) const;
  float GetFloat(const std::string& key, float default_value) const;
  StatusOr<std::string> GetString(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  // Comma-separated lists.
  StatusOr<std::vector<int>> GetIntList(const std::string& key) const;
  StatusOr<std::vector<float>> GetFloatList(const std::string& key) const;
};

// Parses Darknet cfg text ('#'/';' comments, [section] headers,
// key=value lines). The first section must be [net]/[network].
StatusOr<std::vector<CfgSection>> ParseCfg(const std::string& text);

// Training hyperparameters read from the [net] section.
struct NetOptions {
  int width = 96;
  int height = 96;
  int channels = 3;
  int batch = 4;
  float learning_rate = 1e-3f;
  float momentum = 0.9f;
  float decay = 5e-4f;
  int burn_in = 0;
  int max_batches = 1000;
  std::vector<int> steps;
  std::vector<float> scales;
  // Augmentation knobs (Darknet names).
  float saturation = 1.5f;
  float exposure = 1.5f;
  float hue = 0.1f;
  bool mosaic = false;
  bool flip = true;
  float jitter = 0.2f;
};

// A network built from a cfg, plus its hyperparameters and convenience
// pointers to the detection heads (owned by the network).
struct BuiltNetwork {
  std::unique_ptr<Network> net;
  NetOptions options;
  std::vector<YoloLayer*> yolo_layers;
};

// Instantiates a network from cfg text. `batch_override` (>0) replaces the
// cfg batch (training uses the cfg value; inference typically wants 1).
// Weights are randomly initialized from `rng`. `mode` selects the buffer
// plan: kTraining allocates per-layer deltas and backward caches;
// kInference skips both and arena-plans the activations (see
// nn/exec_plan.h). Invalid input is a Status, never an abort: [net]
// width, height, channels and batch below 1, and a layer whose weights
// or output exceed kMaxLayerElements (nn/layer.h), are InvalidArgument
// before anything of that size is allocated.
StatusOr<BuiltNetwork> BuildNetworkFromCfg(const std::string& text,
                                           int batch_override, Rng& rng,
                                           ExecMode mode = ExecMode::kTraining);

// Collects the YoloLayer heads of an already-built network.
std::vector<YoloLayer*> FindYoloLayers(Network& net);

}  // namespace thali

#endif  // THALI_DARKNET_CFG_H_
