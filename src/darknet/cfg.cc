#include "darknet/cfg.h"

#include <utility>

#include "base/string_util.h"
#include "nn/conv_layer.h"
#include "nn/maxpool_layer.h"
#include "nn/route_layer.h"
#include "nn/shortcut_layer.h"
#include "nn/upsample_layer.h"

namespace thali {

StatusOr<int> CfgSection::GetInt(const std::string& key) const {
  auto it = options.find(key);
  if (it == options.end()) {
    return Status::NotFound("[" + name + "] missing key: " + key);
  }
  return ParseInt(it->second);
}

int CfgSection::GetInt(const std::string& key, int default_value) const {
  auto it = options.find(key);
  if (it == options.end()) return default_value;
  auto v = ParseInt(it->second);
  return v.ok() ? *v : default_value;
}

float CfgSection::GetFloat(const std::string& key, float default_value) const {
  auto it = options.find(key);
  if (it == options.end()) return default_value;
  auto v = ParseFloat(it->second);
  return v.ok() ? *v : default_value;
}

StatusOr<std::string> CfgSection::GetString(const std::string& key) const {
  auto it = options.find(key);
  if (it == options.end()) {
    return Status::NotFound("[" + name + "] missing key: " + key);
  }
  return it->second;
}

std::string CfgSection::GetString(const std::string& key,
                                  const std::string& default_value) const {
  auto it = options.find(key);
  return it == options.end() ? default_value : it->second;
}

StatusOr<std::vector<int>> CfgSection::GetIntList(
    const std::string& key) const {
  THALI_ASSIGN_OR_RETURN(std::string raw, GetString(key));
  std::vector<int> out;
  for (const std::string& part : Split(raw, ',')) {
    if (StripWhitespace(part).empty()) continue;
    THALI_ASSIGN_OR_RETURN(int v, ParseInt(part));
    out.push_back(v);
  }
  return out;
}

StatusOr<std::vector<float>> CfgSection::GetFloatList(
    const std::string& key) const {
  THALI_ASSIGN_OR_RETURN(std::string raw, GetString(key));
  std::vector<float> out;
  for (const std::string& part : Split(raw, ',')) {
    if (StripWhitespace(part).empty()) continue;
    THALI_ASSIGN_OR_RETURN(float v, ParseFloat(part));
    out.push_back(v);
  }
  return out;
}

StatusOr<std::vector<CfgSection>> ParseCfg(const std::string& text) {
  std::vector<CfgSection> sections;
  int line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return Status::Corruption(
            StrFormat("cfg line %d: unterminated section header", line_no));
      }
      CfgSection s;
      s.name = std::string(line.substr(1, line.size() - 2));
      sections.push_back(std::move(s));
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::Corruption(
          StrFormat("cfg line %d: expected key=value", line_no));
    }
    if (sections.empty()) {
      return Status::Corruption(
          StrFormat("cfg line %d: option before any section", line_no));
    }
    const std::string key(StripWhitespace(line.substr(0, eq)));
    const std::string value(StripWhitespace(line.substr(eq + 1)));
    sections.back().options[key] = value;
  }
  if (sections.empty()) return Status::InvalidArgument("empty cfg");
  if (sections.front().name != "net" && sections.front().name != "network") {
    return Status::Corruption("cfg must start with [net]");
  }
  return sections;
}

namespace {

StatusOr<NetOptions> ParseNetOptions(const CfgSection& s) {
  NetOptions o;
  o.width = s.GetInt("width", o.width);
  o.height = s.GetInt("height", o.height);
  o.channels = s.GetInt("channels", o.channels);
  o.batch = s.GetInt("batch", o.batch);
  o.learning_rate = s.GetFloat("learning_rate", o.learning_rate);
  o.momentum = s.GetFloat("momentum", o.momentum);
  o.decay = s.GetFloat("decay", o.decay);
  o.burn_in = s.GetInt("burn_in", o.burn_in);
  o.max_batches = s.GetInt("max_batches", o.max_batches);
  if (s.Has("steps")) {
    THALI_ASSIGN_OR_RETURN(o.steps, s.GetIntList("steps"));
  }
  if (s.Has("scales")) {
    THALI_ASSIGN_OR_RETURN(o.scales, s.GetFloatList("scales"));
  }
  o.saturation = s.GetFloat("saturation", o.saturation);
  o.exposure = s.GetFloat("exposure", o.exposure);
  o.hue = s.GetFloat("hue", o.hue);
  o.mosaic = s.GetInt("mosaic", o.mosaic ? 1 : 0) != 0;
  o.flip = s.GetInt("flip", o.flip ? 1 : 0) != 0;
  o.jitter = s.GetFloat("jitter", o.jitter);
  if (o.width < 1 || o.height < 1 || o.channels < 1 || o.batch < 1) {
    return Status::InvalidArgument(
        "[net] needs width, height, channels and batch >= 1");
  }
  return o;
}

StatusOr<std::unique_ptr<Layer>> MakeLayer(const CfgSection& s) {
  if (s.name == "convolutional") {
    ConvLayer::Options o;
    THALI_ASSIGN_OR_RETURN(o.filters, s.GetInt("filters"));
    o.ksize = s.GetInt("size", 1);
    o.stride = s.GetInt("stride", 1);
    o.batch_normalize = s.GetInt("batch_normalize", 0) != 0;
    // Darknet: pad=1 means "pad by size/2"; an explicit `padding` wins.
    const int pad_flag = s.GetInt("pad", 0);
    o.pad = s.GetInt("padding", pad_flag ? o.ksize / 2 : 0);
    THALI_ASSIGN_OR_RETURN(
        o.activation,
        ActivationFromString(s.GetString("activation", "linear")));
    return std::unique_ptr<Layer>(new ConvLayer(o));
  }
  if (s.name == "maxpool") {
    MaxPoolLayer::Options o;
    o.size = s.GetInt("size", 2);
    o.stride = s.GetInt("stride", o.size);
    // Checked before the padding default derives from the size.
    if (o.size <= 0 || o.stride <= 0) {
      return Status::InvalidArgument("[" + s.name +
                                     "] needs size >= 1 and stride >= 1");
    }
    o.padding = s.GetInt("padding", o.size - 1);
    return std::unique_ptr<Layer>(new MaxPoolLayer(o));
  }
  if (s.name == "upsample") {
    return std::unique_ptr<Layer>(new UpsampleLayer(s.GetInt("stride", 2)));
  }
  if (s.name == "route") {
    RouteLayer::Options o;
    THALI_ASSIGN_OR_RETURN(o.layers, s.GetIntList("layers"));
    o.groups = s.GetInt("groups", 1);
    o.group_id = s.GetInt("group_id", 0);
    return std::unique_ptr<Layer>(new RouteLayer(o));
  }
  if (s.name == "shortcut") {
    ShortcutLayer::Options o;
    THALI_ASSIGN_OR_RETURN(o.from, s.GetInt("from"));
    THALI_ASSIGN_OR_RETURN(
        o.activation,
        ActivationFromString(s.GetString("activation", "linear")));
    return std::unique_ptr<Layer>(new ShortcutLayer(o));
  }
  if (s.name == "yolo") {
    YoloLayer::Options o;
    THALI_ASSIGN_OR_RETURN(std::vector<float> flat, s.GetFloatList("anchors"));
    if (flat.size() % 2 != 0) {
      return Status::Corruption("odd anchor list length");
    }
    for (size_t i = 0; i + 1 < flat.size(); i += 2) {
      o.anchors.emplace_back(flat[i], flat[i + 1]);
    }
    THALI_ASSIGN_OR_RETURN(o.mask, s.GetIntList("mask"));
    THALI_ASSIGN_OR_RETURN(o.classes, s.GetInt("classes"));
    o.ignore_thresh = s.GetFloat("ignore_thresh", 0.7f);
    o.iou_thresh = s.GetFloat("iou_thresh", 1.0f);
    o.scale_x_y = s.GetFloat("scale_x_y", 1.0f);
    o.iou_normalizer = s.GetFloat("iou_normalizer", 0.07f);
    o.obj_normalizer = s.GetFloat("obj_normalizer", 1.0f);
    o.cls_normalizer = s.GetFloat("cls_normalizer", 1.0f);
    return std::unique_ptr<Layer>(new YoloLayer(o));
  }
  return Status::Unimplemented("unsupported cfg section: [" + s.name + "]");
}

}  // namespace

StatusOr<BuiltNetwork> BuildNetworkFromCfg(const std::string& text,
                                           int batch_override, Rng& rng,
                                           ExecMode mode) {
  THALI_ASSIGN_OR_RETURN(std::vector<CfgSection> sections, ParseCfg(text));
  THALI_ASSIGN_OR_RETURN(NetOptions opts, ParseNetOptions(sections[0]));
  const int batch = batch_override > 0 ? batch_override : opts.batch;

  BuiltNetwork built;
  built.options = opts;
  built.net = std::make_unique<Network>(opts.width, opts.height, opts.channels,
                                        batch);
  for (size_t i = 1; i < sections.size(); ++i) {
    THALI_ASSIGN_OR_RETURN(std::unique_ptr<Layer> layer,
                           MakeLayer(sections[i]));
    built.net->Add(std::move(layer));
  }
  THALI_RETURN_IF_ERROR(built.net->Finalize(mode));

  // Initialize weights and collect heads.
  for (int i = 0; i < built.net->num_layers(); ++i) {
    Layer& l = built.net->layer(i);
    if (std::string_view(l.kind()) == "convolutional") {
      static_cast<ConvLayer&>(l).InitWeights(rng);
    }
  }
  built.yolo_layers = FindYoloLayers(*built.net);
  return built;
}

std::vector<YoloLayer*> FindYoloLayers(Network& net) {
  std::vector<YoloLayer*> out;
  for (int i = 0; i < net.num_layers(); ++i) {
    if (std::string_view(net.layer(i).kind()) == "yolo") {
      out.push_back(static_cast<YoloLayer*>(&net.layer(i)));
    }
  }
  return out;
}

}  // namespace thali
