// thali_cli: Darknet-style command line for the THALI library, driving
// the on-disk dataset/weights formats end to end.
//
//   thali_cli cfg    [--classes N] [--size N]
//   thali_cli summary [--classes N] [--size N] [--calib]
//   thali_cli render [--out FILE.ppm] [--platter N] [--seed N] [--classes20]
//   thali_cli detect --weights FILE --image FILE.ppm [--thresh F]
//                    [--classes N] [--out annotated.ppm]
//   thali_cli train  --data DIR/obj.data [--iters N] [--out FILE.weights]
//                    [--pretrained FILE --cutoff N]
//   thali_cli map    --data DIR/obj.data --weights FILE
//
// `render` + `train` + `map` compose: render a dataset with
// dataset_builder, train on it from disk, then score it — the same loop a
// Darknet user runs with photographs.

#include <cstdio>
#include <cstring>
#include <string>

#include "base/file_util.h"
#include "base/string_util.h"
#include "core/detector.h"
#include "core/trainer.h"
#include "darknet/model_zoo.h"
#include "darknet/summary.h"
#include "data/annotation.h"
#include "data/dataset.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "eval/report.h"
#include "image/draw.h"
#include "image/image_io.h"

namespace {

using namespace thali;

const char* ArgS(int argc, char** argv, const char* name, const char* def) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return def;
}

int ArgI(int argc, char** argv, const char* name, int def) {
  const char* s = ArgS(argc, argv, name, nullptr);
  return s != nullptr ? std::atoi(s) : def;
}

float ArgF(int argc, char** argv, const char* name, float def) {
  const char* s = ArgS(argc, argv, name, nullptr);
  return s != nullptr ? std::strtof(s, nullptr) : def;
}

bool ArgB(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

std::string CfgFor(int classes, int size, int iters) {
  YoloThaliOptions o;
  o.classes = classes;
  o.width = size;
  o.height = size;
  if (iters > 0) o.max_batches = iters;
  return YoloThaliCfg(o);
}

int CmdCfg(int argc, char** argv) {
  const int classes = ArgI(argc, argv, "--classes", 10);
  const int size = ArgI(argc, argv, "--size", 96);
  std::fputs(CfgFor(classes, size, 0).c_str(), stdout);
  return 0;
}

int CmdSummary(int argc, char** argv) {
  const int classes = ArgI(argc, argv, "--classes", 10);
  const int size = ArgI(argc, argv, "--size", 96);
  if (ArgB(argc, argv, "--calib")) {
    // Calibrated view: a short synthetic calibration pass arms the
    // quantized convs and chains the u8 edges, so the plan table shows
    // the dtypes the net would actually deploy with.
    auto det_or = Detector::FromCfg(CfgFor(classes, size, 0));
    THALI_CHECK(det_or.ok()) << det_or.status().ToString();
    Detector detector = std::move(det_or).value();
    DatasetSpec spec;
    spec.num_images = 6;
    spec.width = size;
    spec.height = size;
    const FoodDataset calib = FoodDataset::Generate(
        classes == 20 ? IndianFood20() : IndianFood10(), spec);
    const std::vector<int> idx = {0, 1, 2, 3, 4, 5};
    detector.CalibrateInt8(calib, idx);
    std::fputs(NetworkSummary(detector.network()).c_str(), stdout);
    return 0;
  }
  Rng rng(1);
  // Inference mode: the summary describes the net as deployed (arena
  // plan, pre-packed weights, dispatched gemm kernel).
  auto built = BuildNetworkFromCfg(CfgFor(classes, size, 0), 1, rng,
                                   ExecMode::kInference);
  THALI_CHECK(built.ok()) << built.status().ToString();
  std::fputs(NetworkSummary(*built->net).c_str(), stdout);
  return 0;
}

int CmdRender(int argc, char** argv) {
  const auto& classes =
      ArgB(argc, argv, "--classes20") ? IndianFood20() : IndianFood10();
  const int platter = ArgI(argc, argv, "--platter", 0);
  const std::string out = ArgS(argc, argv, "--out", "scene.ppm");
  PlatterRenderer::Options ro;
  ro.width = ArgI(argc, argv, "--size", 96);
  ro.height = ro.width;
  PlatterRenderer renderer(classes, ro);
  Rng rng(static_cast<uint64_t>(ArgI(argc, argv, "--seed", 1)));

  RenderedScene scene =
      platter > 0 ? renderer.RenderRandomPlatter(platter, rng)
                  : renderer.RenderSingleDish(
                        rng.NextInt(0, static_cast<int>(classes.size()) - 1),
                        rng);
  THALI_CHECK_OK(WritePpm(scene.image, out));
  std::string label_path = out;
  if (EndsWith(label_path, ".ppm")) {
    label_path.replace(label_path.size() - 4, 4, ".txt");
  } else {
    label_path += ".txt";
  }
  THALI_CHECK_OK(WriteYoloAnnotation(scene.truths, label_path));
  std::printf("wrote %s (+%s)\n", out.c_str(), label_path.c_str());
  for (const TruthBox& t : scene.truths) {
    std::printf("  %s %s\n",
                classes[static_cast<size_t>(t.class_id)].display_name.c_str(),
                t.box.ToString().c_str());
  }
  return 0;
}

int CmdDetect(int argc, char** argv) {
  const char* weights = ArgS(argc, argv, "--weights", nullptr);
  const char* image_path = ArgS(argc, argv, "--image", nullptr);
  if (weights == nullptr || image_path == nullptr) {
    std::fprintf(stderr, "detect needs --weights and --image\n");
    return 2;
  }
  const int classes_n = ArgI(argc, argv, "--classes", 10);
  const float thresh = ArgF(argc, argv, "--thresh", 0.25f);
  const auto& classes = classes_n == 20 ? IndianFood20() : IndianFood10();

  auto img = ReadPpm(image_path);
  THALI_CHECK(img.ok()) << img.status().ToString();
  auto det_or = Detector::FromFiles(
      CfgFor(classes_n, ArgI(argc, argv, "--size", 96), 0), weights);
  THALI_CHECK(det_or.ok()) << det_or.status().ToString();
  Detector detector = std::move(det_or).value();
  detector.FuseBatchNorm();

  std::vector<Detection> dets = detector.Detect(*img, thresh, 0.45f);
  std::printf("%zu detections above %.2f:\n", dets.size(), thresh);
  Image annotated = *img;
  for (const Detection& d : dets) {
    std::printf("  %-16s %.2f  %s\n",
                classes[static_cast<size_t>(d.class_id)].display_name.c_str(),
                d.confidence, d.box.ToString().c_str());
    DrawRect(annotated, static_cast<int>(d.box.Left() * annotated.width()),
             static_cast<int>(d.box.Top() * annotated.height()),
             static_cast<int>(d.box.Right() * annotated.width()),
             static_cast<int>(d.box.Bottom() * annotated.height()),
             Color{1.0f, 0.1f, 0.1f});
  }
  const char* out = ArgS(argc, argv, "--out", nullptr);
  if (out != nullptr) {
    THALI_CHECK_OK(WritePpm(annotated, out));
    std::printf("annotated image written to %s\n", out);
  }
  return 0;
}

int CmdTrain(int argc, char** argv) {
  const char* data = ArgS(argc, argv, "--data", nullptr);
  if (data == nullptr) {
    std::fprintf(stderr, "train needs --data DIR/obj.data\n");
    return 2;
  }
  // The dataset directory is the parent of obj.data.
  std::string dir(data);
  const size_t slash = dir.rfind('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);

  auto ds = FoodDataset::LoadFrom(dir);
  THALI_CHECK(ds.ok()) << ds.status().ToString();
  const int iters = ArgI(argc, argv, "--iters", 600);
  std::printf("loaded %d images (%d classes) from %s; training %d iters\n",
              ds->size(), ds->num_classes(), dir.c_str(), iters);

  TransferTrainer::Options topts;
  topts.cfg_text =
      CfgFor(ds->num_classes(), ds->item(0).image.width(), iters);
  topts.log_every = ArgI(argc, argv, "--log-every", 100);
  const char* pretrained = ArgS(argc, argv, "--pretrained", nullptr);
  if (pretrained != nullptr) {
    topts.pretrained_weights = pretrained;
    topts.transfer_cutoff =
        ArgI(argc, argv, "--cutoff", kYoloThaliBackboneCutoff);
  }
  auto trainer = TransferTrainer::Create(topts);
  THALI_CHECK(trainer.ok()) << trainer.status().ToString();
  THALI_CHECK_OK(trainer->Train(*ds, iters));

  EvalResult r = trainer->Evaluate(*ds, ds->val_indices());
  std::printf("%s\n", RenderSummaryLine(r).c_str());

  const char* out = ArgS(argc, argv, "--out", "thali_trained.weights");
  THALI_CHECK_OK(trainer->SaveWeightsTo(out));
  std::printf("weights written to %s\n", out);
  return 0;
}

int CmdMap(int argc, char** argv) {
  const char* data = ArgS(argc, argv, "--data", nullptr);
  const char* weights = ArgS(argc, argv, "--weights", nullptr);
  if (data == nullptr || weights == nullptr) {
    std::fprintf(stderr, "map needs --data and --weights\n");
    return 2;
  }
  std::string dir(data);
  const size_t slash = dir.rfind('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);

  auto ds = FoodDataset::LoadFrom(dir);
  THALI_CHECK(ds.ok()) << ds.status().ToString();

  TransferTrainer::Options topts;
  topts.cfg_text = CfgFor(ds->num_classes(), ds->item(0).image.width(), 0);
  topts.pretrained_weights = weights;
  topts.log_every = 0;
  auto trainer = TransferTrainer::Create(topts);
  THALI_CHECK(trainer.ok()) << trainer.status().ToString();

  EvalResult r = trainer->Evaluate(*ds, ds->val_indices());
  auto names_or = ReadNamesFile(JoinPath(dir, "obj.names"));
  std::vector<std::string> names =
      names_or.ok() ? *names_or : ClassDisplayNames(IndianFood10());
  std::fputs(RenderClassApTable(r, names).c_str(), stdout);
  std::printf("%s\n", RenderSummaryLine(r).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: thali_cli {cfg|summary|render|detect|train|map} [flags]\n"
                 "see the header comment of thali_cli.cpp for details\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "cfg") return CmdCfg(argc, argv);
  if (cmd == "summary") return CmdSummary(argc, argv);
  if (cmd == "render") return CmdRender(argc, argv);
  if (cmd == "detect") return CmdDetect(argc, argv);
  if (cmd == "train") return CmdTrain(argc, argv);
  if (cmd == "map") return CmdMap(argc, argv);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
