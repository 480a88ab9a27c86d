// Tests for the mode-aware execution model: the inference arena planner
// (liveness over route/shortcut fan-out, bitwise identity with the seed
// per-layer allocator), dynamic batch via Network::SetBatch /
// Detector::DetectBatch, and batch-norm folding on arena-planned nets.
// The oracle for every inference plan is a kTraining network built from
// the same seed: it runs the seed per-layer allocator and the reference
// im2col/NCHW/libm path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "base/file_util.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/detector.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "darknet/weights_io.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "nn/network.h"
#include "nn/route_layer.h"
#include "nn/shortcut_layer.h"

namespace thali {
namespace {

void FillDeterministic(Tensor& t, uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = rng.NextFloat();
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

// yolov4-thali built straight from the cfg generator, weights seeded
// identically for every call so nets of different modes agree bitwise.
BuiltNetwork BuildThali(ExecMode mode, int batch) {
  Rng rng(99);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}), batch,
                                   rng, mode);
  THALI_CHECK_OK(built.status());
  return std::move(built).value();
}

// A small DAG with *far* fan-out: layer 0 feeds a shortcut at 2 and a
// route at 4, so its buffer stays live across three intermediate layers.
// A planner that freed outputs after their immediate successor would
// hand layer 0's storage to layer 1 or 3 and corrupt the route input.
//
//   0 conv8 ── 1 conv8 ── 2 shortcut(from 0) ── 3 conv8 ── 4 route{0,-1}
//   └────────────────────────┘                               │
//   └──────────────────────────────────────────────────────┘
//                                              5 conv4(1x1) ── output
//
// `ksize` sizes the three conv8 layers (3x3 by default) and `act` is
// every conv's activation; with leaky the fused plan runs every conv
// bitwise-exact, with mish through the fast mish family.
std::unique_ptr<Network> BuildFanoutNet(
    ExecMode mode, int ksize = 3, Activation act = Activation::kLeaky) {
  auto net = std::make_unique<Network>(16, 16, 3, 1);
  auto conv = [act](int filters, int k) {
    ConvLayer::Options o;
    o.filters = filters;
    o.ksize = k;
    o.stride = 1;
    o.pad = k / 2;
    o.activation = act;
    return std::make_unique<ConvLayer>(o);
  };
  net->Add(conv(8, ksize));  // 0
  net->Add(conv(8, ksize));  // 1
  ShortcutLayer::Options so;
  so.from = 0;
  net->Add(std::make_unique<ShortcutLayer>(so));  // 2
  net->Add(conv(8, ksize));                       // 3
  RouteLayer::Options ro;
  ro.layers = {0, -1};
  net->Add(std::make_unique<RouteLayer>(ro));  // 4
  net->Add(conv(4, 1));                        // 5
  THALI_CHECK_OK(net->Finalize(mode));
  Rng rng(1234);
  for (int i = 0; i < net->num_layers(); ++i) {
    if (std::string_view(net->layer(i).kind()) == "convolutional") {
      static_cast<ConvLayer&>(net->layer(i)).InitWeights(rng);
    }
  }
  return net;
}

TEST(ArenaPlanTest, InferenceModeAllocatesNoDeltas) {
  BuiltNetwork train = BuildThali(ExecMode::kTraining, 1);
  BuiltNetwork infer = BuildThali(ExecMode::kInference, 1);
  for (int i = 0; i < infer.net->num_layers(); ++i) {
    EXPECT_EQ(infer.net->layer(i).delta().size(), 0) << "layer " << i;
    EXPECT_GT(train.net->layer(i).delta().size(), 0) << "layer " << i;
  }
  EXPECT_EQ(train.net->exec_mode(), ExecMode::kTraining);
  EXPECT_EQ(infer.net->exec_mode(), ExecMode::kInference);
  EXPECT_FALSE(train.net->arena_plan().enabled);
  EXPECT_TRUE(infer.net->arena_plan().enabled);
  // Deltas alone halve the footprint; the arena does the rest.
  EXPECT_LT(infer.net->ActivationBytes(), train.net->ActivationBytes() / 2);
}

TEST(ArenaPlanTest, RouteFanoutKeepsSourceLive) {
  std::unique_ptr<Network> net = BuildFanoutNet(ExecMode::kInference);
  const ArenaPlan& plan = net->arena_plan();
  ASSERT_TRUE(plan.enabled);
  ASSERT_EQ(plan.assignments.size(), 6u);
  // Layer 0 is read by the route at 4, so it must stay live through it.
  EXPECT_EQ(plan.assignments[0].last_use, 4);
  // The final layer's output survives the forward pass (virtual consumer
  // one past the end).
  EXPECT_EQ(plan.assignments[5].last_use, net->num_layers());
}

// Live-together blocks must never partially overlap. Under the fused
// plan the compiler deliberately aliases route/shortcut storage onto a
// producer's block, so "i nests fully inside j" (or vice versa) is
// legal; anything else is a planner bug. The plain liveness placement a
// training network reports (no aliasing) keeps the strict-disjoint
// contract exactly.
TEST(ArenaPlanTest, OverlappingLiveIntervalsNeverShareArenaBytes) {
  for (const ExecMode mode : {ExecMode::kInference, ExecMode::kTraining}) {
    const bool allow_nest = mode == ExecMode::kInference;
    BuiltNetwork built = BuildThali(mode, 2);
    const ArenaPlan& plan = built.net->arena_plan();
    EXPECT_EQ(plan.enabled, allow_nest);
    const auto& a = plan.assignments;
    for (size_t i = 0; i < a.size(); ++i) {
      for (size_t j = i + 1; j < a.size(); ++j) {
        const bool live_together =
            a[i].first_use <= a[j].last_use && a[j].first_use <= a[i].last_use;
        if (!live_together) continue;
        const bool disjoint = a[i].offset + a[i].floats <= a[j].offset ||
                              a[j].offset + a[j].floats <= a[i].offset;
        const bool nested =
            (a[i].offset >= a[j].offset &&
             a[i].offset + a[i].floats <= a[j].offset + a[j].floats) ||
            (a[j].offset >= a[i].offset &&
             a[j].offset + a[j].floats <= a[i].offset + a[i].floats);
        EXPECT_TRUE(disjoint || (allow_nest && nested))
            << "layers " << i << " and " << j
            << " are live together but partially overlap in the arena"
            << " (inference=" << allow_nest << ")";
      }
    }
    // Every assignment fits inside the arena.
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_LE(a[i].offset + a[i].floats, plan.arena_floats) << "layer " << i;
    }
  }
}

// On the leaky fan-out net the fused plan runs only bitwise-exact steps
// (im2col and direct 1x1 GEMMs with the bias+leaky epilogue, aliased
// route and in-place shortcut), so the arena-planned forward must agree
// *bitwise* with the seed per-layer allocator — arena placement and copy
// elision can never change arithmetic. Batch 2 elides nothing and
// copies every route and shortcut.
TEST(ArenaPlanTest, ArenaForwardMatchesSeedAllocatorBitwise) {
  for (const int ksize : {1, 3}) {
    SCOPED_TRACE("ksize " + std::to_string(ksize));
    std::unique_ptr<Network> seed_net =
        BuildFanoutNet(ExecMode::kTraining, ksize);
    std::unique_ptr<Network> arena_net =
        BuildFanoutNet(ExecMode::kInference, ksize);
    ASSERT_TRUE(arena_net->exec_plan().fused);
    int elided = 0;
    for (const LayerPlan& lp : arena_net->exec_plan().layers) {
      if (lp.copy_elided) ++elided;
    }
    EXPECT_GT(elided, 0) << "the fan-out net must exercise copy elision";

    for (const int batch : {1, 2}) {
      ASSERT_TRUE(seed_net->SetBatch(batch).ok());
      ASSERT_TRUE(arena_net->SetBatch(batch).ok());
      Tensor input(seed_net->input_shape());
      FillDeterministic(input, 5);
      const Tensor& seed_out = seed_net->Forward(input, /*train=*/false);
      const Tensor& arena_out = arena_net->Forward(input, /*train=*/false);
      ExpectBitwiseEqual(seed_out, arena_out);
    }
  }
}

// Fast mish is the one step of the fused fp32 plan that is not bitwise
// vs the reference (libm mish), so the mish fan-out net must stay inside
// the documented 1e-4 + 1e-3|ref| envelope.
TEST(ArenaPlanTest, FusedForwardMatchesReferenceWithinTolerance) {
  std::unique_ptr<Network> ref_net =
      BuildFanoutNet(ExecMode::kTraining, 3, Activation::kMish);
  std::unique_ptr<Network> fused_net =
      BuildFanoutNet(ExecMode::kInference, 3, Activation::kMish);
  ASSERT_FALSE(ref_net->exec_plan().fused);
  ASSERT_TRUE(fused_net->exec_plan().fused);

  Tensor input(ref_net->input_shape());
  FillDeterministic(input, 5);
  const Tensor& a = ref_net->Forward(input, /*train=*/false);
  const Tensor& b = fused_net->Forward(input, /*train=*/false);
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i],
                1e-4f + 1e-3f * std::abs(a.data()[i]))
        << "at " << i;
  }
}

// Full yolov4-thali, layer by layer: every layer the fused plan runs
// with exact arithmetic (every conv without the fast mish, and the
// detection heads), fed the seed allocator's input for
// that layer, must write the seed allocator's output bit for bit into
// its arena slot — prepacked weights and, with folded batch norm, the
// fused bias+activation GEMM epilogue included.
TEST(ArenaPlanTest, FullModelArenaMatchesSeedAllocatorBitwise) {
  for (const bool fold : {false, true}) {
    BuiltNetwork seed = BuildThali(ExecMode::kTraining, 1);
    BuiltNetwork arena = BuildThali(ExecMode::kInference, 1);
    if (fold) {
      for (BuiltNetwork* b : {&seed, &arena}) {
        for (int i = 0; i < b->net->num_layers(); ++i) {
          if (std::string_view(b->net->layer(i).kind()) == "convolutional") {
            static_cast<ConvLayer&>(b->net->layer(i)).FoldBatchNorm();
          }
        }
      }
      ASSERT_TRUE(arena.net->ReplanInference().ok());
    }
    Tensor input(seed.net->input_shape());
    FillDeterministic(input, 11);
    seed.net->Forward(input, /*train=*/false);

    int compared = 0;
    for (int i = 0; i < arena.net->num_layers(); ++i) {
      Layer& layer = arena.net->layer(i);
      const std::string_view kind = layer.kind();
      const bool exact_conv =
          kind == "convolutional" &&
          static_cast<const ConvLayer&>(layer).options().activation !=
              Activation::kMish;
      if (!exact_conv && kind != "yolo") continue;
      const Tensor& in = i == 0 ? input : seed.net->layer(i - 1).output();
      layer.BeginForward(*arena.net, /*train=*/false);
      layer.Forward(in, *arena.net, /*train=*/false,
                    ItemRange{0, arena.net->batch(), 0});
      SCOPED_TRACE("layer " + std::to_string(i) + " fold=" +
                   std::to_string(fold));
      ExpectBitwiseEqual(layer.output(), seed.net->layer(i).output());
      ++compared;
    }
    // 10 convs (the 2 stride-2 stem convs, the 13 stride-1 3x3s and the
    // 10 1x1s, less the 15 that run the fast mish) plus 3 heads; pinned
    // so the sweep cannot silently shrink.
    EXPECT_EQ(compared, 13);
  }
}

// The full yolov4-thali model with the fused plan: every detection head
// must decode within tolerance of the training network's reference path.
TEST(ArenaPlanTest, FullModelFusedMatchesReferenceWithinTolerance) {
  BuiltNetwork ref = BuildThali(ExecMode::kTraining, 1);
  BuiltNetwork fused = BuildThali(ExecMode::kInference, 1);
  ASSERT_TRUE(fused.net->exec_plan().fused);

  Tensor input(ref.net->input_shape());
  FillDeterministic(input, 11);
  ref.net->Forward(input, /*train=*/false);
  fused.net->Forward(input, /*train=*/false);
  ASSERT_EQ(ref.yolo_layers.size(), fused.yolo_layers.size());
  for (size_t h = 0; h < ref.yolo_layers.size(); ++h) {
    const Tensor& a = ref.yolo_layers[h]->output();
    const Tensor& b = fused.yolo_layers[h]->output();
    ASSERT_EQ(a.size(), b.size());
    for (int64_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a.data()[i], b.data()[i],
                  1e-4f + 1e-3f * std::abs(a.data()[i]))
          << "head " << h << " at " << i;
    }
  }
}

// The plan is fused exactly when the network is kInference: a training
// network (the oracle of every fused-plan test) keeps every conv on
// fp32, elides no copies and fuses no epilogue (so mish runs through
// libm, not the fast family), across re-plans too.
TEST(ExecPlanTest, TrainingNetworksRunTheReferencePlan) {
  BuiltNetwork train = BuildThali(ExecMode::kTraining, 1);
  BuiltNetwork infer = BuildThali(ExecMode::kInference, 1);
  EXPECT_TRUE(infer.net->exec_plan().fused);
  for (const int batch : {1, 2}) {
    ASSERT_TRUE(train.net->SetBatch(batch).ok());
    EXPECT_FALSE(train.net->exec_plan().fused);
    for (const LayerPlan& lp : train.net->exec_plan().layers) {
      EXPECT_FALSE(lp.int8);
      EXPECT_FALSE(lp.copy_elided);
      EXPECT_FALSE(lp.epilogue.bias);
      EXPECT_FALSE(lp.epilogue.act.has_value());
      EXPECT_FALSE(lp.quantizable);
    }
  }
}

// The fused yolov4-thali plan before calibration: every conv runs fp32,
// ten 1x1/s1 convs multiply their input planes directly and fifteen 3x3
// convs, at stride 1 or 2, run im2col. Routes and shortcuts whose
// liveness permits are elided outright at batch 1.
TEST(ExecPlanTest, FusedPlanSelectsSpecializedPathsForYoloThali) {
  BuiltNetwork built = BuildThali(ExecMode::kInference, 1);
  const ExecPlan& plan = built.net->exec_plan();
  ASSERT_TRUE(plan.fused);
  int direct = 0, im2col = 0, elided = 0, mish = 0, fused = 0;
  for (int i = 0; i < built.net->num_layers(); ++i) {
    const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
    EXPECT_FALSE(lp.int8) << "layer " << i;
    if (std::string_view(built.net->layer(i).kind()) != "convolutional") {
      if (lp.copy_elided) ++elided;
      continue;
    }
    const auto& conv = static_cast<const ConvLayer&>(built.net->layer(i));
    const ConvLayer::Options& o = conv.options();
    ++(conv.IsDirect1x1() ? direct : im2col);
    if (o.activation == Activation::kMish) ++mish;
    // Unfolded batch norm leaves nothing to fuse: only the BN-free,
    // linear head feeders add their bias in the GEMM write-back.
    if (lp.epilogue.bias) {
      EXPECT_FALSE(o.batch_normalize) << "layer " << i;
      EXPECT_EQ(lp.epilogue.act, GemmActivation::kNone) << "layer " << i;
      ++fused;
    }
  }
  // yolov4-thali's backbone: the exact counts are structural, pin them.
  EXPECT_EQ(direct, 10);
  EXPECT_EQ(im2col, 15);
  EXPECT_EQ(elided, 15);
  EXPECT_EQ(mish, 15);
  EXPECT_EQ(fused, 3);
}

// SetBatch must re-run the plan compiler, not just resize buffers:
// elision legality and arena grouping depend on the batch. Above batch 1
// nothing is elided, so the fused arena is the plain liveness placement
// a training network reports, at the larger batch.
TEST(ExecPlanTest, SetBatchRecompilesFusedPlan) {
  BuiltNetwork built = BuildThali(ExecMode::kInference, 1);
  BuiltNetwork ref = BuildThali(ExecMode::kTraining, 1);
  Network& net = *built.net;
  ASSERT_TRUE(net.exec_plan().fused);
  const int64_t floats1 = net.arena_plan().arena_floats;

  ASSERT_TRUE(net.SetBatch(4).ok());
  ASSERT_TRUE(net.exec_plan().fused);
  EXPECT_EQ(net.arena_plan().arena_floats,
            ref.net->arena_plan().arena_floats * 4);

  ASSERT_TRUE(net.SetBatch(1).ok());
  ASSERT_TRUE(net.exec_plan().fused);
  EXPECT_EQ(net.arena_plan().arena_floats, floats1);
}

// The group plan on yolov4-thali: an inference forward splits its batch
// once into min(P, workspace slots, batch) contiguous item groups, for
// the fp32 plan and the calibrated int8 plan alike. Batch 1 and a
// calibration phase run one group, and so do training plans.
TEST(ExecPlanTest, GroupPlanSplitsEachInferenceBatchOnce) {
  const auto expect_plan = [](const Network& net, int parallelism,
                              const std::string& what) {
    const int batch = net.batch();
    const int groups = net.exec_plan().groups;
    EXPECT_EQ(groups, std::min(parallelism, batch)) << what;
    EXPECT_LE(groups, net.workspace_slots()) << what;
    // The groups tile the batch in order, their sizes at most one apart.
    int64_t next = 0, smallest = batch, largest = 0;
    for (int g = 0; g < groups; ++g) {
      const ItemRange items = GroupItems(batch, groups, g);
      EXPECT_EQ(items.begin, next) << what << " group " << g;
      EXPECT_GE(items.size(), 1) << what << " group " << g;
      EXPECT_EQ(items.slot, g) << what;
      smallest = std::min(smallest, items.size());
      largest = std::max(largest, items.size());
      next = items.end;
    }
    EXPECT_EQ(next, batch) << what;
    EXPECT_LE(largest - smallest, 1) << what;
    int int8 = 0;
    for (const LayerPlan& lp : net.exec_plan().layers) int8 += lp.int8;
    return int8;
  };
  // Restores the pool's parallelism however the test ends.
  struct RestoreParallelism {
    int saved = MaxParallelism();
    ~RestoreParallelism() { SetMaxParallelism(saved); }
  } restore;
  for (const int parallelism : {2, 4}) {
    SetMaxParallelism(parallelism);
    const std::string p = "P=" + std::to_string(parallelism);
    BuiltNetwork built = BuildThali(ExecMode::kInference, 1);
    Network& net = *built.net;
    EXPECT_EQ(net.exec_plan().groups, 1) << p;
    ASSERT_TRUE(net.SetBatch(8).ok());
    EXPECT_EQ(expect_plan(net, parallelism, p + " fp32 batch 8"), 0);
    ASSERT_TRUE(net.SetBatch(3).ok());
    EXPECT_EQ(expect_plan(net, parallelism, p + " fp32 batch 3"), 0);

    // Calibrated int8: every quantizable conv armed, then replanned.
    ASSERT_TRUE(net.SetBatch(8).ok());
    for (int i = 0; i < net.num_layers(); ++i) {
      if (std::string_view(net.layer(i).kind()) != "convolutional") continue;
      auto& conv = static_cast<ConvLayer&>(net.layer(i));
      conv.FoldBatchNorm();
      if (conv.plan().quantizable) conv.SetActivationRange(-4.0f, 4.0f);
    }
    ASSERT_TRUE(net.ReplanInference().ok());
    EXPECT_EQ(expect_plan(net, parallelism, p + " int8 batch 8"), 25);

    // A calibration phase folds statistics across the batch: one group.
    net.set_calib_phase(CalibPhase::kRange);
    EXPECT_EQ(net.exec_plan().groups, 1) << p << " calibrating";
    net.set_calib_phase(CalibPhase::kOff);
    EXPECT_EQ(net.exec_plan().groups, parallelism) << p << " calibrated";

    ASSERT_TRUE(net.SetBatch(1).ok());
    EXPECT_EQ(net.exec_plan().groups, 1) << p << " back at batch 1";

    BuiltNetwork train = BuildThali(ExecMode::kTraining, 1);
    for (const int batch : {1, 8}) {
      ASSERT_TRUE(train.net->SetBatch(batch).ok());
      EXPECT_EQ(train.net->exec_plan().groups, 1)
          << p << " training batch " << batch;
    }
  }
}

TEST(ArenaPlanTest, PinnedPeakMemoryForYoloThali) {
  // Pinned so planner regressions show up as a number, not a vague slow
  // drift. Update deliberately if the architecture or planner changes.
  // The plain liveness placement a training network reports keeps the
  // PR-2 placement exactly; at batch 1 the fused plan's copy elision
  // shrinks the peak further. Above batch 1 nothing is elided.
  BuiltNetwork ref = BuildThali(ExecMode::kTraining, 1);
  BuiltNetwork fused = BuildThali(ExecMode::kInference, 1);
  const auto elided = [](const Network& net) {
    int count = 0;
    for (const LayerPlan& lp : net.exec_plan().layers) count += lp.copy_elided;
    return count;
  };

  const ArenaPlan& ref_plan = ref.net->arena_plan();
  EXPECT_EQ(ref_plan.sum_output_floats, 195282);
  EXPECT_EQ(ref_plan.arena_floats, 36864);
  // The acceptance bar: >= 40% below the one-buffer-per-layer baseline.
  EXPECT_LE(ref_plan.arena_floats * 10, ref_plan.sum_output_floats * 6);

  const ArenaPlan& fused_plan = fused.net->arena_plan();
  EXPECT_EQ(fused_plan.sum_output_floats, 195282);
  EXPECT_EQ(fused_plan.arena_floats, 27648);
  EXPECT_LT(fused_plan.arena_floats, ref_plan.arena_floats);
  EXPECT_EQ(elided(*fused.net), 15);

  ASSERT_TRUE(fused.net->SetBatch(8).ok());
  EXPECT_EQ(fused.net->arena_plan().arena_floats, 294912);
  EXPECT_EQ(elided(*fused.net), 0);
}

TEST(SetBatchTest, GrowShrinkRegrowIsBitwiseStable) {
  BuiltNetwork built = BuildThali(ExecMode::kInference, 1);
  Network& net = *built.net;

  Tensor item(net.input_shape());
  FillDeterministic(item, 31);
  Tensor single = net.Forward(item);  // deep copy (batch-1 reference)
  const int64_t plane = single.size();

  // Grow to 4: slot 0 carries the same image, others differ.
  ASSERT_TRUE(net.SetBatch(4).ok());
  Tensor batch4(net.input_shape());
  FillDeterministic(batch4, 57);
  std::memcpy(batch4.data(), item.data(),
              static_cast<size_t>(item.size()) * sizeof(float));
  const Tensor& out4 = net.Forward(batch4);
  ASSERT_EQ(out4.size(), plane * 4);
  EXPECT_EQ(std::memcmp(out4.data(), single.data(),
                        static_cast<size_t>(plane) * sizeof(float)),
            0)
      << "batch item 0 diverged from the batch-1 forward";

  // Shrink back to 1 and re-check the original result.
  ASSERT_TRUE(net.SetBatch(1).ok());
  ExpectBitwiseEqual(net.Forward(item), single);

  // Re-grow: planning must be repeatable, not a one-way door.
  ASSERT_TRUE(net.SetBatch(4).ok());
  const Tensor& out4b = net.Forward(batch4);
  EXPECT_EQ(std::memcmp(out4b.data(), single.data(),
                        static_cast<size_t>(plane) * sizeof(float)),
            0);
}

TEST(SetBatchTest, PreservesLoadedParameters) {
  // Rebatch must not re-run parameter init: Configure fills BN scales
  // and rolling variance with ones, which would clobber loaded weights.
  BuiltNetwork built = BuildThali(ExecMode::kInference, 1);
  ConvLayer* conv = nullptr;
  for (int i = 0; i < built.net->num_layers(); ++i) {
    if (std::string_view(built.net->layer(i).kind()) == "convolutional") {
      conv = static_cast<ConvLayer*>(&built.net->layer(i));
      break;
    }
  }
  ASSERT_NE(conv, nullptr);
  ASSERT_GT(conv->scales().size(), 0);
  conv->scales().data()[0] = 2.5f;
  conv->rolling_var().data()[0] = 0.75f;
  ASSERT_TRUE(built.net->SetBatch(3).ok());
  EXPECT_EQ(conv->scales().data()[0], 2.5f);
  EXPECT_EQ(conv->rolling_var().data()[0], 0.75f);
}

TEST(DetectorBatchTest, DetectBatchMatchesSequentialDetect) {
  auto det_or = Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}), 17);
  ASSERT_TRUE(det_or.ok()) << det_or.status().ToString();
  Detector det = std::move(det_or).value();

  // Mixed sizes: one matching the network, one wide, one tall — the
  // letterbox mapping must come out per-item identical to Detect.
  std::vector<Image> images;
  const int sizes[3][2] = {{96, 96}, {192, 96}, {96, 160}};
  for (int k = 0; k < 3; ++k) {
    PlatterRenderer::Options ro;
    ro.width = sizes[k][0];
    ro.height = sizes[k][1];
    PlatterRenderer renderer(IndianFood10(), ro);
    Rng rng(static_cast<uint64_t>(40 + k));
    images.push_back(renderer.RenderSingleDish(k, rng).image);
  }

  const auto batched = det.DetectBatch(images, 0.01f, 0.45f);
  ASSERT_EQ(batched.size(), images.size());
  for (size_t k = 0; k < images.size(); ++k) {
    const auto solo = det.Detect(images[k], 0.01f, 0.45f);
    ASSERT_EQ(batched[k].size(), solo.size()) << "image " << k;
    for (size_t i = 0; i < solo.size(); ++i) {
      EXPECT_EQ(batched[k][i].box.x, solo[i].box.x);
      EXPECT_EQ(batched[k][i].box.y, solo[i].box.y);
      EXPECT_EQ(batched[k][i].box.w, solo[i].box.w);
      EXPECT_EQ(batched[k][i].box.h, solo[i].box.h);
      EXPECT_EQ(batched[k][i].confidence, solo[i].confidence);
      EXPECT_EQ(batched[k][i].class_id, solo[i].class_id);
    }
  }
}

TEST(DetectorBatchTest, EmptyBatchReturnsEmpty) {
  auto det_or = Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}), 17);
  ASSERT_TRUE(det_or.ok());
  EXPECT_TRUE(det_or->DetectBatch(std::span<const Image>()).empty());
}

TEST(FuseBatchNormTest, FoldedForwardMatchesUnfoldedOnArenaNet) {
  // Train rolling statistics away from their 0/1 init so folding is a
  // real transform, then compare raw network outputs folded vs not, both
  // running on arena-planned inference networks.
  BuiltNetwork trained = BuildThali(ExecMode::kTraining, 2);
  Tensor batch(trained.net->input_shape());
  for (int it = 0; it < 3; ++it) {
    FillDeterministic(batch, static_cast<uint64_t>(60 + it));
    trained.net->Forward(batch, /*train=*/true);
  }
  const std::string path =
      JoinPath(testing::TempDir(), "thali_exec_plan_fuse.weights");
  ASSERT_TRUE(SaveWeights(*trained.net, path, 3).ok());

  const std::string cfg = YoloThaliCfg(YoloThaliOptions{});
  auto plain_or = Detector::FromFiles(cfg, path, 17);
  auto fused_or = Detector::FromFiles(cfg, path, 17);
  ASSERT_TRUE(plain_or.ok());
  ASSERT_TRUE(fused_or.ok());
  Detector plain = std::move(plain_or).value();
  Detector fused = std::move(fused_or).value();
  ASSERT_TRUE(plain.network().arena_plan().enabled);
  fused.FuseBatchNorm();

  Tensor input(plain.network().input_shape());
  FillDeterministic(input, 71);
  const Tensor& a = plain.network().Forward(input);
  const Tensor& b = fused.network().Forward(input);
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i],
                1e-4f + 1e-3f * std::abs(a.data()[i]))
        << "at " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace thali
