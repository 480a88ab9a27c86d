#ifndef THALI_NN_NETWORK_H_
#define THALI_NN_NETWORK_H_

#include <atomic>
#include <memory>
#include <vector>

#include "base/statusor.h"
#include "base/thread_pool.h"
#include "nn/exec_plan.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace thali {

// A feed-forward network of Darknet-style layers executed in insertion
// order. Route/shortcut layers make the graph a DAG, referencing earlier
// layers by index.
//
// Usage:
//   Network net(width, height, channels, batch);
//   net.Add(std::make_unique<ConvLayer>(...));
//   ...
//   THALI_CHECK_OK(net.Finalize(ExecMode::kInference));
//   const Tensor& out = net.Forward(input);
class Network {
 public:
  // `width`/`height`/`channels` describe the input image planes; `batch`
  // sets the initial batch dimension (changeable later via SetBatch).
  Network(int width, int height, int channels, int batch);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Appends a layer. Must be called before Finalize.
  void Add(std::unique_ptr<Layer> layer);

  // Configures every layer's shapes/buffers for `mode`, sizes the shared
  // workspace and plans output storage. Must be called once after the
  // last Add. kTraining reproduces the seed allocator (per-layer output
  // + delta); kInference skips deltas/backward caches and places outputs
  // in a liveness-planned shared arena.
  Status Finalize(ExecMode mode = ExecMode::kTraining);

  // Changes the batch dimension of an already-finalized network:
  // re-derives every layer's shapes, resizes activation buffers and
  // re-plans arena offsets. Learnable parameters and layer objects are
  // untouched, so a loaded model keeps its weights across batch changes.
  Status SetBatch(int batch);

  // Recompiles the execution plan of a finalized inference network
  // without touching shapes. The plan arms int8 convs from calibration
  // state it reads from the conv layers (folded batch norm, installed
  // ranges), so this must run after those change — LoadCalibration,
  // Detector::CalibrateInt8 and Detector::FuseBatchNorm do it for their
  // callers; direct SetActivationRange / ResetCalibration / FoldBatchNorm
  // callers do it themselves. Until then Forward runs the previous plan.
  // No-op for training networks.
  Status ReplanInference();

  // Runs all layers; returns the last layer's output. `input` must be
  // (batch, channels, height, width). With train=true, layers use batch
  // statistics and keep backward caches — kTraining networks only. An
  // inference network runs the plan's item groups concurrently, each
  // through every layer on one strand, a group waiting only where the
  // arena reuses storage another group may still read
  // (ArenaAssignment::fence); a training network runs each layer over
  // the whole batch, and its layers fan out inside. An exception thrown
  // by a layer in any group stops every group at its next fence and is
  // rethrown here once all groups have stopped.
  const Tensor& Forward(const Tensor& input, bool train = false);

  // Runs fn(ItemRange) once per item group of the plan
  // (ExecPlan::groups, GroupItems): the groups concurrently in one
  // ParallelFor region, whose chunks never fan out further. A single
  // group runs inline on the caller under a ScopedSingleStrand, with no
  // region and no allocation. The detector runs its staging and decode
  // this way, over the groups Forward runs its layers in.
  template <typename Fn>
  void ForEachGroup(Fn&& fn) const {
    const int groups = eplan_.groups;
    if (groups == 1) {
      const ScopedSingleStrand one_strand;
      fn(ItemRange{0, batch_, 0});
      return;
    }
    ParallelForBounded(0, groups, 1, groups,
                       [&](int64_t g0, int64_t g1, int) {
                         for (int64_t g = g0; g < g1; ++g) {
                           fn(GroupItems(batch_, groups, static_cast<int>(g)));
                         }
                       });
  }

  // Backpropagates all layer deltas (seeded by loss layers) down to the
  // input. Call after Forward(train=true) and after loss layers populated
  // their delta tensors. Parameter gradients accumulate until ZeroGrads.
  // kTraining networks only.
  void Backward(const Tensor& input);

  // Clears every layer's delta tensor (dL/dOutput buffers). kTraining
  // networks only.
  void ZeroDeltas();

  // Clears every parameter gradient accumulator.
  void ZeroGrads();

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_.at(static_cast<size_t>(i)); }
  const Layer& layer(int i) const { return *layers_.at(static_cast<size_t>(i)); }

  // Resolves a possibly-negative Darknet layer reference (-1 = previous
  // layer relative to `at`) to an absolute index.
  int ResolveIndex(int ref, int at) const;

  int input_width() const { return width_; }
  int input_height() const { return height_; }
  int input_channels() const { return channels_; }
  int batch() const { return batch_; }
  Shape input_shape() const {
    return Shape({batch_, channels_, height_, width_});
  }

  // Execution mode chosen at Finalize.
  ExecMode exec_mode() const { return mode_; }

  // Active calibration pass. Setting it replans: any phase other than
  // kOff disarms every int8 conv (each runs its fp32 algorithm), and the
  // quantizable convs record input statistics in Forward.
  CalibPhase calib_phase() const { return calib_phase_; }
  void set_calib_phase(CalibPhase phase);

  // Opt-in for the decode fast path: when set on an inference network,
  // YOLO heads skip their Forward sigmoid loops and leave output_
  // holding RAW logits; GetDetections then pre-filters in logit space
  // and activates only surviving cells (bitwise identical detections).
  // Only owners that never read head outputs directly (Detector) should
  // set this — raw Network users keep the seed sigmoided outputs.
  bool defer_head_activation() const { return defer_head_activation_; }
  void set_defer_head_activation(bool defer) {
    defer_head_activation_ = defer;
  }

  // The activation-arena plan computed at Finalize/SetBatch. For
  // kTraining networks the plan is computed for reporting only
  // (enabled=false); for kInference it is the live layout.
  const ArenaPlan& arena_plan() const { return eplan_.arena; }

  // The full execution plan (per-layer layouts, conv algorithms, int8
  // arming, copy elisions) the inference plan compiler produced at the
  // last Finalize/SetBatch/ReplanInference — exactly what Forward runs.
  // Inference networks get the fused plan; training networks get the
  // reference plan (fused == false, all LayerPlans default).
  const ExecPlan& exec_plan() const { return eplan_; }

  // Bytes of activation buffers this network holds live: outputs plus
  // deltas in training mode; the arena in inference mode. The
  // acceptance metric the memory bench reports.
  int64_t ActivationBytes() const;

  // Per-strand scratch buffer (im2col panels). Finalize fixes one slot
  // per strand of parallelism (MaxParallelism() at finalize time); every
  // plan push sizes each to the largest WorkspaceSize() any layer
  // declares under that plan. `slot` is the item group's slot
  // (ItemRange::slot), plus the ParallelFor strand index in a training
  // forward; `required` is the float count the layer is about to use
  // and is checked against the sized capacity — an undersized workspace
  // would otherwise be a silent buffer overrun.
  float* workspace(int slot, int64_t required);

  // Base of layer i's u8 activation tensor, or nullptr when the plan
  // keeps that layer fp32. Valid after PlanBuffers; chained producers
  // write their requantized bytes here and chained consumers read their
  // sources' pointers. Storage lives in per-alias-group DTypeBuffers
  // parallel to the fp32 arena (the fp32 slots stay bound, so
  // uncalibrated and unchained plans are untouched).
  uint8_t* quant_act(int i) {
    return qact_.empty() ? nullptr : qact_[static_cast<size_t>(i)];
  }

  // Base of the quantized NETWORK INPUT tensor, or nullptr when the plan
  // does not chain layer 0 (plan.input_u8 == false). When the chain
  // reaches layer 0, Forward fills this by quantizing the fp32 input
  // with the plan's input domain — unless the caller already staged the
  // bytes (the detector's fused letterbox→quantize path) and armed
  // set_input_prequantized, in which case the staged bytes are consumed
  // as-is (one-shot; the flag clears on every Forward).
  uint8_t* quant_input() { return qinput_.empty() ? nullptr : qinput_.raw(); }
  void set_input_prequantized(bool prequantized) {
    input_prequantized_ = prequantized;
  }
  // Scratch floats available per slot.
  int64_t workspace_size() const { return workspace_floats_; }
  // Number of per-strand slots; the plan's group count and callers
  // running layer code in parallel are bounded by this.
  int workspace_slots() const { return static_cast<int>(workspaces_.size()); }

  // All learnable parameters of unfrozen layers, in layer order.
  std::vector<Param> TrainableParams();
  // All learnable parameters regardless of freeze state (serialization).
  std::vector<Param> AllParams();

  // Total learnable parameter count.
  int64_t NumParameters() const;

  // Freezes layers [0, cutoff) — the transfer-learning backbone freeze.
  void FreezeUpTo(int cutoff);

  bool finalized() const { return finalized_; }

 private:
  // Runs item group g of an inference forward until it has finished
  // `layers` layers, first waiting at each layer's arena fence for the
  // other groups. Groups adopted while waiting join `owned`. False when
  // another group threw, so the forward stops.
  bool AdvanceGroup(const Tensor& input, int g, int layers,
                    std::vector<int>& owned);
  // Returns true once group h has finished `layers` layers, adopting h
  // into `owned` and running it here if no strand claimed it in time;
  // false as soon as a group threw.
  bool AwaitGroup(const Tensor& input, int h, int layers,
                  std::vector<int>& owned);

  // (Re)compiles the plan, pushes it to the layers, sizes the workspace
  // slots to the plan's need and, for inference networks, binds layer
  // outputs into arena_ and sizes the u8 chain buffers.
  void PlanBuffers();

  int width_;
  int height_;
  int channels_;
  int batch_;
  ExecMode mode_ = ExecMode::kTraining;
  CalibPhase calib_phase_ = CalibPhase::kOff;
  bool defer_head_activation_ = false;
  bool input_prequantized_ = false;
  bool finalized_ = false;
  std::vector<std::unique_ptr<Layer>> layers_;
  // One scratch tensor per parallel strand (distinct allocations, so
  // concurrent strands never share cache lines).
  std::vector<Tensor> workspaces_;
  // Each item group's state in the running forward, one cache line per
  // group: the layers it finished, which the arena fences
  // (ArenaAssignment::fence) wait on, and whether a strand runs it.
  struct alignas(64) GroupProgress {
    std::atomic<int> layers{0};
    std::atomic<bool> claimed{false};
  };
  std::vector<GroupProgress> group_progress_;
  // Set when a layer threw in some group of the running forward: that
  // group never finishes its layers, so the others stop waiting on it.
  std::atomic<bool> group_failed_{false};
  int64_t workspace_floats_ = 0;
  // Shared activation storage for arena-planned inference outputs.
  Tensor arena_;
  // u8 activation blocks for quantize-once chaining: one buffer per
  // alias-group root whose planned out_dtype is kU8, plus the resolved
  // per-layer base pointers (both empty without chains).
  std::vector<DTypeBuffer> qbufs_;
  std::vector<uint8_t*> qact_;
  // Quantized network-input bytes when the chain reaches layer 0
  // (plan.input_u8); empty otherwise.
  DTypeBuffer qinput_;
  ExecPlan eplan_;
};

}  // namespace thali

#endif  // THALI_NN_NETWORK_H_
