#ifndef THALI_NN_LAYER_H_
#define THALI_NN_LAYER_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "nn/exec_plan.h"
#include "tensor/tensor.h"

namespace thali {

class Network;

// One learnable parameter tensor of a layer, paired with its gradient
// accumulator. `apply_decay` marks tensors subject to L2 weight decay
// (conv weights yes; biases and batch-norm scales no, per Darknet).
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  bool apply_decay = false;
  std::string name;
};

// Read-only view of a Param, for const consumers (summaries, parameter
// counting) that must not mutate the tensors.
struct ConstParam {
  const Tensor* value = nullptr;
  const Tensor* grad = nullptr;
  bool apply_decay = false;
  std::string name;
};

// The most elements one layer's weights or output may hold: 2^28, a
// GiB of fp32. Configure returns InvalidArgument above it before
// allocating anything, so a well-formed but absurd cfg value
// (filters=1000000000) is a Status rather than an allocation failure.
// A constant, not a setting: every tensor of the models here is orders
// of magnitude smaller.
inline constexpr int64_t kMaxLayerElements = int64_t{1} << 28;

// OK when the product of `dims` is at most kMaxLayerElements, else
// InvalidArgument naming `what`. Never overflows: the running product
// stops at the first factor that takes it past the budget.
inline Status CheckElementBudget(const std::vector<int64_t>& dims,
                                 const char* what) {
  int64_t n = 1;
  for (const int64_t d : dims) {
    if (d > kMaxLayerElements || (n *= d) > kMaxLayerElements) {
      return Status::InvalidArgument(
          std::string(what) + " exceeds the budget of " +
          std::to_string(kMaxLayerElements) + " elements per layer");
    }
  }
  return Status::OK();
}

// Base class for all network layers (Darknet semantics: every layer owns
// its output activation tensor; training networks additionally give each
// layer a delta tensor holding dLoss/dOutput).
//
// Lifecycle: construct -> Configure(input_shape) once the preceding
// layer's shape is known -> Forward/Backward repeatedly. The execution
// mode (set by Network::Finalize before Configure runs) decides what
// Configure allocates: kTraining layers own output + delta + backward
// caches; kInference layers allocate neither delta nor caches, and their
// output storage is a slot of the network's planned activation arena.
// Batch size is taken from the input shape and may later change via
// Rebatch (Network::SetBatch), which re-derives shapes and resizes
// activation buffers without touching parameters.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  // Short Darknet-style kind tag ("convolutional", "route", ...).
  virtual const char* kind() const = 0;

  // Validates geometry, computes the output shape and allocates buffers.
  // `net` exposes earlier layers (route/shortcut need their shapes).
  virtual Status Configure(const Shape& input_shape, const Network& net) = 0;

  // Re-derives shapes and resizes activation buffers for a new batch
  // size, leaving learnable parameters untouched. The default re-runs
  // Configure, which is correct for every parameter-free layer; layers
  // owning parameters (conv) override to skip parameter initialization.
  virtual Status Rebatch(const Shape& input_shape, const Network& net) {
    return Configure(input_shape, net);
  }

  // Computes the elements of output_ that batch items [items.begin,
  // items.end) own, from `input` (the preceding layer's output), with
  // network workspace slots from items.slot on. An inference forward
  // calls it once per item group, the groups concurrently: Forward then
  // writes no member and touches only its items' elements. `train`
  // selects training behaviour (batch statistics, caches) and is only
  // legal on a kTraining network, whose forwards cover the whole batch
  // from slot 0 and may fan out inside.
  virtual void Forward(const Tensor& input, Network& net, bool train,
                       const ItemRange& items) = 0;

  // Called by Network::Forward once per forward, before any item group
  // runs. Layers latch here the per-forward state their groups only
  // read (weights repacked after a mutation, the head's decode mode).
  virtual void BeginForward(const Network& /*net*/, bool /*train*/) {}

  // Propagates delta_ (dL/dOutput) into `input_delta` (accumulating;
  // may be null at the network input) and accumulates parameter
  // gradients. Layers reading extra inputs (route/shortcut) also
  // accumulate into those layers' deltas via `net`. kTraining only.
  virtual void Backward(const Tensor& input, Tensor* input_delta,
                        Network& net) = 0;

  // Learnable parameters (empty for pooling/route/etc.).
  virtual std::vector<Param> Params() { return {}; }
  // Const view of the same parameters for read-only consumers.
  virtual std::vector<ConstParam> Params() const { return {}; }

  // Scratch floats this layer needs from the shared network workspace.
  virtual int64_t WorkspaceSize() const { return 0; }

  // --- Dataflow hooks for the activation arena planner. Valid after
  // Configure (layer references resolved). ---

  // Earlier layers whose outputs Forward reads through `net` (route
  // sources, shortcut 'from').
  virtual std::vector<int> ExtraInputIndices() const { return {}; }
  // Whether Forward reads the `input` argument (the previous layer's
  // output). Route reads only its sources.
  virtual bool ReadsPreviousOutput() const { return true; }
  // Whether the output is consumed after the forward pass finishes
  // (detection heads are decoded post-forward), pinning it live to the
  // end of the plan.
  virtual bool OutputLiveAfterForward() const { return false; }

  const Shape& input_shape() const { return in_shape_; }
  const Shape& output_shape() const { return out_shape_; }
  Tensor& output() { return output_; }
  const Tensor& output() const { return output_; }
  Tensor& delta() { return delta_; }
  const Tensor& delta() const { return delta_; }

  // Position in the owning network; set by Network::Add.
  int index() const { return index_; }
  void set_index(int idx) { index_ = idx; }

  // Execution mode, set by Network::Finalize before Configure runs.
  // Standalone layers default to kTraining (the seed behaviour).
  ExecMode exec_mode() const { return mode_; }
  void set_exec_mode(ExecMode mode) { mode_ = mode; }

  // This layer's slice of the compiled execution plan, pushed by
  // Network::PlanBuffers after CompileExecPlan runs (and re-pushed on
  // every SetBatch and ReplanInference). Forward runs what it says and
  // decides nothing itself. The default-constructed LayerPlan (fp32,
  // nothing fused or elided) is what training networks and standalone
  // layers run with.
  const LayerPlan& plan() const { return plan_; }
  void set_plan(const LayerPlan& plan) { plan_ = plan; }

  // Called by Network::PlanBuffers after every layer's plan has been
  // (re)pushed — at Finalize, SetBatch and ReplanInference — and before
  // WorkspaceSize is queried. Layers that derive per-forward state from
  // their plan (conv int8 workspace sections, conv weights packed for
  // the planned dtype) recompute it here instead of on every Forward.
  virtual void OnPlanUpdated() {}

  // When frozen, the optimizer skips this layer's parameters (transfer
  // learning freezes backbone layers).
  bool frozen() const { return frozen_; }
  void set_frozen(bool f) { frozen_ = f; }

 protected:
  Layer() = default;

  // True when the layer runs inference-only: no delta, no backward
  // caches. Layers gate their cache allocations/writes on this.
  bool inference() const { return mode_ == ExecMode::kInference; }

  // Records shapes and allocates the mode-appropriate buffers: training
  // layers own output_ and delta_; inference layers get their output
  // storage (an arena slot) from Network::Finalize after all layers are
  // configured. An output above kMaxLayerElements is InvalidArgument,
  // before anything is allocated.
  Status SetShapes(Shape input_shape, Shape output_shape) {
    THALI_RETURN_IF_ERROR(
        CheckElementBudget(output_shape.dims(), "layer output"));
    in_shape_ = std::move(input_shape);
    out_shape_ = std::move(output_shape);
    if (!inference()) {
      output_.Resize(out_shape_);
      delta_.Resize(out_shape_);
    } else if (!output_.external()) {
      // Drop any stale owned storage; the network (re)binds or sizes it.
      output_ = Tensor();
    }
    return Status::OK();
  }

  Shape in_shape_;
  Shape out_shape_;
  Tensor output_;
  Tensor delta_;

 private:
  int index_ = -1;
  ExecMode mode_ = ExecMode::kTraining;
  LayerPlan plan_;
  bool frozen_ = false;
};

}  // namespace thali

#endif  // THALI_NN_LAYER_H_
