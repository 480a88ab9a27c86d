#ifndef THALI_NN_EXEC_PLAN_H_
#define THALI_NN_EXEC_PLAN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/qtensor.h"

namespace thali {

class Network;

// How a network's buffers are planned at Finalize time.
//
//  kTraining  — every layer owns its output and a same-sized delta
//               tensor plus whatever backward caches it needs; batch
//               statistics may be updated. This is the seed behaviour.
//  kInference — no delta tensors, no backward caches, and layer outputs
//               live at planned offsets inside one shared activation
//               arena, reusing storage between layers whose liveness
//               intervals do not overlap. Forward(train=true) is a
//               programming error on an inference network.
enum class ExecMode { kTraining, kInference };

// Which activation-statistics pass, if any, the network's Forward is
// currently running (int8 calibration — see Detector::CalibrateInt8).
//
//  kOff   — normal execution. Quantized conv paths may run.
//  kRange — conv layers record the min/max of their fp32 input.
//  kHist  — conv layers accumulate an input histogram over the range
//           found by a prior kRange pass (percentile calibration).
//
// While a calibration phase is active the plan compiler arms no int8
// conv (Network::set_calib_phase replans), so every conv runs its fp32
// algorithm and the observed statistics describe the unquantized
// network.
enum class CalibPhase { kOff, kRange, kHist };

// What a conv's GEMM write-back (the fp32 GEMM epilogue or the int8
// requantize epilogue) applies after the accumulation. The plan compiler
// decides it; ConvLayer::Forward runs the passes it leaves over.
struct ConvEpilogue {
  // The write-back adds the bias, so no separate bias pass runs.
  bool bias = false;
  // The activation the write-back applies after the bias (kNone for a
  // linear conv). Unset: the layer activates in a pass of its own.
  std::optional<GemmActivation> act;
};

// Per-layer decisions of the inference plan compiler. The default
// constructed value (fp32, nothing fused, nothing elided) reproduces the
// pre-compiler behaviour exactly and is what training networks and
// standalone layers run with. Every activation is NCHW: batch item b's
// channel c plane starts at float (b*C + c)*H*W, so an item group's
// items are one contiguous span of every tensor.
struct LayerPlan {
  // An armed int8 conv: it runs the quantized GEMM (tensor/gemm_int8.h)
  // in place of the fp32 one. Geometry picks the GEMM's B matrix either
  // way: the input planes for a 1x1/stride-1/pad-0 conv, an im2col panel
  // otherwise (ConvLayer::IsDirect1x1).
  bool int8 = false;
  ConvEpilogue epilogue;
  // The layer's output aliases arena storage written by other layers
  // (route view/concat) so its Forward copies nothing. The arena
  // planner places every aliased layer inside its group root's block.
  bool copy_elided = false;
  // A conv the int8 path covers (fused plan, eligible geometry), armed
  // or not: calibration observes exactly these convs, and int8 turns on
  // once they are armed.
  bool quantizable = false;

  // --- int8 input domains and quantize-once chaining (filled by
  // Network::ReplanInference once calibration ranges exist; kF32
  // everywhere before that). ---
  //
  // Dtype of the activation tensor this layer READS and WRITES. kU8
  // means the 7-bit unsigned quantized domain of gemm_int8.h: an
  // in_dtype of kU8 marks a CHAINED layer (it consumes the producer's
  // requantized bytes and never touches fp32 input); an out_dtype of
  // kU8 means every consumer is quantized, so the fp32 arena slot for
  // this layer is never written in steady state.
  DType in_dtype = DType::kF32;
  DType out_dtype = DType::kF32;
  // Quantization domains. An armed int8 conv quantizes its fp32 input
  // in the in_* domain derived from its own calibrated range. On u8
  // edges (meaningful only when the matching dtype is kU8) the domain
  // is per-TENSOR, not per-consumer, because one tensor can feed several
  // quantized convs: the dtype pass unions the calibrated ranges of
  // every quantized consumer reachable through passthroughs and derives
  // one (scale, zp) for the whole component. A chained conv therefore
  // dequantizes with the edge domain here rather than its own range.
  float in_qscale = 1.0f;
  float out_qscale = 1.0f;
  int32_t in_qzp = 0;
  int32_t out_qzp = 0;
  // Storage of the u8 tensor this layer writes: index of the layer
  // whose DTypeBuffer holds the bytes (the alias-group root, mirroring
  // the fp32 elision forest) and the byte offset inside it. -1 when
  // out_dtype is kF32.
  int quant_root = -1;
  int64_t quant_offset = 0;
};

// One layer's slot in the activation arena.
struct ArenaAssignment {
  int64_t offset = 0;  // float offset into the arena
  int64_t floats = 0;  // output size in floats
  int first_use = 0;   // layer index producing the buffer
  int last_use = 0;    // last layer index reading it (num_layers = post-
                       // forward consumer: detection heads / final output)
  // The slot is an interior view of another layer's block (copy-elided
  // route slice / adopted concat source / in-place shortcut) — its
  // offset may not be cache-line aligned, so the network binds it with
  // BindExternalAliased instead of BindExternal.
  bool aliased = false;
  // Item groups run the layers without a barrier between them, so a
  // block that reuses expired storage must wait for the slowest group:
  // every group finishes layers [0, fence) before any group runs this
  // layer (Network::Forward). Set on the first layer of a block whose
  // span overlaps a block an earlier layer still read; 0 otherwise.
  int fence = 0;
};

// The planner's result: per-layer offsets plus the headline numbers the
// acceptance bench reports (peak arena floats vs the no-reuse sum).
struct ArenaPlan {
  // False for training networks, which own per-layer buffers;
  // assignments/arena_floats are still filled so reports can show what
  // the planner *would* save.
  bool enabled = false;
  std::vector<ArenaAssignment> assignments;  // one per layer
  int64_t arena_floats = 0;       // peak concurrent footprint (arena size)
  int64_t sum_output_floats = 0;  // one-buffer-per-layer baseline
};

// The batch items one Layer::Forward call computes, [begin, end), and
// the network workspace slot its item group owns. An inference forward
// runs one range per item group (ExecPlan::groups); a training forward
// runs the whole batch from slot 0, and its layers fan out inside.
struct ItemRange {
  int64_t begin = 0;
  int64_t end = 0;
  int slot = 0;

  int64_t size() const { return end - begin; }
};

// Item group `g` of `batch` items split into `groups` contiguous groups:
// items [batch*g/groups, batch*(g+1)/groups), workspace slot g. Sizes
// differ by at most one item. In a tensor of C planes per item, the
// group's planes are [begin*C, end*C).
ItemRange GroupItems(int64_t batch, int groups, int g);

// The full execution plan Network::Finalize(kInference) compiles: one
// LayerPlan per layer plus the (alias-aware) arena placement.
struct ExecPlan {
  // True for inference networks, whose plan the compiler fuses. False
  // for training networks: every LayerPlan is default-constructed and
  // the forward pass is the seed per-layer path.
  bool fused = false;
  std::vector<LayerPlan> layers;  // one per layer
  ArenaPlan arena;
  // Item groups: Network::Forward splits the batch once into this many
  // contiguous groups (GroupItems), and each group runs every layer over
  // its own items on one strand. 1 for training plans, calibration
  // phases and batch 1.
  int groups = 1;

  // Quantize-once chaining stats (zero until ReplanInference installs
  // dtypes): edges whose producer writes u8 (consumer skips
  // quantize+pack-from-fp32), edges where an armed quantized conv must
  // dequantize to fp32 for an unquantized consumer, and layers running
  // in the quantized domain (quantized convs + u8 passthroughs).
  int chained_edges = 0;
  int dequant_edges = 0;
  int quantized_layers = 0;

  // Layer-0 chaining: when layer 0 is a quantized conv, the NETWORK
  // INPUT itself becomes a u8 edge in this domain (derived from layer
  // 0's calibrated input range, which IS the net input's observed
  // range). Network::Forward quantizes the fp32 input once — or the
  // detector's fused letterbox→quantize stages the bytes directly — and
  // layer 0 consumes them like any chained conv.
  bool input_u8 = false;
  float input_qscale = 1.0f;
  int32_t input_qzp = 0;
};

// Compiles the execution plan for a configured network.
//
// Arena placement is liveness-based first-fit over the network DAG. A
// layer's output is live from the step that produces it through its
// last consumer — the next layer when it reads its input argument, any
// route/shortcut that references it, and "after the forward pass" for
// detection-head outputs and the network's final output (modelled as a
// consumer at index num_layers). Offsets are assigned greedily in layer
// order, first-fit into gaps left by expired buffers, 16-float aligned.
// Inference networks bind their outputs to it (arena.enabled); training
// networks get it for reporting only.
//
// A training network gets a default LayerPlan for every layer and the
// plain liveness arena — the seed behaviour. For an inference network
// the compiler fuses, deciding in order:
//
//  1. Conv algorithms: eligible convs are marked quantizable, and a
//     quantizable conv is armed int8, with its input domain, exactly
//     when its batch norm is folded, a range is installed and
//     net.calib_phase() is kOff — so installing ranges is the only int8
//     opt-in, and a network nobody calibrated runs the fp32 plan.
//  2. Copy elision, at batch 1 only: there a channel range of any
//     tensor is one contiguous span (at batch > 1 it is one span per
//     item). A group-split route becomes a view into its source, a
//     concat route adopts its sources so they write into the concat's
//     block directly (this also folds upsample+route pairs), and a
//     shortcut whose addend dies at the shortcut runs in place. The
//     arena planner then places each alias group as one block.
//  3. Dtypes: armed int8 convs chain through u8 edges (quantize-once).
//  4. Conv epilogues: a GEMM conv (fp32 or int8) without batch norm
//     adds its bias in the write-back, and applies there every
//     activation with an epilogue form (linear, leaky, ReLU and the
//     fast mish family) — except mish on an int8 conv whose output
//     stays fp32, which keeps its separate fast-mish pass. Batch-norm
//     convs run separate batch-norm and activation passes, mish through
//     the fast family.
//  5. Groups: min(MaxParallelism(), workspace slots, batch), so each
//     group owns a slot; 1 while a calibration phase is active.
//
// Requires every layer to be configured (shapes known).
ExecPlan CompileExecPlan(const Network& net);

}  // namespace thali

#endif  // THALI_NN_EXEC_PLAN_H_
