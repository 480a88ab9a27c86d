#include "nn/network.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>

#include "base/logging.h"
#include "base/thread_pool.h"
#include "tensor/gemm_int8.h"

namespace thali {

namespace {

// How long a fence waits on a group that no strand has claimed before
// the waiting strand runs that group itself: long enough for a pool
// worker to wake and claim its own group, short against a forward.
constexpr auto kAdoptAfter = std::chrono::microseconds(200);

}  // namespace

Network::Network(int width, int height, int channels, int batch)
    : width_(width), height_(height), channels_(channels), batch_(batch) {
  THALI_CHECK_GT(width, 0);
  THALI_CHECK_GT(height, 0);
  THALI_CHECK_GT(channels, 0);
  THALI_CHECK_GT(batch, 0);
}

void Network::Add(std::unique_ptr<Layer> layer) {
  THALI_CHECK(!finalized_) << "Add after Finalize";
  layer->set_index(num_layers());
  layers_.push_back(std::move(layer));
}

Status Network::Finalize(ExecMode mode) {
  THALI_CHECK(!finalized_);
  if (layers_.empty()) return Status::InvalidArgument("empty network");
  // Callers stage the input at this shape, so it obeys the layer budget.
  THALI_RETURN_IF_ERROR(
      CheckElementBudget(input_shape().dims(), "network input"));
  mode_ = mode;
  Shape prev = input_shape();
  for (auto& layer : layers_) {
    layer->set_exec_mode(mode_);
    THALI_RETURN_IF_ERROR(layer->Configure(prev, *this));
    prev = layer->output_shape();
  }
  // One scratch slot and one progress counter per strand of
  // parallelism; PlanBuffers sizes the slots.
  workspaces_.resize(static_cast<size_t>(MaxParallelism()));
  group_progress_ =
      std::vector<GroupProgress>(static_cast<size_t>(MaxParallelism()));
  PlanBuffers();
  finalized_ = true;
  return Status::OK();
}

Status Network::SetBatch(int batch) {
  THALI_CHECK(finalized_) << "SetBatch before Finalize";
  THALI_CHECK_GT(batch, 0);
  if (batch == batch_) return Status::OK();
  batch_ = batch;
  Shape prev = input_shape();
  for (auto& layer : layers_) {
    THALI_RETURN_IF_ERROR(layer->Rebatch(prev, *this));
    prev = layer->output_shape();
  }
  // Batch size changes which copy elisions are legal.
  PlanBuffers();
  return Status::OK();
}

Status Network::ReplanInference() {
  THALI_CHECK(finalized_) << "ReplanInference before Finalize";
  if (mode_ != ExecMode::kInference) return Status::OK();
  PlanBuffers();
  return Status::OK();
}

void Network::set_calib_phase(CalibPhase phase) {
  calib_phase_ = phase;
  THALI_CHECK_OK(ReplanInference());
}

void Network::PlanBuffers() {
  eplan_ = CompileExecPlan(*this);
  for (int i = 0; i < num_layers(); ++i) {
    layers_[static_cast<size_t>(i)]->set_plan(
        eplan_.layers[static_cast<size_t>(i)]);
  }
  // u8 chain storage: one block per alias-group root the dtype pass
  // marked kU8 (mirrors the fp32 arena's alias forest; empty without
  // chains), then the resolved per-layer base pointers. Root blocks are
  // allocated before any pointer resolves into them.
  qbufs_.clear();
  qbufs_.resize(static_cast<size_t>(num_layers()));
  qact_.assign(static_cast<size_t>(num_layers()), nullptr);
  for (int i = 0; i < num_layers(); ++i) {
    const LayerPlan& lp = eplan_.layers[static_cast<size_t>(i)];
    if (lp.out_dtype == DType::kU8 && lp.quant_root == i) {
      qbufs_[static_cast<size_t>(i)].Resize(
          DType::kU8, layers_[static_cast<size_t>(i)]->output_shape());
    }
  }
  for (int i = 0; i < num_layers(); ++i) {
    const LayerPlan& lp = eplan_.layers[static_cast<size_t>(i)];
    if (lp.out_dtype == DType::kU8) {
      qact_[static_cast<size_t>(i)] =
          qbufs_[static_cast<size_t>(lp.quant_root)].raw() + lp.quant_offset;
    }
  }
  // Quantized network input when the chain reaches layer 0; Forward (or
  // the detector's fused letterbox-quantize) fills it each call.
  if (eplan_.input_u8) {
    qinput_.Resize(DType::kU8, input_shape());
  } else {
    qinput_.Clear();
  }
  input_prequantized_ = false;
  // Plan-derived layer state (conv int8 workspace sections, weights
  // packed for the planned algorithm) recomputes once here instead of
  // per Forward.
  for (auto& layer : layers_) layer->OnPlanUpdated();
  // Scratch follows the plan: a layer's need depends on its planned
  // algorithm (im2col panel, int8 sections). Every slot is sized to
  // exactly the plan's need, shrinking as well as growing: the old
  // storage is freed first (Resize would keep its capacity), so a replan
  // never holds both sizes at once.
  int64_t need = 0;
  for (auto& layer : layers_) need = std::max(need, layer->WorkspaceSize());
  if (need != workspace_floats_) {
    workspace_floats_ = need;
    for (Tensor& ws : workspaces_) {
      ws = Tensor();
      if (need > 0) ws.Resize(Shape({need}));
    }
  }
  if (mode_ != ExecMode::kInference) return;  // SetShapes owns the buffers
  // Slots are 16-float (64-byte) aligned relative to the arena base, but
  // vector<float> storage only guarantees 16 bytes — over-allocate and
  // align the base up so BindExternal's cache-line contract holds.
  arena_.Resize(Shape({eplan_.arena.arena_floats + 15}));
  const uintptr_t raw = reinterpret_cast<uintptr_t>(arena_.data());
  float* base = reinterpret_cast<float*>((raw + 63) & ~uintptr_t{63});
  for (int i = 0; i < num_layers(); ++i) {
    const ArenaAssignment& slot =
        eplan_.arena.assignments[static_cast<size_t>(i)];
    Tensor& out = layers_[static_cast<size_t>(i)]->output();
    const Shape& shape = layers_[static_cast<size_t>(i)]->output_shape();
    if (slot.aliased) {
      // Interior view of another layer's block (copy-elided route /
      // adopted concat source / in-place shortcut): arbitrary offset.
      out.BindExternalAliased(base + slot.offset, shape);
    } else {
      out.BindExternal(base + slot.offset, shape);
    }
  }
}

int64_t Network::ActivationBytes() const {
  int64_t floats = 0;
  if (mode_ == ExecMode::kInference) {
    floats = eplan_.arena.arena_floats;
  } else {
    for (const auto& layer : layers_) {
      floats += layer->output().size() + layer->delta().size();
    }
  }
  return floats * static_cast<int64_t>(sizeof(float));
}

float* Network::workspace(int slot, int64_t required) {
  THALI_CHECK_GE(slot, 0);
  THALI_CHECK_LT(slot, workspace_slots());
  THALI_CHECK_LE(required, workspace_floats_)
      << "layer requests " << required << " workspace floats but the plan "
      << "sized " << workspace_floats_;
  return workspaces_[static_cast<size_t>(slot)].data();
}

const Tensor& Network::Forward(const Tensor& input, bool train) {
  THALI_CHECK(finalized_);
  THALI_CHECK(!(train && mode_ == ExecMode::kInference))
      << "Forward(train=true) on an inference-mode network";
  THALI_CHECK(input.shape() == input_shape())
      << "input " << input.shape().ToString() << " vs net "
      << input_shape().ToString();
  // The prologue runs once, before any group: what the groups share is
  // written here and only read by them.
  if (eplan_.input_u8) {
    // Layer 0 consumes quantized input bytes. Either the caller staged
    // them already (the detector's fused letterbox-quantize, armed
    // one-shot via set_input_prequantized) or we quantize the fp32
    // input here with the plan's input domain — the same shared
    // quantizer, so both routes produce identical bytes.
    if (!input_prequantized_) {
      Int8QuantizeActivations(input.data(), input.size(),
                              1.0f / eplan_.input_qscale, eplan_.input_qzp,
                              qinput_.raw());
    }
    input_prequantized_ = false;
  }
  for (auto& layer : layers_) layer->BeginForward(*this, train);
  const int groups = eplan_.groups;
  if (mode_ == ExecMode::kTraining || groups == 1) {
    // Training runs the whole batch per layer: batch norm's statistics
    // need every item, and the layers fan out inside. One inference
    // group runs inline on one strand.
    std::optional<ScopedSingleStrand> one_strand;
    if (mode_ == ExecMode::kInference) one_strand.emplace();
    const Tensor* x = &input;
    for (auto& layer : layers_) {
      layer->Forward(*x, *this, train, ItemRange{0, batch_, 0});
      x = &layer->output();
    }
    return *x;
  }
  for (int g = 0; g < groups; ++g) {
    GroupProgress& p = group_progress_[static_cast<size_t>(g)];
    p.layers.store(0, std::memory_order_relaxed);
    p.claimed.store(false, std::memory_order_relaxed);
  }
  group_failed_.store(false, std::memory_order_relaxed);
  ParallelForBounded(0, groups, 1, groups, [&](int64_t g0, int64_t g1, int) {
    // The strand's groups, plus any it adopts while waiting at a fence.
    // Several groups on one strand (a nested region, or fewer strands
    // than groups) run in lockstep, one layer each in turn.
    std::vector<int> owned;
    for (int64_t g = g0; g < g1; ++g) {
      if (!group_progress_[static_cast<size_t>(g)].claimed.exchange(
              true, std::memory_order_acq_rel)) {
        owned.push_back(static_cast<int>(g));
      }
    }
    try {
      for (int i = 1; i <= num_layers(); ++i) {
        for (size_t k = 0; k < owned.size(); ++k) {
          if (!AdvanceGroup(input, owned[k], i, owned)) return;
        }
      }
    } catch (...) {
      // The group that threw never finishes: release every strand
      // waiting on it, then let the region rethrow once all stopped.
      group_failed_.store(true, std::memory_order_relaxed);
      throw;
    }
  });
  return layers_.back()->output();
}

bool Network::AdvanceGroup(const Tensor& input, int g, int layers,
                           std::vector<int>& owned) {
  const int groups = eplan_.groups;
  std::atomic<int>& done = group_progress_[static_cast<size_t>(g)].layers;
  for (int i = done.load(std::memory_order_relaxed); i < layers; ++i) {
    const int fence = eplan_.arena.assignments[static_cast<size_t>(i)].fence;
    for (int h = 0; fence > 0 && h < groups; ++h) {
      if (h != g && !AwaitGroup(input, h, fence, owned)) return false;
    }
    layers_[static_cast<size_t>(i)]->Forward(
        i == 0 ? input : layers_[static_cast<size_t>(i) - 1]->output(), *this,
        /*train=*/false, GroupItems(batch_, groups, g));
    done.store(i + 1, std::memory_order_release);
  }
  return true;
}

bool Network::AwaitGroup(const Tensor& input, int h, int layers,
                         std::vector<int>& owned) {
  GroupProgress& p = group_progress_[static_cast<size_t>(h)];
  std::chrono::steady_clock::time_point since;
  for (int spins = 0; p.layers.load(std::memory_order_acquire) < layers;
       ++spins) {
    if (spins < 64) continue;
    if (group_failed_.load(std::memory_order_relaxed)) return false;
    // A group no strand has claimed is a pool task queued behind busy
    // workers; waiting for it could wait forever, so run it here.
    if (spins == 64) since = std::chrono::steady_clock::now();
    if (!p.claimed.load(std::memory_order_relaxed) &&
        std::chrono::steady_clock::now() - since >= kAdoptAfter &&
        !p.claimed.exchange(true, std::memory_order_acq_rel)) {
      owned.push_back(h);
      return AdvanceGroup(input, h, layers, owned);
    }
    std::this_thread::yield();
  }
  return true;
}

void Network::Backward(const Tensor& input) {
  THALI_CHECK(finalized_);
  THALI_CHECK(mode_ == ExecMode::kTraining)
      << "Backward on an inference-mode network";
  for (int i = num_layers() - 1; i >= 0; --i) {
    const Tensor& in = i == 0 ? input : layers_[i - 1]->output();
    Tensor* in_delta = i == 0 ? nullptr : &layers_[i - 1]->delta();
    layers_[i]->Backward(in, in_delta, *this);
  }
}

void Network::ZeroDeltas() {
  THALI_CHECK(mode_ == ExecMode::kTraining)
      << "ZeroDeltas on an inference-mode network";
  for (auto& layer : layers_) layer->delta().Zero();
}

void Network::ZeroGrads() {
  for (auto& layer : layers_) {
    for (const Param& p : layer->Params()) p.grad->Zero();
  }
}

int Network::ResolveIndex(int ref, int at) const {
  const int idx = ref < 0 ? at + ref : ref;
  THALI_CHECK_GE(idx, 0) << "bad layer reference " << ref << " at " << at;
  THALI_CHECK_LT(idx, num_layers());
  return idx;
}

std::vector<Param> Network::TrainableParams() {
  std::vector<Param> out;
  for (auto& layer : layers_) {
    if (layer->frozen()) continue;
    for (Param& p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Param> Network::AllParams() {
  std::vector<Param> out;
  for (auto& layer : layers_) {
    for (Param& p : layer->Params()) out.push_back(p);
  }
  return out;
}

int64_t Network::NumParameters() const {
  int64_t n = 0;
  for (const auto& layer : layers_) {
    const Layer& l = *layer;
    for (const ConstParam& p : l.Params()) n += p.value->size();
  }
  return n;
}

void Network::FreezeUpTo(int cutoff) {
  for (int i = 0; i < num_layers() && i < cutoff; ++i) {
    layers_[static_cast<size_t>(i)]->set_frozen(true);
  }
}

}  // namespace thali
