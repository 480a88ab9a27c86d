#include "nn/exec_plan.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string_view>

#include "base/thread_pool.h"
#include "nn/conv_layer.h"
#include "nn/network.h"
#include "nn/route_layer.h"
#include "nn/shortcut_layer.h"
#include "tensor/gemm_int8.h"

namespace thali {

namespace {

// Arena offsets are aligned to 16 floats (64 bytes) so no two layers'
// buffers share a cache line and vectorized kernels see aligned bases.
constexpr int64_t kArenaAlignFloats = 16;

int64_t AlignUp(int64_t v) {
  return (v + kArenaAlignFloats - 1) / kArenaAlignFloats * kArenaAlignFloats;
}

// Layers the `input` argument and ExtraInputIndices say layer i reads.
std::vector<int> InputsOf(const Network& net, int i) {
  std::vector<int> in;
  if (i > 0 && net.layer(i).ReadsPreviousOutput()) in.push_back(i - 1);
  for (int s : net.layer(i).ExtraInputIndices()) in.push_back(s);
  return in;
}

// Liveness: last layer index that reads each output. Index n is the
// virtual post-forward consumer (detection decoding / returned output).
std::vector<int> ComputeLastUse(const Network& net) {
  const int n = net.num_layers();
  std::vector<int> last_use(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) last_use[static_cast<size_t>(i)] = i;
  for (int j = 0; j < n; ++j) {
    for (int src : InputsOf(net, j)) {
      THALI_CHECK_GE(src, 0);
      THALI_CHECK_LT(src, j);
      last_use[static_cast<size_t>(src)] =
          std::max(last_use[static_cast<size_t>(src)], j);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (net.layer(i).OutputLiveAfterForward() || i == n - 1) {
      last_use[static_cast<size_t>(i)] = n;
    }
  }
  return last_use;
}

// Passthrough pin propagation for the dtype pass: a layer `pass`
// selects takes a pin from any of its inputs and gives its pin to all of
// them, until nothing changes. So a passthrough always agrees with its
// inputs, and layers outside `pass` stop the spread.
void PropagatePins(const Network& net, const std::vector<char>& pass,
                   std::vector<char>& pinned) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < net.num_layers(); ++i) {
      if (!pass[static_cast<size_t>(i)]) continue;
      const std::vector<int> ins = InputsOf(net, i);
      bool in_pinned = false;
      for (int s : ins) in_pinned = in_pinned || pinned[static_cast<size_t>(s)];
      if (in_pinned && !pinned[static_cast<size_t>(i)]) {
        pinned[static_cast<size_t>(i)] = 1;
        changed = true;
      }
      if (pinned[static_cast<size_t>(i)]) {
        for (int s : ins) {
          if (!pinned[static_cast<size_t>(s)]) {
            pinned[static_cast<size_t>(s)] = 1;
            changed = true;
          }
        }
      }
    }
  }
}

// Layer i's place in the alias forest the elision pass builds: its
// root and its float offset inside the root's storage.
struct AliasRoot {
  int root;
  int64_t offset;
};

AliasRoot ResolveAlias(const std::vector<int>& parent,
                       const std::vector<int64_t>& poffset, int i) {
  int64_t offset = 0;
  while (parent[static_cast<size_t>(i)] >= 0) {
    offset += poffset[static_cast<size_t>(i)];
    i = parent[static_cast<size_t>(i)];
  }
  return {i, offset};
}

// Greedy first-fit placement over alias groups. `parent`/`poffset`
// describe the alias forest the elision pass built: layer i's storage
// lives at float offset poffset[i] inside parent[i]'s storage (-1 for
// roots). A group (a root and all its transitive children) is one
// block, sized by the root's output, allocated when the group's
// earliest member runs, and live until the latest member's last use.
// With an empty forest (all parents -1) every group is a singleton and
// this reduces exactly to the original per-layer first-fit.
ArenaPlan PlanArenaGrouped(const Network& net, const std::vector<int>& last_use,
                           const std::vector<int>& parent,
                           const std::vector<int64_t>& poffset) {
  const int n = net.num_layers();
  ArenaPlan plan;
  plan.assignments.resize(static_cast<size_t>(n));

  // Resolve each layer to (root, total offset inside the root's block).
  std::vector<int> root(static_cast<size_t>(n));
  std::vector<int64_t> roff(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const AliasRoot a = ResolveAlias(parent, poffset, i);
    root[static_cast<size_t>(i)] = a.root;
    roff[static_cast<size_t>(i)] = a.offset;
  }

  // Group extents: first member's step through last member's last use.
  std::vector<int> gstart(static_cast<size_t>(n),
                          std::numeric_limits<int>::max());
  std::vector<int> gend(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const int r = root[static_cast<size_t>(i)];
    gstart[static_cast<size_t>(r)] = std::min(gstart[static_cast<size_t>(r)], i);
    gend[static_cast<size_t>(r)] =
        std::max(gend[static_cast<size_t>(r)], last_use[static_cast<size_t>(i)]);
  }

  // First-fit in execution order. A block whose group's last consumer
  // precedes the current step is expired and its span becomes a gap;
  // a group's block takes the lowest-offset gap it fits into at the
  // step its first member runs.
  struct LiveBlock {
    int64_t offset;
    int64_t floats;
    int last_use;
  };
  std::vector<LiveBlock> live;
  std::vector<LiveBlock> placed;  // every block so far, for the fences
  std::vector<int64_t> goffset(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const int64_t floats = net.layer(i).output_shape().num_elements();
    plan.sum_output_floats += floats;
    const int r = root[static_cast<size_t>(i)];
    int fence = 0;
    if (gstart[static_cast<size_t>(r)] == i) {
      const int64_t gfloats = net.layer(r).output_shape().num_elements();
      live.erase(std::remove_if(live.begin(), live.end(),
                                [i](const LiveBlock& b) { return b.last_use < i; }),
                 live.end());
      std::sort(live.begin(), live.end(),
                [](const LiveBlock& a, const LiveBlock& b) {
                  return a.offset < b.offset;
                });
      int64_t offset = 0;
      for (const LiveBlock& b : live) {
        if (offset + gfloats <= b.offset) break;
        offset = AlignUp(std::max(offset, b.offset + b.floats));
      }
      goffset[static_cast<size_t>(r)] = offset;
      // The expired blocks this one overlaps: their last readers must
      // be done in every item group before any group writes here.
      for (const LiveBlock& b : placed) {
        if (b.offset < offset + gfloats && offset < b.offset + b.floats) {
          fence = std::max(fence, b.last_use + 1);
        }
      }
      live.push_back({offset, gfloats, gend[static_cast<size_t>(r)]});
      placed.push_back(live.back());
      plan.arena_floats = std::max(plan.arena_floats, offset + gfloats);
    }
    THALI_CHECK_LE(roff[static_cast<size_t>(i)] + floats,
                   net.layer(r).output_shape().num_elements());
    ArenaAssignment& a = plan.assignments[static_cast<size_t>(i)];
    a.offset = goffset[static_cast<size_t>(r)] + roff[static_cast<size_t>(i)];
    a.floats = floats;
    a.first_use = i;
    a.last_use = last_use[static_cast<size_t>(i)];
    a.aliased = parent[static_cast<size_t>(i)] >= 0;
    a.fence = fence;
  }
  return plan;
}

// The activation a GEMM write-back applies in place of the conv's own
// pass, or nullopt when that pass must still run. Leaky and ReLU repeat
// the separate pass op for op; mish is the fast family that fused plans
// run either way; logistic has no epilogue form.
std::optional<GemmActivation> EpilogueActivation(Activation a) {
  switch (a) {
    case Activation::kLinear:
      return GemmActivation::kNone;
    case Activation::kLeaky:
      return GemmActivation::kLeaky;
    case Activation::kRelu:
      return GemmActivation::kRelu;
    case Activation::kMish:
      return GemmActivation::kMish;
    default:
      return std::nullopt;
  }
}

}  // namespace

ExecPlan CompileExecPlan(const Network& net) {
  const int n = net.num_layers();
  const bool fuse = net.exec_mode() == ExecMode::kInference;
  ExecPlan plan;
  plan.fused = fuse;
  plan.layers.resize(static_cast<size_t>(n));
  const std::vector<int> last_use = ComputeLastUse(net);
  std::vector<int> parent(static_cast<size_t>(n), -1);
  std::vector<int64_t> poffset(static_cast<size_t>(n), 0);

  if (fuse) {
    // Layer classes: convs, passthrough layers that move or combine
    // whole planes (the u8 chain can run through them), and everything
    // else (yolo).
    enum Class { kConv, kPass, kOther };
    std::vector<Class> cls(static_cast<size_t>(n), kOther);
    for (int i = 0; i < n; ++i) {
      const std::string_view kind = net.layer(i).kind();
      if (kind == "convolutional") {
        cls[static_cast<size_t>(i)] = kConv;
      } else if (kind == "route" || kind == "shortcut" || kind == "upsample" ||
                 kind == "maxpool") {
        cls[static_cast<size_t>(i)] = kPass;
      }
    }

    // 1. int8 arming. int8 covers every 1x1/stride-1/pad-0 conv (its
    // quantized input planes are the GEMM B matrix) and the 3x3/pad-1
    // at stride 1 or 2 (the u8 im2col walks either stride); such a conv
    // is `quantizable`. It runs int8 only when that path can run right
    // now — batch norm folded, an input range installed, no calibration
    // pass active — and fp32 otherwise.
    bool armed = false;
    for (int i = 0; i < n; ++i) {
      if (cls[static_cast<size_t>(i)] != kConv) continue;
      LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
      const auto& cv = static_cast<const ConvLayer&>(net.layer(i));
      const auto& o = cv.options();
      lp.quantizable = cv.IsDirect1x1() ||
                       (o.ksize == 3 && (o.stride == 1 || o.stride == 2) &&
                        o.pad == 1);
      if (lp.quantizable && !o.batch_normalize && cv.has_activation_range() &&
          net.calib_phase() == CalibPhase::kOff) {
        lp.int8 = true;
        armed = true;
        Int8RangeToScaleZp(cv.activation_range_min(),
                           cv.activation_range_max(), &lp.in_qscale,
                           &lp.in_qzp);
      }
    }

    // 2. Copy elision, at batch 1 only: there a channel range is one
    // contiguous span of its tensor, so an alias is an offset into the
    // shared arena storage. At batch > 1 each item's planes hold their
    // own slice, and routes and shortcuts copy.
    const bool elide = net.batch() == 1;
    std::vector<char> has_child(static_cast<size_t>(n), 0);
    for (int r = 0; elide && r < n; ++r) {
      const std::string_view kind = net.layer(r).kind();
      LayerPlan& lp = plan.layers[static_cast<size_t>(r)];
      if (kind == "route") {
        const auto& rt = static_cast<const RouteLayer&>(net.layer(r));
        const std::vector<int>& srcs = rt.source_indices();
        const int64_t plane = net.layer(r).output_shape().dim(2) *
                              net.layer(r).output_shape().dim(3);
        if (srcs.size() == 1) {
          // Group-split view: the route's output is a contiguous
          // channel slice of its (sole) source; alias it in place.
          // Safe even when the source is itself aliased — the route
          // writes nothing.
          parent[static_cast<size_t>(r)] = srcs[0];
          poffset[static_cast<size_t>(r)] =
              rt.source_offsets()[0] * plane;
          has_child[static_cast<size_t>(srcs[0])] = 1;
          lp.copy_elided = true;
          continue;
        }
        // Concat adoption: every source writes its output directly
        // into the concat's block (this folds upsample+route pairs
        // too). All-or-nothing — a source that is partial (grouped
        // slice), already aliased elsewhere, or repeated keeps the
        // whole route on the plain copy path.
        bool ok = true;
        for (size_t s = 0; s < srcs.size() && ok; ++s) {
          const int src = srcs[s];
          ok = rt.source_offsets()[s] == 0 &&
               rt.source_channels()[s] ==
                   net.layer(src).output_shape().dim(1) &&
               parent[static_cast<size_t>(src)] == -1;
          for (size_t t = 0; t < s && ok; ++t) ok = srcs[t] != src;
        }
        if (!ok) continue;
        int64_t chan_base = 0;
        for (size_t s = 0; s < srcs.size(); ++s) {
          parent[static_cast<size_t>(srcs[s])] = r;
          poffset[static_cast<size_t>(srcs[s])] = chan_base * plane;
          chan_base += rt.source_channels()[s];
        }
        has_child[static_cast<size_t>(r)] = 1;
        lp.copy_elided = true;
      } else if (kind == "shortcut" && r > 0) {
        // In-place residual add: output aliases the previous layer's
        // block when nothing reads that block after this step and it
        // is not shared with anyone else. The elementwise o=a+b reads
        // each element before overwriting it, so no code change is
        // needed in the layer.
        const int prev = r - 1;
        if (last_use[static_cast<size_t>(prev)] == r &&
            parent[static_cast<size_t>(prev)] == -1 &&
            !has_child[static_cast<size_t>(prev)] &&
            net.layer(prev).output_shape().num_elements() ==
                net.layer(r).output_shape().num_elements()) {
          parent[static_cast<size_t>(r)] = prev;
          poffset[static_cast<size_t>(r)] = 0;
          has_child[static_cast<size_t>(prev)] = 1;
          lp.copy_elided = true;
        }
      }
    }

    // 3. Quantize-once dtype assignment. A u8 edge means the producer's
    // requantize epilogue emits 7-bit bytes in the edge domain and the
    // consumer skips quantize + pack-from-fp32. The pass only sees
    // chains between armed convs: the Finalize-time compile is
    // chain-free (nothing is calibrated yet) and
    // Network::ReplanInference recompiles after Detector::CalibrateInt8
    // or LoadCalibration installs ranges (ResetCalibration and
    // calibration phases disarm them again the same way).
    if (armed) {
      // qconv: convs step 1 armed int8.
      // qprod: qconv whose activation has an epilogue form, so the
      // requantize epilogue can apply it and its OUTPUT may be u8.
      // qpass: passthroughs that move u8 bytes exactly — max and
      // concat/upsample copies commute with the monotonic quantizer,
      // shortcut's clamped add needs a linear activation; a passthrough
      // reading the fp32 network input can never be u8.
      std::vector<char> qconv(static_cast<size_t>(n), 0);
      std::vector<char> qprod(static_cast<size_t>(n), 0);
      std::vector<char> qpass(static_cast<size_t>(n), 0);
      for (int i = 0; i < n; ++i) {
        const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
        if (cls[static_cast<size_t>(i)] == kConv) {
          if (!lp.int8) continue;
          qconv[static_cast<size_t>(i)] = 1;
          qprod[static_cast<size_t>(i)] =
              EpilogueActivation(static_cast<const ConvLayer&>(net.layer(i))
                                     .options()
                                     .activation)
                  .has_value();
        } else if (cls[static_cast<size_t>(i)] == kPass) {
          bool ok = !(i == 0 && net.layer(i).ReadsPreviousOutput());
          if (ok && net.layer(i).kind() == std::string_view("shortcut")) {
            ok = static_cast<const ShortcutLayer&>(net.layer(i))
                     .options()
                     .activation == Activation::kLinear;
          }
          qpass[static_cast<size_t>(i)] = ok;
        }
      }

      // f32[i] == layer i's OUTPUT tensor must stay fp32. Seeds: the
      // network output, post-forward consumers (yolo head inputs), any
      // layer that cannot emit u8, and the sources of any consumer that
      // cannot read u8. Passthroughs propagate the force both ways (they
      // cannot convert).
      std::vector<char> f32(static_cast<size_t>(n), 0);
      for (int i = 0; i < n; ++i) {
        if (i == n - 1 || net.layer(i).OutputLiveAfterForward() ||
            (!qprod[static_cast<size_t>(i)] &&
             !qpass[static_cast<size_t>(i)])) {
          f32[static_cast<size_t>(i)] = 1;
        }
        if (!qconv[static_cast<size_t>(i)] &&
            !qpass[static_cast<size_t>(i)]) {
          for (int s : InputsOf(net, i)) f32[static_cast<size_t>(s)] = 1;
        }
      }
      PropagatePins(net, qpass, f32);

      // One tensor can reach several quantized convs through
      // passthroughs (which move bytes without requantizing), so the u8
      // domain is per connected COMPONENT: union-find joins every u8
      // passthrough with its inputs, and the component's range is the
      // union of the calibrated ranges of every quantized conv reading
      // any member tensor.
      std::vector<int> uf(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) uf[static_cast<size_t>(i)] = i;
      auto find = [&uf](int x) {
        while (uf[static_cast<size_t>(x)] != x) {
          uf[static_cast<size_t>(x)] =
              uf[static_cast<size_t>(uf[static_cast<size_t>(x)])];
          x = uf[static_cast<size_t>(x)];
        }
        return x;
      };
      for (int i = 0; i < n; ++i) {
        if (!qpass[static_cast<size_t>(i)] || f32[static_cast<size_t>(i)]) {
          continue;
        }
        for (int s : InputsOf(net, i)) {
          const int a = find(i);
          const int b = find(s);
          if (a != b) uf[static_cast<size_t>(a)] = b;
        }
      }
      std::vector<float> cmin(static_cast<size_t>(n), 0.0f);
      std::vector<float> cmax(static_cast<size_t>(n), 0.0f);
      std::vector<char> chas(static_cast<size_t>(n), 0);
      for (int j = 0; j < n; ++j) {
        if (!qconv[static_cast<size_t>(j)]) continue;
        const auto& cv = static_cast<const ConvLayer&>(net.layer(j));
        for (int s : InputsOf(net, j)) {
          if (f32[static_cast<size_t>(s)]) continue;
          const int r = find(s);
          if (!chas[static_cast<size_t>(r)]) {
            cmin[static_cast<size_t>(r)] = cv.activation_range_min();
            cmax[static_cast<size_t>(r)] = cv.activation_range_max();
            chas[static_cast<size_t>(r)] = 1;
          } else {
            cmin[static_cast<size_t>(r)] = std::min(
                cmin[static_cast<size_t>(r)], cv.activation_range_min());
            cmax[static_cast<size_t>(r)] = std::max(
                cmax[static_cast<size_t>(r)], cv.activation_range_max());
          }
        }
      }
      // A u8 component no quantized conv ever reads has no domain; only
      // dead subgraphs could produce one, but fp32 is always safe.
      // Forcing the WHOLE component keeps passthrough in/out dtypes
      // consistent without re-running the fixpoint.
      for (int i = 0; i < n; ++i) {
        if (!f32[static_cast<size_t>(i)] && !chas[static_cast<size_t>(find(i))]) {
          f32[static_cast<size_t>(i)] = 1;
        }
      }
      std::vector<float> cscale(static_cast<size_t>(n), 1.0f);
      std::vector<int32_t> czp(static_cast<size_t>(n), 0);
      for (int r = 0; r < n; ++r) {
        if (chas[static_cast<size_t>(r)]) {
          Int8RangeToScaleZp(cmin[static_cast<size_t>(r)],
                             cmax[static_cast<size_t>(r)],
                             &cscale[static_cast<size_t>(r)],
                             &czp[static_cast<size_t>(r)]);
        }
      }

      // Annotate the plan. u8 storage reuses the copy-elision alias
      // forest: a u8 layer's root is provably u8 too (alias edges only
      // link layers whose dtypes the fixpoint tied together), so the
      // network can allocate one u8 block per root and the element
      // offsets inside the fp32 block double as byte offsets.
      for (int i = 0; i < n; ++i) {
        LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
        if (f32[static_cast<size_t>(i)]) continue;
        lp.out_dtype = DType::kU8;
        const int r = find(i);
        lp.out_qscale = cscale[static_cast<size_t>(r)];
        lp.out_qzp = czp[static_cast<size_t>(r)];
        const AliasRoot a = ResolveAlias(parent, poffset, i);
        lp.quant_root = a.root;
        lp.quant_offset = a.offset;
      }
      for (int i = 0; i < n; ++i) {
        const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
        if (lp.out_dtype == DType::kU8) {
          THALI_CHECK(plan.layers[static_cast<size_t>(lp.quant_root)]
                          .out_dtype == DType::kU8);
        }
      }
      for (int j = 0; j < n; ++j) {
        LayerPlan& lp = plan.layers[static_cast<size_t>(j)];
        if (!qconv[static_cast<size_t>(j)] && !qpass[static_cast<size_t>(j)]) {
          continue;
        }
        const std::vector<int> ins = InputsOf(net, j);
        bool all_u8 = !ins.empty();
        for (int s : ins) {
          all_u8 = all_u8 &&
                   plan.layers[static_cast<size_t>(s)].out_dtype == DType::kU8;
        }
        if (!all_u8) continue;
        lp.in_dtype = DType::kU8;
        const int r = find(ins[0]);
        lp.in_qscale = cscale[static_cast<size_t>(r)];
        lp.in_qzp = czp[static_cast<size_t>(r)];
      }
      // Layer-0 chaining: the network input is an edge InputsOf cannot
      // express (layer 0 has no producer layer). When layer 0 is a
      // quantized conv, the input becomes a u8 edge in layer 0's own
      // input domain (step 1) — derived from its calibrated range, by
      // definition the observed range of the net input itself.
      // Network::Forward (or the detector's fused letterbox-quantize)
      // supplies the bytes.
      if (n > 0 && qconv[0] && net.layer(0).ReadsPreviousOutput()) {
        LayerPlan& lp0 = plan.layers[0];
        lp0.in_dtype = DType::kU8;
        plan.input_u8 = true;
        plan.input_qscale = lp0.in_qscale;
        plan.input_qzp = lp0.in_qzp;
        ++plan.chained_edges;
      }
      for (int j = 0; j < n; ++j) {
        for (int s : InputsOf(net, j)) {
          if (plan.layers[static_cast<size_t>(s)].out_dtype == DType::kU8) {
            ++plan.chained_edges;
          } else if (qconv[static_cast<size_t>(s)]) {
            ++plan.dequant_edges;
          }
        }
      }
      for (int i = 0; i < n; ++i) {
        if (qconv[static_cast<size_t>(i)] ||
            plan.layers[static_cast<size_t>(i)].out_dtype == DType::kU8) {
          ++plan.quantized_layers;
        }
      }
    }

    // 4. Conv epilogues. Every conv without batch norm adds its bias in
    // the GEMM write-back and applies there the activation that has an
    // epilogue form. An int8 conv with an fp32 output is the exception
    // for mish: it keeps its separate fast-mish pass. Batch norm
    // normalizes before its bias.
    for (int i = 0; i < n; ++i) {
      if (cls[static_cast<size_t>(i)] != kConv) continue;
      LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
      const auto& o = static_cast<const ConvLayer&>(net.layer(i)).options();
      if (o.batch_normalize) continue;
      lp.epilogue.bias = true;
      lp.epilogue.act = EpilogueActivation(o.activation);
      if (lp.int8 && o.activation == Activation::kMish &&
          lp.out_dtype == DType::kF32) {
        lp.epilogue.act.reset();
      }
    }

    // 5. Groups. The batch splits once into item groups, each running
    // every layer over its items on one strand (Network::Forward): one
    // fork and join per forward, every layer on every strand, and an
    // item's activations stay on the core that wrote them. Splitting
    // inside an item lost time on every batch-1 conv (DESIGN "Threading
    // model"), so batch 1 is one group. A calibration phase folds
    // statistics across the batch, so it runs as one group too.
    if (net.calib_phase() == CalibPhase::kOff) {
      plan.groups = static_cast<int>(std::max<int64_t>(
          1, std::min<int64_t>({MaxParallelism(), net.workspace_slots(),
                                net.batch()})));
    }
  }

  plan.arena = PlanArenaGrouped(net, last_use, parent, poffset);
  plan.arena.enabled = net.exec_mode() == ExecMode::kInference;
  return plan;
}

ItemRange GroupItems(int64_t batch, int groups, int g) {
  return ItemRange{batch * g / groups, batch * (g + 1) / groups, g};
}

}  // namespace thali
