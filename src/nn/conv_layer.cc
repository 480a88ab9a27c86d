#include "nn/conv_layer.h"

#include <algorithm>
#include <cmath>

#include "base/thread_pool.h"
#include "nn/network.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/gemm_pack.h"
#include "tensor/im2col.h"

namespace thali {

namespace {
constexpr float kBnEps = 1e-5f;
constexpr float kBnMomentum = 0.99f;  // rolling = m*rolling + (1-m)*batch
// Training caches the forward im2col panels (so Backward need not redo
// them) only while batch * panel stays below this many floats (64 MB).
constexpr int64_t kColCacheMaxFloats = int64_t{1} << 24;
// Per-filter loops below this many batch*spatial elements are not worth
// a chunk of their own.
constexpr int64_t kBnGrainElems = int64_t{1} << 14;
// Histogram resolution of the percentile calibration pass.
constexpr int64_t kCalibBins = 2048;
}  // namespace

Status ConvLayer::Configure(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4) {
    return Status::InvalidArgument("conv input must be NCHW, got " +
                                   input_shape.ToString());
  }
  if (opts_.filters <= 0 || opts_.ksize <= 0 || opts_.stride <= 0 ||
      opts_.pad < 0) {
    return Status::InvalidArgument("bad conv geometry");
  }
  in_c_ = input_shape.dim(1);
  const int64_t in_h = input_shape.dim(2);
  const int64_t in_w = input_shape.dim(3);
  out_h_ = ConvOutSize(in_h, opts_.ksize, opts_.stride, opts_.pad);
  out_w_ = ConvOutSize(in_w, opts_.ksize, opts_.stride, opts_.pad);
  if (out_h_ <= 0 || out_w_ <= 0) {
    return Status::InvalidArgument("conv output collapses to zero");
  }

  THALI_RETURN_IF_ERROR(CheckElementBudget(
      {opts_.filters, in_c_, opts_.ksize, opts_.ksize}, "conv weights"));
  THALI_RETURN_IF_ERROR(SetShapes(
      input_shape, Shape({input_shape.dim(0), opts_.filters, out_h_, out_w_})));

  weights_.Resize(Shape({opts_.filters, in_c_, opts_.ksize, opts_.ksize}));
  biases_.Resize(Shape({opts_.filters}));
  if (opts_.batch_normalize) {
    scales_.Resize(Shape({opts_.filters}));
    scales_.Fill(1.0f);
    rolling_mean_.Resize(Shape({opts_.filters}));
    rolling_var_.Resize(Shape({opts_.filters}));
    rolling_var_.Fill(1.0f);
  }
  if (!inference()) {
    weight_grads_.Resize(weights_.shape());
    bias_grads_.Resize(biases_.shape());
    if (opts_.batch_normalize) {
      scale_grads_.Resize(scales_.shape());
      mean_.Resize(Shape({opts_.filters}));
      var_.Resize(Shape({opts_.filters}));
    }
  }
  SizeActivationCaches();
  return Status::OK();
}

void ConvLayer::SizeActivationCaches() {
  if (inference()) return;  // no backward pass, no caches
  if (opts_.batch_normalize) {
    conv_out_.Resize(out_shape_);
    x_norm_.Resize(out_shape_);
  }
  pre_activation_.Resize(out_shape_);
}

Status ConvLayer::Rebatch(const Shape& input_shape, const Network&) {
  if (input_shape.rank() != 4 || input_shape.dim(1) != in_c_ ||
      input_shape.dim(2) != in_shape_.dim(2) ||
      input_shape.dim(3) != in_shape_.dim(3)) {
    return Status::InvalidArgument(
        "conv Rebatch may only change the batch dimension: " +
        in_shape_.ToString() + " -> " + input_shape.ToString());
  }
  THALI_RETURN_IF_ERROR(SetShapes(
      input_shape, Shape({input_shape.dim(0), opts_.filters, out_h_, out_w_})));
  SizeActivationCaches();
  cols_cached_ = false;
  return Status::OK();
}

int64_t ConvLayer::WorkspaceSize() const {
  if (plan().int8) return int8_ws_.ws_floats;  // OnPlanUpdated ran first
  // One im2col panel; a direct 1x1 multiplies its input planes.
  if (IsDirect1x1()) return 0;
  return in_c_ * opts_.ksize * opts_.ksize * out_h_ * out_w_;
}

void ConvLayer::OnPlanUpdated() {
  // The held weight copy always matches the planned dtype: a replan
  // packs whenever the copy is stale (the first plan, a replan onto the
  // other dtype, weights changed since the last pack); a weight mutation
  // with no replan after it repacks in BeginForward.
  if (inference() && (packed_dirty_ || packed_int8_ != plan().int8)) {
    PrepackWeights();
  }
  int8_ws_ = Int8Sections();
  if (!plan().int8) return;
  // One item's sections, in order: its quantized input planes (unused
  // when the input arrives chained), the u8 im2col panel (3x3 only), the
  // packed activation panel and the i32 accumulator tile; then 64 bytes
  // of slack.
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  const int64_t n = out_h_ * out_w_;
  int64_t bytes = 0;
  const auto take = [&bytes](int64_t size) {
    const int64_t at = bytes;
    bytes += (size + 63) / 64 * 64;
    return at;
  };
  int8_ws_.qin = take(in_c_ * in_shape_.dim(2) * in_shape_.dim(3));
  if (!IsDirect1x1()) int8_ws_.col = take(k * n);
  int8_ws_.packed = take(Int8PackedActBytes(k, n));
  int8_ws_.acc = take(opts_.filters * n * 4);
  int8_ws_.ws_floats = (bytes + 64 + 3) / 4;
}

void ConvLayer::InitWeights(Rng& rng) {
  const float scale =
      std::sqrt(2.0f / (static_cast<float>(opts_.ksize) * opts_.ksize *
                        static_cast<float>(in_c_)));
  for (int64_t i = 0; i < weights_.size(); ++i) {
    weights_.data()[i] = rng.NextGaussian(0.0f, scale);
  }
  biases_.Zero();
  if (opts_.batch_normalize) {
    scales_.Fill(1.0f);
    rolling_mean_.Zero();
    rolling_var_.Fill(1.0f);
  }
  packed_dirty_ = true;
}

void ConvLayer::PrepackWeights() {
  const int64_t m = opts_.filters;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  if (plan().int8) {
    // Per-output-channel symmetric int8 rows plus their scales and
    // column sums.
    const Shape qshape({m, Int8PackedK(k)});
    if (qweights_.dtype() != DType::kI8 || !(qweights_.shape() == qshape)) {
      qweights_.Resize(DType::kI8, qshape);
    }
    wscale_.resize(static_cast<size_t>(m));
    wcolsum_.resize(static_cast<size_t>(m));
    Int8QuantizeWeights(weights_.data(), m, k, qweights_.data<int8_t>(),
                        wscale_.data(), wcolsum_.data());
    packed_weights_ = Tensor();
  } else {
    qweights_.Clear();
    wscale_.clear();
    wcolsum_.clear();
    packed_weights_.Resize(Shape({GemmPackedWeightFloats(m, k)}));
    GemmPackWeights(weights_.data(), m, k, packed_weights_.data());
  }
  packed_int8_ = plan().int8;
  packed_dirty_ = false;
}

bool ConvLayer::IsDirect1x1() const {
  return opts_.ksize == 1 && opts_.stride == 1 && opts_.pad == 0;
}

const float* ConvLayer::PrepareCol(const float* in, float* ws) const {
  if (IsDirect1x1()) return in;
  Im2ColStrided(in, in_c_, in_shape_.dim(2), in_shape_.dim(3), opts_.ksize,
                opts_.stride, opts_.pad, ws);
  return ws;
}

void ConvLayer::BeginForward(const Network&, bool) {
  // InitWeights, FoldBatchNorm and weight loading invalidate the packed
  // copy.
  if (inference() && packed_dirty_) PrepackWeights();
}

void ConvLayer::Forward(const Tensor& input, Network& net, bool train,
                        const ItemRange& items) {
  // A calibration phase replans every conv onto its fp32 algorithm, so
  // the statistics describe the unquantized network, and into one item
  // group, so this reads the whole input.
  if (plan().quantizable && net.calib_phase() != CalibPhase::kOff) {
    ObserveCalibration(input, net.calib_phase());
  }

  // Inference layers keep no pre-BN cache: the GEMM lands in output_
  // and BN normalizes it in place (elementwise, so bitwise identical to
  // the staged path).
  Tensor& raw =
      opts_.batch_normalize && !inference() ? conv_out_ : output_;
  if (plan().int8) {
    ForwardInt8Gemm(input, net, items, raw);
    // The epilogue applied bias and activation; no fp32 output exists.
    if (plan().out_dtype == DType::kU8) return;
  } else {
    ForwardFp32Gemm(input, net, train, items, raw);
  }

  // The bias, batch-norm and activation passes below run over the
  // range's planes, [begin*F, end*F); plane pl belongs to filter pl % F.
  const int64_t spatial = out_h_ * out_w_;
  const int64_t first = items.begin * opts_.filters;
  const int64_t last = items.end * opts_.filters;
  if (opts_.batch_normalize) {
    BatchNormForward(train, items);
  } else if (!plan().epilogue.bias) {
    // Plain bias add; (batch, filter) planes are independent.
    const int64_t plane_grain =
        std::max<int64_t>(1, kBnGrainElems / std::max<int64_t>(1, spatial));
    ParallelFor(first, last, plane_grain, [&](int64_t p0, int64_t p1, int) {
      for (int64_t pl = p0; pl < p1; ++pl) {
        float* p = output_.data() + pl * spatial;
        const float bias = biases_[pl % opts_.filters];
        for (int64_t i = 0; i < spatial; ++i) p[i] += bias;
      }
    });
  }

  // Unless the epilogue activated, cache pre-activation values for the
  // backward pass (training networks only), then activate. Inference
  // runs mish through the fast kernel family (deterministic and
  // identical across the scalar/AVX2 paths).
  if (plan().epilogue.act.has_value()) return;
  const bool fast_mish =
      inference() && opts_.activation == Activation::kMish;
  ParallelFor(first * spatial, last * spatial, kBnGrainElems,
              [&](int64_t i0, int64_t i1, int) {
                float* x = output_.data() + i0;
                if (!inference()) {
                  std::copy(x, x + (i1 - i0), pre_activation_.data() + i0);
                }
                if (fast_mish) {
                  FastMishInPlace(x, i1 - i0);
                } else {
                  ApplyActivation(opts_.activation, x, i1 - i0);
                }
              });
}

void ConvLayer::ForwardFp32Gemm(const Tensor& input, Network& net,
                                bool train, const ItemRange& range,
                                Tensor& raw) {
  const int64_t m = opts_.filters;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  const int64_t n = out_h_ * out_w_;
  const int64_t in_item = in_c_ * in_shape_.dim(2) * in_shape_.dim(3);
  const bool direct = IsDirect1x1();
  // B is the item's input planes (direct 1x1) or its im2col panel; both
  // have rows of n columns.
  const int64_t col_plane = direct ? 0 : k * n;

  // During training, keep the per-item im2col panels around so Backward's
  // weight-gradient GEMM reuses them instead of recomputing (bounded by
  // kColCacheMaxFloats; larger layers fall back to recompute). Training
  // forwards cover the whole batch, so panel b is batch entry b's.
  if (!inference()) {
    cols_cached_ = train && col_plane > 0 &&
                   range.size() * col_plane <= kColCacheMaxFloats;
    if (cols_cached_ && col_cache_.size() != range.size() * col_plane) {
      col_cache_.Resize(Shape({range.size(), col_plane}));
    }
  }
  GemmEpilogue epilogue;
  epilogue.bias = biases_.data();
  epilogue.activation = plan().epilogue.act.value_or(GemmActivation::kNone);
  const GemmEpilogue* fused = plan().epilogue.bias ? &epilogue : nullptr;

  // Items are independent: each strand owns disjoint output planes and
  // its own im2col scratch slot.
  ParallelForBounded(
      range.begin, range.end, 1, net.workspace_slots() - range.slot,
      [&](int64_t b0, int64_t b1, int tid) {
        float* ws = nullptr;
        if (!direct && !cols_cached_) {
          ws = net.workspace(range.slot + tid, col_plane);
        }
        for (int64_t b = b0; b < b1; ++b) {
          const float* col = PrepareCol(
              input.data() + b * in_item,
              cols_cached_ ? col_cache_.data() + b * col_plane : ws);
          float* c = raw.data() + b * m * n;
          if (inference()) {
            GemmPrepacked(m, n, k, packed_weights_.data(), col, n, 0.0f, c,
                          n, fused);
          } else {
            Gemm(false, false, m, n, k, 1.0f, weights_.data(), k, col, n,
                 0.0f, c, n);
          }
        }
      });
}

void ConvLayer::ForwardInt8Gemm(const Tensor& input, Network& net,
                                const ItemRange& range, Tensor& raw) {
  const int64_t m = opts_.filters;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  const int64_t n = out_h_ * out_w_;
  const int64_t in_item = in_c_ * in_shape_.dim(2) * in_shape_.dim(3);
  const bool direct = IsDirect1x1();
  const bool chained_in = plan().in_dtype == DType::kU8;
  const bool u8_out = plan().out_dtype == DType::kU8;
  Int8Epilogue epi;
  epi.in_scale = plan().in_qscale;
  epi.in_zp = plan().in_qzp;
  epi.wscale = wscale_.data();
  epi.wcolsum = wcolsum_.data();
  epi.bias = biases_.data();
  epi.activation = plan().epilogue.act.value_or(GemmActivation::kNone);
  if (u8_out) {
    // Requantize straight into this layer's u8 chain buffer.
    epi.out_inv_scale = 1.0f / plan().out_qscale;
    epi.out_zp = plan().out_qzp;
  }
  // A chained layer 0 reads the quantized NETWORK INPUT (filled by
  // Network::Forward or staged by the detector's fused
  // letterbox-quantize); every other chained conv reads its producer's
  // u8 activation block.
  const uint8_t* qsrc =
      !chained_in ? nullptr
                  : (index() == 0 ? net.quant_input()
                                  : net.quant_act(index() - 1));
  uint8_t* qdst = u8_out ? net.quant_act(index()) : nullptr;
  THALI_CHECK(!chained_in || qsrc != nullptr);
  THALI_CHECK(!u8_out || qdst != nullptr);
  const float inv_scale = 1.0f / plan().in_qscale;
  const int32_t in_zp = plan().in_qzp;
  const int8_t* qw = qweights_.data<int8_t>();
  ParallelForBounded(
      range.begin, range.end, 1, net.workspace_slots() - range.slot,
      [&](int64_t b0, int64_t b1, int tid) {
        uint8_t* wsb = reinterpret_cast<uint8_t*>(
            net.workspace(range.slot + tid, int8_ws_.ws_floats));
        uint8_t* packed = wsb + int8_ws_.packed;
        int32_t* acc = reinterpret_cast<int32_t*>(wsb + int8_ws_.acc);
        for (int64_t b = b0; b < b1; ++b) {
          // The item's u8 channel planes: the producer's bytes, already
          // in this layer's input domain, or its fp32 planes quantized
          // here in that domain.
          const uint8_t* q;
          if (chained_in) {
            q = qsrc + b * in_item;
          } else {
            uint8_t* qin = wsb + int8_ws_.qin;
            Int8QuantizeActivations(input.data() + b * in_item, in_item,
                                    inv_scale, in_zp, qin);
            q = qin;
          }
          if (!direct) {
            // u8 im2col; border pad = the zero point, exact x = 0.
            uint8_t* col = wsb + int8_ws_.col;
            Im2ColStridedU8(q, in_c_, in_shape_.dim(2), in_shape_.dim(3),
                            opts_.ksize, opts_.stride, opts_.pad,
                            static_cast<uint8_t>(in_zp), col);
            q = col;
          }
          Int8PackActCols(q, k, n, packed);
          Int8Epilogue e = epi;
          float* c = nullptr;
          if (u8_out) {
            e.out_u8 = qdst + b * m * n;
          } else {
            c = raw.data() + b * m * n;
          }
          Int8GemmPrepacked(m, n, k, qw, packed, e, c, n, acc);
        }
      });
}

void ConvLayer::BatchNormForward(bool train, const ItemRange& range) {
  const int64_t batch = out_shape_.dim(0);
  const int64_t spatial = out_h_ * out_w_;
  const int64_t m = batch * spatial;
  const int64_t filter_grain =
      std::max<int64_t>(1, kBnGrainElems / std::max<int64_t>(1, m));

  const float* use_mean;
  const float* use_var;
  if (train) {
    // Filters are independent, and each filter's reduction runs in the
    // same (batch, spatial) order at any parallelism level.
    ParallelFor(0, opts_.filters, filter_grain,
                [&](int64_t f0, int64_t f1, int) {
                  for (int64_t f = f0; f < f1; ++f) {
                    double s = 0.0;
                    for (int64_t b = 0; b < batch; ++b) {
                      const float* p =
                          conv_out_.data() + (b * opts_.filters + f) * spatial;
                      for (int64_t i = 0; i < spatial; ++i) s += p[i];
                    }
                    mean_[f] = static_cast<float>(s / m);
                    double v = 0.0;
                    for (int64_t b = 0; b < batch; ++b) {
                      const float* p =
                          conv_out_.data() + (b * opts_.filters + f) * spatial;
                      for (int64_t i = 0; i < spatial; ++i) {
                        const double d = p[i] - mean_[f];
                        v += d * d;
                      }
                    }
                    var_[f] = static_cast<float>(v / m);
                    rolling_mean_[f] = kBnMomentum * rolling_mean_[f] +
                                       (1 - kBnMomentum) * mean_[f];
                    rolling_var_[f] = kBnMomentum * rolling_var_[f] +
                                      (1 - kBnMomentum) * var_[f];
                  }
                });
    use_mean = mean_.data();
    use_var = var_.data();
  } else {
    use_mean = rolling_mean_.data();
    use_var = rolling_var_.data();
  }

  // Normalize the range's planes: (batch, filter) planes are
  // independent, and plane pl belongs to filter pl % F. Inference layers
  // read the raw conv output from output_ itself (written there by
  // Forward) and keep no x_norm_ cache; the per-element arithmetic is
  // unchanged, so both paths produce bitwise identical activations.
  const float* src_base = inference() ? output_.data() : conv_out_.data();
  float* xn_base = inference() ? nullptr : x_norm_.data();
  const int64_t plane_grain =
      std::max<int64_t>(1, kBnGrainElems / std::max<int64_t>(1, spatial));
  ParallelFor(
      range.begin * opts_.filters, range.end * opts_.filters, plane_grain,
      [&](int64_t p0, int64_t p1, int) {
        for (int64_t pl = p0; pl < p1; ++pl) {
          const int64_t f = pl % opts_.filters;
          const float inv_std = 1.0f / std::sqrt(use_var[f] + kBnEps);
          const float mu = use_mean[f];
          const float gamma = scales_[f];
          const float beta = biases_[f];
          const float* src = src_base + pl * spatial;
          float* dst = output_.data() + pl * spatial;
          if (xn_base != nullptr) {
            float* xn = xn_base + pl * spatial;
            for (int64_t i = 0; i < spatial; ++i) {
              const float norm = (src[i] - mu) * inv_std;
              xn[i] = norm;
              dst[i] = gamma * norm + beta;
            }
          } else {
            for (int64_t i = 0; i < spatial; ++i) {
              const float norm = (src[i] - mu) * inv_std;
              dst[i] = gamma * norm + beta;
            }
          }
        }
      });
}

void ConvLayer::BatchNormBackward() {
  // Input: delta_ holds dL/d(pre-activation). Transforms it in place into
  // dL/d(conv_out) and accumulates scale/bias gradients. Filters are
  // independent, so the per-filter loop parallelizes without changing
  // any accumulation order.
  const int64_t batch = out_shape_.dim(0);
  const int64_t spatial = out_h_ * out_w_;
  const int64_t m = batch * spatial;
  const int64_t filter_grain =
      std::max<int64_t>(1, kBnGrainElems / std::max<int64_t>(1, m));

  ParallelFor(0, opts_.filters, filter_grain, [&](int64_t f0, int64_t f1,
                                                  int) {
    for (int64_t f = f0; f < f1; ++f) {
      const float inv_std = 1.0f / std::sqrt(var_[f] + kBnEps);
      const float gamma = scales_[f];

      double dbeta = 0.0, dgamma = 0.0, sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (int64_t b = 0; b < batch; ++b) {
        const float* d = delta_.data() + (b * opts_.filters + f) * spatial;
        const float* xn = x_norm_.data() + (b * opts_.filters + f) * spatial;
        for (int64_t i = 0; i < spatial; ++i) {
          dbeta += d[i];
          dgamma += d[i] * xn[i];
          const float dxhat = d[i] * gamma;
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xn[i];
        }
      }
      bias_grads_[f] += static_cast<float>(dbeta);
      scale_grads_[f] += static_cast<float>(dgamma);

      // dL/dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat))
      const float mean_dxhat = static_cast<float>(sum_dxhat / m);
      const float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / m);
      for (int64_t b = 0; b < batch; ++b) {
        float* d = delta_.data() + (b * opts_.filters + f) * spatial;
        const float* xn = x_norm_.data() + (b * opts_.filters + f) * spatial;
        for (int64_t i = 0; i < spatial; ++i) {
          const float dxhat = d[i] * gamma;
          d[i] = inv_std * (dxhat - mean_dxhat - xn[i] * mean_dxhat_xhat);
        }
      }
    }
  });
}

void ConvLayer::Backward(const Tensor& input, Tensor* input_delta,
                         Network& net) {
  const int64_t batch = in_shape_.dim(0);
  const int64_t in_plane = in_c_ * in_shape_.dim(2) * in_shape_.dim(3);
  const int64_t out_plane = opts_.filters * out_h_ * out_w_;
  const int64_t spatial = out_h_ * out_w_;
  const int64_t k = in_c_ * opts_.ksize * opts_.ksize;
  const bool direct = IsDirect1x1();
  const int64_t col_plane = WorkspaceSize();
  const int64_t wsize = weights_.size();

  // 1. Chain through the activation (elementwise).
  ParallelFor(0, delta_.size(), kBnGrainElems,
              [&](int64_t i0, int64_t i1, int) {
                GradientActivation(opts_.activation,
                                   pre_activation_.data() + i0,
                                   delta_.data() + i0, i1 - i0);
              });

  // 2. Batch norm (or bias) gradients.
  if (opts_.batch_normalize) {
    BatchNormBackward();
  } else {
    // Per-filter sums; batch items are visited in ascending order inside
    // each filter, exactly as the sequential loop nest did.
    ParallelFor(0, opts_.filters, 1, [&](int64_t f0, int64_t f1, int) {
      for (int64_t f = f0; f < f1; ++f) {
        for (int64_t b = 0; b < batch; ++b) {
          const float* d = delta_.data() + (b * opts_.filters + f) * spatial;
          double s = 0.0;
          for (int64_t i = 0; i < spatial; ++i) s += d[i];
          bias_grads_[f] += static_cast<float>(s);
        }
      }
    });
  }

  // 3. Weight gradients and input deltas, per batch item. Each item's
  // gradient goes to its own scratch slot; the reduction below then adds
  // the slots in ascending batch order, which is bitwise identical to
  // the sequential per-item accumulation (a beta=0 GEMM computes exactly
  // the alpha*sum terms a beta=1 GEMM would have added in place).
  if (wg_scratch_.size() != batch * wsize) {
    wg_scratch_.Resize(Shape({batch, wsize}));
  }
  ParallelForBounded(
      0, batch, 1, net.workspace_slots(),
      [&](int64_t b0, int64_t b1, int tid) {
        float* ws = direct ? nullptr : net.workspace(tid, col_plane);
        for (int64_t b = b0; b < b1; ++b) {
          const float* in = input.data() + b * in_plane;
          const float* d = delta_.data() + b * out_plane;
          const float* col =
              cols_cached_
                  ? col_cache_.data() + b * col_plane
                  : PrepareCol(in, ws);
          // dW_b[f, ckk] = d[f, hw] * col[ckk, hw]^T into this item's slot.
          Gemm(false, true, opts_.filters, k, spatial, 1.0f, d, spatial, col,
               spatial, 0.0f, wg_scratch_.data() + b * wsize, k);

          if (input_delta != nullptr) {
            // id[ckk, hw] += W^T[ckk, f] * d[f, hw]
            float* id = input_delta->data() + b * in_plane;
            if (direct) {
              Gemm(true, false, k, spatial, opts_.filters, 1.0f,
                   weights_.data(), k, d, spatial, 1.0f, id, spatial);
            } else {
              Gemm(true, false, k, spatial, opts_.filters, 1.0f,
                   weights_.data(), k, d, spatial, 0.0f, ws, spatial);
              Col2Im(ws, in_c_, in_shape_.dim(2), in_shape_.dim(3),
                     opts_.ksize, opts_.stride, opts_.pad, id);
            }
          }
        }
      });

  // Deterministic reduction: parallel over the weight index (disjoint
  // writes), sequential in batch order per element.
  ParallelFor(0, wsize, kBnGrainElems, [&](int64_t i0, int64_t i1, int) {
    for (int64_t b = 0; b < batch; ++b) {
      const float* src = wg_scratch_.data() + b * wsize;
      float* dst = weight_grads_.data();
      for (int64_t i = i0; i < i1; ++i) dst[i] += src[i];
    }
  });
}

std::vector<Param> ConvLayer::Params() {
  std::vector<Param> params;
  params.push_back({&weights_, &weight_grads_, /*apply_decay=*/true, "weights"});
  params.push_back({&biases_, &bias_grads_, false, "biases"});
  if (opts_.batch_normalize) {
    params.push_back({&scales_, &scale_grads_, false, "scales"});
  }
  return params;
}

std::vector<ConstParam> ConvLayer::Params() const {
  std::vector<ConstParam> params;
  params.push_back({&weights_, &weight_grads_, /*apply_decay=*/true, "weights"});
  params.push_back({&biases_, &bias_grads_, false, "biases"});
  if (opts_.batch_normalize) {
    params.push_back({&scales_, &scale_grads_, false, "scales"});
  }
  return params;
}

void ConvLayer::SetActivationRange(float range_min, float range_max) {
  act_in_min_ = range_min;
  act_in_max_ = range_max;
  has_act_range_ = true;
}

void ConvLayer::ResetCalibration() {
  has_act_range_ = false;
  act_in_min_ = act_in_max_ = 0.0f;
  calib_seen_ = false;
  calib_min_ = calib_max_ = 0.0f;
  calib_hist_.clear();
}

void ConvLayer::ObserveCalibration(const Tensor& input, CalibPhase phase) {
  // Single-threaded on purpose: calibration is an offline pass, and the
  // sequential reduction keeps the observed range deterministic.
  const float* x = input.data();
  const int64_t count = input.size();
  if (count == 0) return;
  if (phase == CalibPhase::kRange) {
    float lo = calib_seen_ ? calib_min_ : x[0];
    float hi = calib_seen_ ? calib_max_ : x[0];
    for (int64_t i = 0; i < count; ++i) {
      lo = std::min(lo, x[i]);
      hi = std::max(hi, x[i]);
    }
    calib_min_ = lo;
    calib_max_ = hi;
    calib_seen_ = true;
    return;
  }
  // kHist over the kRange interval; values outside it (the hist pass may
  // see different images) clamp into the edge bins.
  if (!calib_seen_ || calib_max_ <= calib_min_) return;
  if (calib_hist_.size() != static_cast<size_t>(kCalibBins)) {
    calib_hist_.assign(static_cast<size_t>(kCalibBins), 0);
  }
  const float inv_bin =
      static_cast<float>(kCalibBins) / (calib_max_ - calib_min_);
  for (int64_t i = 0; i < count; ++i) {
    int64_t b = static_cast<int64_t>((x[i] - calib_min_) * inv_bin);
    b = std::clamp<int64_t>(b, 0, kCalibBins - 1);
    ++calib_hist_[static_cast<size_t>(b)];
  }
}

void ConvLayer::FinalizeCalibration(double percentile) {
  if (!calib_seen_) return;
  int64_t total = 0;
  for (int64_t c : calib_hist_) total += c;
  if (percentile >= 100.0 || total == 0) {
    SetActivationRange(calib_min_, calib_max_);
    return;
  }
  // Trim each tail to at most (100 - percentile)/2 percent of the mass.
  const int64_t tail = static_cast<int64_t>(
      static_cast<double>(total) * (100.0 - percentile) / 200.0);
  int64_t lo_bin = 0;
  int64_t acc = 0;
  while (lo_bin < kCalibBins - 1 &&
         acc + calib_hist_[static_cast<size_t>(lo_bin)] <= tail) {
    acc += calib_hist_[static_cast<size_t>(lo_bin)];
    ++lo_bin;
  }
  int64_t hi_bin = kCalibBins - 1;
  acc = 0;
  while (hi_bin > lo_bin &&
         acc + calib_hist_[static_cast<size_t>(hi_bin)] <= tail) {
    acc += calib_hist_[static_cast<size_t>(hi_bin)];
    --hi_bin;
  }
  const float bin_w = (calib_max_ - calib_min_) / kCalibBins;
  SetActivationRange(calib_min_ + bin_w * static_cast<float>(lo_bin),
                     calib_min_ + bin_w * static_cast<float>(hi_bin + 1));
}

void ConvLayer::FoldBatchNorm() {
  if (!opts_.batch_normalize) return;
  const int64_t per_filter = in_c_ * opts_.ksize * opts_.ksize;
  for (int64_t f = 0; f < opts_.filters; ++f) {
    const float inv_std = 1.0f / std::sqrt(rolling_var_[f] + kBnEps);
    const float g = scales_[f] * inv_std;
    float* w = weights_.data() + f * per_filter;
    for (int64_t i = 0; i < per_filter; ++i) w[i] *= g;
    biases_[f] = biases_[f] - scales_[f] * rolling_mean_[f] * inv_std;
  }
  opts_.batch_normalize = false;
  folded_ = true;
  packed_dirty_ = true;
  scales_ = Tensor();
  scale_grads_ = Tensor();
  rolling_mean_ = Tensor();
  rolling_var_ = Tensor();
  conv_out_ = Tensor();
  x_norm_ = Tensor();
  col_cache_ = Tensor();
  wg_scratch_ = Tensor();
}

}  // namespace thali
