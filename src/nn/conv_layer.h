#ifndef THALI_NN_CONV_LAYER_H_
#define THALI_NN_CONV_LAYER_H_

#include <vector>

#include "base/rng.h"
#include "nn/activation.h"
#include "nn/layer.h"
#include "tensor/qtensor.h"

namespace thali {

// 2-d convolution with optional fused batch normalization and activation —
// Darknet's `[convolutional]` layer. Weight layout is
// (out_channels, in_channels, ksize, ksize). Forward runs one GEMM per
// batch item, in one of two bodies (LayerPlan::int8):
//
//  - fp32: B is the item's input planes (1x1/stride-1/pad-0, IsDirect1x1)
//    or its im2col panel; inference multiplies the prepacked weight
//    panels, training the live weights.
//  - int8: the item's u8 planes are the producer's chained bytes or the
//    fp32 input quantized here; a 3x3 gathers them with the u8 im2col;
//    then pack and the integer GEMM with its requantize epilogue.
//
// Activations are NCHW, so an item's planes are one contiguous block of
// each tensor. An inference Forward covers one item group and runs on
// one strand; a training Forward covers the batch and fans its items
// out across strands. The GEMM write-back applies the epilogue the plan
// carries (plan().epilogue); the bias or batch-norm pass and the
// activation pass run only where it did not. Forward never re-decides:
// calibration changes reach it only through a replan
// (Network::ReplanInference).
//
// With batch_normalize, the layer carries scales (gamma), biases (beta)
// and rolling mean/variance exactly like Darknet, so the serialized
// parameter order matches the .weights format.
class ConvLayer : public Layer {
 public:
  struct Options {
    int filters = 1;
    int ksize = 3;
    int stride = 1;
    int pad = 1;  // symmetric zero padding in pixels
    bool batch_normalize = false;
    Activation activation = Activation::kLeaky;
  };

  explicit ConvLayer(const Options& options) : opts_(options) {}

  const char* kind() const override { return "convolutional"; }
  Status Configure(const Shape& input_shape, const Network& net) override;
  Status Rebatch(const Shape& input_shape, const Network& net) override;
  void Forward(const Tensor& input, Network& net, bool train,
               const ItemRange& items) override;
  void Backward(const Tensor& input, Tensor* input_delta,
                Network& net) override;
  std::vector<Param> Params() override;
  std::vector<ConstParam> Params() const override;
  int64_t WorkspaceSize() const override;

  // Lays out the int8 byte workspace for the current plan and shapes
  // (int8 convs only), once per plan push, and repacks the weights of an
  // inference layer whose held copy is stale for the planned dtype.
  void OnPlanUpdated() override;

  // Repacks an inference layer's weights after a mutation, before any
  // item group reads them.
  void BeginForward(const Network& net, bool train) override;

  // Invalidates the packed copy after any mutation of weights_ (weight
  // loading, optimizer steps, batch-norm folding); the next inference
  // forward re-packs.
  void MarkWeightsDirty() { packed_dirty_ = true; }

  // Bytes held by the pre-packed weight copy (0 when not packed).
  int64_t packed_weight_bytes() const {
    return packed_weights_.size() * static_cast<int64_t>(sizeof(float));
  }

  // Bytes held by the quantized int8 weight copy (0 when the layer's
  // plan is not int8 or weights are not packed yet).
  int64_t int8_weight_bytes() const { return qweights_.bytes(); }

  // --- int8 activation calibration (LayerPlan::quantizable convs) ---
  //
  // The quantized path needs the input activation range of each int8
  // conv. Detector::CalibrateInt8 collects it by running fp32 forwards
  // with net.calib_phase() set (kRange then optionally kHist) and then
  // calling FinalizeCalibration; a persisted calibration instead lands
  // directly in SetActivationRange. The plan compiler arms the quantized
  // algorithm (deriving the input domain from this range) only once a
  // range is installed; until then the layer runs fp32.

  // Installs the input range the next replan quantizes with.
  void SetActivationRange(float range_min, float range_max);
  bool has_activation_range() const { return has_act_range_; }
  float activation_range_min() const { return act_in_min_; }
  float activation_range_max() const { return act_in_max_; }

  // Clears accumulated calibration statistics (and the installed range).
  void ResetCalibration();

  // Converts accumulated statistics into an activation range:
  // percentile == 100 keeps the observed min/max; otherwise the
  // histogram pass's tails are trimmed so each holds at most
  // (100 - percentile)/2 percent of the observed values.
  void FinalizeCalibration(double percentile);

  const Options& options() const { return opts_; }

  // 1x1/stride-1/pad-0 convs need no im2col: the input planes already
  // form the GEMM B matrix.
  bool IsDirect1x1() const;

  // He-style initialization scaled for the fan-in, matching Darknet's
  // scale = sqrt(2/(k*k*c)).
  void InitWeights(Rng& rng);

  // Direct parameter access for the serializer.
  Tensor& weights() { return weights_; }
  Tensor& biases() { return biases_; }
  Tensor& scales() { return scales_; }
  Tensor& rolling_mean() { return rolling_mean_; }
  Tensor& rolling_var() { return rolling_var_; }

  // Folds batch-norm parameters into weights/biases for faster inference
  // (w' = w*gamma/sqrt(var+eps), b' = beta - gamma*mean/sqrt(var+eps)).
  // Irreversible; the layer afterwards behaves as batch_normalize=false.
  // Only valid on a layer that will no longer be trained.
  void FoldBatchNorm();
  // True once FoldBatchNorm folded this layer's batch norm: its
  // parameters no longer match the .weights layout of its cfg.
  bool folded() const { return folded_; }

 private:
  // Returns the col matrix for one item: its input planes themselves
  // (direct 1x1) or `ws` after an im2col into it.
  const float* PrepareCol(const float* in, float* ws) const;

  // The two algorithm bodies, over the batch entries of `range`. Each
  // writes the pre-bias (or, where the epilogue fused it, the finished)
  // output into `raw`; the int8 body writes a u8 output into the
  // network's chain buffer instead.
  void ForwardFp32Gemm(const Tensor& input, Network& net, bool train,
                       const ItemRange& range, Tensor& raw);
  void ForwardInt8Gemm(const Tensor& input, Network& net,
                       const ItemRange& range, Tensor& raw);

  // Batch norm over the planes of `range`; training (whole batch only)
  // first computes the batch statistics.
  void BatchNormForward(bool train, const ItemRange& range);
  void BatchNormBackward();

  // Records input statistics for the active calibration phase (min/max
  // under kRange, histogram under kHist).
  void ObserveCalibration(const Tensor& input, CalibPhase phase);

  // Builds the weight copy the planned dtype reads — fp32 GEMM panels or
  // per-channel int8 rows — and releases the other. Inference layers only:
  // training multiplies weights_ live.
  void PrepackWeights();

  // Sizes the activation-shaped caches for the current out_shape_ and
  // mode (inference layers keep none); shared by Configure and Rebatch.
  void SizeActivationCaches();

  Options opts_;
  int64_t out_h_ = 0;
  int64_t out_w_ = 0;
  int64_t in_c_ = 0;

  Tensor weights_, weight_grads_;
  // Inference weight copies; PrepackWeights holds only the one the
  // planned dtype reads.
  Tensor packed_weights_;      // fp32 microkernel panels
  DTypeBuffer qweights_;       // per-channel int8 rows
  std::vector<float> wscale_;  // per-filter int8 weight scales
  std::vector<int32_t> wcolsum_;  // per-filter quantized-row sums
  bool packed_dirty_ = true;   // weights_ changed since the last pack
  bool packed_int8_ = false;   // the dtype the held copy serves
  bool folded_ = false;
  Tensor biases_, bias_grads_;
  // Batch-norm parameters (allocated only when batch_normalize).
  Tensor scales_, scale_grads_;
  Tensor rolling_mean_, rolling_var_;
  Tensor mean_, var_;        // batch statistics cached for backward
  Tensor conv_out_;          // pre-BN conv output cache
  Tensor x_norm_;            // normalized activations cache
  Tensor pre_activation_;    // post-BN/bias, pre-activation cache
  Tensor col_cache_;         // per-item im2col panels cached by Forward
  // Whether col_cache_ matches the last training-layer Forward; always
  // false on inference layers, whose groups never write it.
  bool cols_cached_ = false;
  Tensor wg_scratch_;        // per-item weight-gradient slots (Backward)

  // Byte-section offsets of one item inside the per-slot float
  // workspace of the int8 body, each 64-byte aligned. Laid out once per
  // plan push in OnPlanUpdated (Finalize / SetBatch / ReplanInference);
  // WorkspaceSize reports ws_floats.
  struct Int8Sections {
    int64_t qin = 0;     // quantized input planes (u8)
    int64_t col = -1;    // u8 im2col panel (3x3 only)
    int64_t packed = 0;  // packed activation panel
    int64_t acc = 0;     // i32 accumulator tile
    int64_t ws_floats = 0;  // floats to request from net.workspace()
  };
  Int8Sections int8_ws_;

  // Installed int8 input range (the plan compiler derives the domain).
  bool has_act_range_ = false;
  float act_in_min_ = 0.0f, act_in_max_ = 0.0f;
  // Calibration accumulators (only touched while a phase is active).
  float calib_min_ = 0.0f, calib_max_ = 0.0f;
  bool calib_seen_ = false;
  std::vector<int64_t> calib_hist_;
};

}  // namespace thali

#endif  // THALI_NN_CONV_LAYER_H_
