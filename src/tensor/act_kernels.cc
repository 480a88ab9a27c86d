#include "tensor/act_kernels.h"

#include "base/cpu_features.h"
#include "tensor/act_kernels_impl.h"

namespace thali {

namespace {

using act_detail::ActKernel;

const ActKernel kScalarActKernel = {
    /*name=*/"scalar-act",
    /*leaky=*/&act_detail::LeakyScalar,
    /*relu=*/&act_detail::ReluScalar,
    /*mish=*/&act_detail::MishScalar,
    /*collect=*/&act_detail::CollectAtLeastScalar,
};

const ActKernel* DetectActKernel() {
  const ActKernel* avx2 = Avx2ActKernel();
  if (avx2 != nullptr && CpuInfo().avx2 && CpuInfo().fma) return avx2;
  return &kScalarActKernel;
}

const ActKernel& SelectActKernel() {
  static const ActKernel* const detected = DetectActKernel();
  return SimdKernelsAllowed() ? *detected : kScalarActKernel;
}

}  // namespace

void FastLeakyInPlace(float* x, int64_t n) { SelectActKernel().leaky(x, n); }
void FastReluInPlace(float* x, int64_t n) { SelectActKernel().relu(x, n); }
void FastMishInPlace(float* x, int64_t n) { SelectActKernel().mish(x, n); }

int64_t CollectAtLeast(const float* x, int64_t n, float threshold,
                       int32_t* out) {
  return SelectActKernel().collect(x, n, threshold, out);
}

const char* ActKernelName() { return SelectActKernel().name; }

namespace internal {

float FastExpScalar(float x) { return act_detail::FastExp(x); }

}  // namespace internal

}  // namespace thali
