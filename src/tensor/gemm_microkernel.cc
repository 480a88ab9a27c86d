#include "tensor/gemm_microkernel.h"

#include "base/cpu_features.h"
#include "tensor/act_kernels_impl.h"
#include "tensor/gemm_tile_impl.h"

namespace thali {

namespace {

using gemm_detail::MulAddOp;

// The scalar family's tile epilogue: the conv layer's bias pass, then
// the scalar activation family's ops, element for element.
void FinishScalar(float* c, int64_t ldc, int mr, int nr, const float* bias,
                  GemmActivation act) {
  for (int r = 0; r < mr; ++r) {
    float* cr = c + r * ldc;
    if (bias != nullptr) {
      for (int j = 0; j < nr; ++j) cr[j] += bias[r];
    }
    switch (act) {
      case GemmActivation::kNone:
        break;
      case GemmActivation::kLeaky:
        act_detail::LeakyScalar(cr, nr);
        break;
      case GemmActivation::kRelu:
        act_detail::ReluScalar(cr, nr);
        break;
      case GemmActivation::kMish:
        act_detail::MishScalar(cr, nr);
        break;
    }
  }
}

const GemmKernel kScalarKernel = {
    /*name=*/"scalar-6x16",
    /*fused=*/false,
    /*panels=*/1,
    /*strips=*/1,
    /*tile=*/&gemm_detail::TileGeneric<MulAddOp>,
    /*edge=*/&gemm_detail::EdgeGeneric<MulAddOp>,
    /*finish=*/&FinishScalar,
    /*ref_nn=*/&gemm_detail::RefNn<MulAddOp>,
    /*ref_tn=*/&gemm_detail::RefTn<MulAddOp>,
    /*ref_nt=*/&gemm_detail::RefNt<MulAddOp>,
    /*ref_tt=*/&gemm_detail::RefTt<MulAddOp>,
};

}  // namespace

const GemmKernel& ScalarGemmKernel() { return kScalarKernel; }

std::vector<const GemmKernel*> RunnableGemmKernels() {
  const CpuFeatures& cpu = CpuInfo();
  std::vector<const GemmKernel*> kernels;
  if (Avx512GemmKernel() != nullptr && cpu.avx512f && cpu.fma) {
    kernels.push_back(Avx512GemmKernel());
  }
  if (Avx2GemmKernel() != nullptr && cpu.avx2 && cpu.fma) {
    kernels.push_back(Avx2GemmKernel());
  }
  kernels.push_back(&kScalarKernel);
  return kernels;
}

const GemmKernel& SelectGemmKernel() {
  static const GemmKernel* const detected = RunnableGemmKernels().front();
  return SimdKernelsAllowed() ? *detected : kScalarKernel;
}

}  // namespace thali
