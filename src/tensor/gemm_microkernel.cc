#include "tensor/gemm_microkernel.h"

#include "base/cpu_features.h"
#include "tensor/gemm_tile_impl.h"

namespace thali {

namespace {

using gemm_detail::MulAddOp;

const GemmKernel kScalarKernel = {
    /*name=*/"scalar-6x16",
    /*fused=*/false,
    /*tile=*/&gemm_detail::TileGeneric<MulAddOp>,
    /*edge=*/&gemm_detail::EdgeGeneric<MulAddOp>,
    /*ref_nn=*/&gemm_detail::RefNn<MulAddOp>,
    /*ref_tn=*/&gemm_detail::RefTn<MulAddOp>,
    /*ref_nt=*/&gemm_detail::RefNt<MulAddOp>,
    /*ref_tt=*/&gemm_detail::RefTt<MulAddOp>,
};

const GemmKernel* DetectKernel() {
  const GemmKernel* avx2 = Avx2GemmKernel();
  if (avx2 != nullptr && CpuInfo().avx2 && CpuInfo().fma) return avx2;
  return &kScalarKernel;
}

}  // namespace

const GemmKernel& ScalarGemmKernel() { return kScalarKernel; }

const GemmKernel& SelectGemmKernel() {
  static const GemmKernel* const detected = DetectKernel();
  return SimdKernelsAllowed() ? *detected : kScalarKernel;
}

}  // namespace thali
