#include "tensor/qtensor.h"

namespace thali {

const char* DTypeName(DType t) {
  switch (t) {
    case DType::kF32:
      return "f32";
    case DType::kI8:
      return "i8";
    case DType::kU8:
      return "u8";
  }
  return "?";
}

}  // namespace thali
