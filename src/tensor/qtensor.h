#ifndef THALI_TENSOR_QTENSOR_H_
#define THALI_TENSOR_QTENSOR_H_

#include <cstdint>
#include <cstring>
#include <memory>

#include "base/logging.h"
#include "tensor/shape.h"

namespace thali {

// Element type of a typed buffer. The fp32 training substrate stays on
// Tensor (tensor/tensor.h); DType exists for the inference-side buffers
// the quantized paths carry next to it.
enum class DType : uint8_t { kF32, kI8, kU8 };

inline int64_t DTypeBytes(DType t) { return t == DType::kF32 ? 4 : 1; }

const char* DTypeName(DType t);

// Dtype-aware dense buffer with 64-byte-aligned owned storage. Unlike
// Tensor it never binds external memory and never participates in the
// activation arena: it holds derived, network-owned data (quantized
// weight rows, u8 activation blocks) whose lifetime is its owner's.
//
// Kept deliberately small: shape + raw aligned bytes + a typed view.
// Copy is a deep copy, preserving the value semantics of Tensor.
class DTypeBuffer {
 public:
  DTypeBuffer() = default;
  DTypeBuffer(DType dtype, Shape shape) { Resize(dtype, std::move(shape)); }

  DTypeBuffer(const DTypeBuffer& o) { CopyFrom(o); }
  DTypeBuffer& operator=(const DTypeBuffer& o) {
    if (this != &o) CopyFrom(o);
    return *this;
  }
  DTypeBuffer(DTypeBuffer&&) = default;
  DTypeBuffer& operator=(DTypeBuffer&&) = default;

  DType dtype() const { return dtype_; }
  const Shape& shape() const { return shape_; }
  int64_t size() const { return storage_ ? shape_.num_elements() : 0; }
  bool empty() const { return size() == 0; }
  int64_t bytes() const { return size() * DTypeBytes(dtype_); }

  // Reallocates (discarding contents, zero-filled) when the byte size
  // changes; otherwise just retags dtype/shape.
  void Resize(DType dtype, Shape shape) {
    const int64_t need = shape.num_elements() * DTypeBytes(dtype);
    THALI_CHECK_GE(need, 0);
    if (need != capacity_) {
      storage_.reset(need > 0 ? new uint8_t[static_cast<size_t>(need) + 63]
                              : nullptr);
      capacity_ = need;
    }
    dtype_ = dtype;
    shape_ = std::move(shape);
    if (storage_) std::memset(aligned(), 0, static_cast<size_t>(need));
  }

  void Clear() {
    storage_.reset();
    capacity_ = 0;
    shape_ = Shape();
  }

  // Typed accessors; T must match the buffer's dtype width (checked).
  template <typename T>
  T* data() {
    THALI_CHECK_EQ(static_cast<int64_t>(sizeof(T)), DTypeBytes(dtype_));
    return reinterpret_cast<T*>(aligned());
  }
  template <typename T>
  const T* data() const {
    THALI_CHECK_EQ(static_cast<int64_t>(sizeof(T)), DTypeBytes(dtype_));
    return reinterpret_cast<const T*>(aligned());
  }

  uint8_t* raw() { return aligned(); }
  const uint8_t* raw() const { return aligned(); }

 private:
  uint8_t* aligned() const {
    if (!storage_) return nullptr;
    const uintptr_t p = reinterpret_cast<uintptr_t>(storage_.get());
    return reinterpret_cast<uint8_t*>((p + 63) & ~uintptr_t{63});
  }

  void CopyFrom(const DTypeBuffer& o) {
    if (!o.storage_) {
      // Unallocated source (default-constructed or Cleared): mirror its
      // tags without allocating. Resize would allocate here — a default
      // Shape is rank 0 and num_elements() == 1 — and then memcpy from
      // the source's null base.
      Clear();
      dtype_ = o.dtype_;
      shape_ = o.shape_;
      return;
    }
    Resize(o.dtype_, o.shape_);
    std::memcpy(aligned(), o.aligned(), static_cast<size_t>(capacity_));
  }

  DType dtype_ = DType::kF32;
  Shape shape_;
  std::unique_ptr<uint8_t[]> storage_;
  int64_t capacity_ = 0;  // bytes (excluding the alignment slack)
};

}  // namespace thali

#endif  // THALI_TENSOR_QTENSOR_H_
