#ifndef DDPKIT_TENSOR_TENSOR_H_
#define DDPKIT_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/dtype.h"
#include "tensor/storage.h"

namespace ddpkit {

/// Abstract hook that lets the autograd library attach graph metadata
/// (grad_fn, gradient accumulator) to a tensor without a dependency cycle
/// between the tensor and autograd libraries.
class AutogradMetaBase {
 public:
  virtual ~AutogradMetaBase() = default;
};

namespace internal {

/// Shared tensor state. Tensor handles that alias the same TensorImpl see
/// each other's in-place modifications, matching PyTorch semantics (a
/// parameter tensor and the copies of it held by DDP are the same object).
struct TensorImpl {
  std::shared_ptr<Storage> storage;
  size_t byte_offset = 0;
  std::vector<int64_t> shape;
  std::vector<int64_t> strides;  // in elements
  DType dtype = DType::kFloat32;
  bool requires_grad = false;
  std::shared_ptr<TensorImpl> grad;  // lazily allocated
  /// Set by ZeroGrad: grad's values count as zeros but were not written.
  /// The one field a const Tensor may change (grad() clears it).
  mutable bool grad_stale = false;
  std::shared_ptr<AutogradMetaBase> autograd_meta;
};

/// A new impl over `impl`'s data (storage, offset, shape, strides, dtype)
/// and none of its autograd state: no grad, stale mark or autograd meta.
std::shared_ptr<TensorImpl> DataAlias(const TensorImpl& impl);

}  // namespace internal

/// An n-dimensional array handle. Copying a Tensor is cheap and aliasing:
/// both handles refer to the same data, gradient and autograd state. Use
/// Clone() for a deep copy.
class Tensor {
 public:
  /// An undefined tensor (no storage). defined() returns false.
  Tensor() = default;

  // ---- Factories -------------------------------------------------------

  static Tensor Empty(std::vector<int64_t> shape, DType dtype = DType::kFloat32,
                      int device_id = 0);
  static Tensor Zeros(std::vector<int64_t> shape, DType dtype = DType::kFloat32,
                      int device_id = 0);
  static Tensor Full(std::vector<int64_t> shape, double value,
                     DType dtype = DType::kFloat32, int device_id = 0);
  static Tensor Ones(std::vector<int64_t> shape, DType dtype = DType::kFloat32,
                     int device_id = 0);
  /// Standard-normal initialization (float32).
  static Tensor Randn(std::vector<int64_t> shape, Rng* rng, int device_id = 0);
  /// Uniform in [lo, hi) (float32).
  static Tensor Rand(std::vector<int64_t> shape, Rng* rng, double lo = 0.0,
                     double hi = 1.0, int device_id = 0);
  static Tensor FromVector(const std::vector<float>& values,
                           std::vector<int64_t> shape, int device_id = 0);
  static Tensor FromVectorInt64(const std::vector<int64_t>& values,
                                std::vector<int64_t> shape, int device_id = 0);

  // ---- Introspection ---------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const std::vector<int64_t>& shape() const;
  const std::vector<int64_t>& strides() const;
  int64_t dim() const;
  int64_t size(int64_t d) const;
  int64_t numel() const;
  DType dtype() const;
  int device_id() const;
  size_t nbytes() const { return static_cast<size_t>(numel()) * ItemSize(dtype()); }
  bool is_contiguous() const;
  std::string ShapeString() const;

  /// Identity: two handles alias the same underlying impl.
  bool is_same(const Tensor& other) const { return impl_ == other.impl_; }
  /// Stable identity key for use in maps.
  const void* id() const { return impl_.get(); }

  // ---- Data access -----------------------------------------------------

  /// Typed pointer to the first element of this view. T must match dtype.
  template <typename T>
  T* data() {
    return reinterpret_cast<T*>(impl().storage->data() + impl().byte_offset);
  }
  template <typename T>
  const T* data() const {
    return reinterpret_cast<const T*>(impl().storage->data() +
                                      impl().byte_offset);
  }

  /// Element accessor by multi-dimensional index (float32/float64 as double).
  double At(const std::vector<int64_t>& index) const;
  void Set(const std::vector<int64_t>& index, double value);
  /// Scalar extraction. Precondition: numel() == 1.
  double Item() const;

  /// Flat element accessor honoring strides (works on non-contiguous views).
  double FlatAt(int64_t i) const;
  void FlatSet(int64_t i, double value);

  // ---- Shape manipulation ----------------------------------------------

  /// Contiguous-only reshape; returns a view sharing storage.
  Tensor Reshape(std::vector<int64_t> new_shape) const;
  Tensor Flatten() const;
  /// Narrowed view along `d`: elements [start, start+length). Shares storage.
  /// This is the primitive DDP's bucket views are built from (Algorithm 1,
  /// line 15).
  Tensor Narrow(int64_t d, int64_t start, int64_t length) const;
  /// Index along dim 0, removing it. Shares storage (contiguous-only).
  Tensor Select(int64_t index) const;

  // ---- Mutation / conversion -------------------------------------------

  Tensor Clone() const;
  /// Copies elementwise from `src` (same numel; dtype must match).
  void CopyFrom(const Tensor& src);
  void Fill(double value);
  void Zero() { Fill(0.0); }
  Tensor Cast(DType dtype) const;
  Tensor Contiguous() const;

  // ---- Autograd hooks (state only; semantics live in autograd/) ---------

  bool requires_grad() const;
  void set_requires_grad(bool value);
  /// The accumulated gradient, or an undefined tensor if none. A gradient
  /// marked stale by ZeroGrad is zero-filled here first, once, in its own
  /// storage, so every reader sees zeros after ZeroGrad.
  Tensor grad() const;
  /// Replaces the gradient (undefined drops it) and clears the stale mark.
  void set_grad(const Tensor& g);
  /// Adds `g` into grad. Into a stale gradient, or a first one (allocated
  /// here), it stores +0.0f + g instead, which has the bits of adding into
  /// zeros (−0 lands as +0, a NaN propagates alike) with one write and no
  /// read of the old values; that clears the mark.
  void AccumulateGrad(const Tensor& g);
  /// Marks an existing gradient stale in O(1), writing no memory; without
  /// a gradient, a no-op. A handle to the gradient taken before ZeroGrad
  /// keeps its old values until the gradient is next read through grad()
  /// or written by AccumulateGrad.
  void ZeroGrad();

  std::shared_ptr<AutogradMetaBase> autograd_meta() const;
  void set_autograd_meta(std::shared_ptr<AutogradMetaBase> meta);

 private:
  friend Tensor MakeTensorFromImpl(std::shared_ptr<internal::TensorImpl>);
  friend std::shared_ptr<internal::TensorImpl> GetTensorImpl(const Tensor&);

  internal::TensorImpl& impl() {
    DDPKIT_CHECK(impl_ != nullptr) << "undefined tensor";
    return *impl_;
  }
  const internal::TensorImpl& impl() const {
    DDPKIT_CHECK(impl_ != nullptr) << "undefined tensor";
    return *impl_;
  }

  std::shared_ptr<internal::TensorImpl> impl_;
};

/// Internal helpers used by the autograd engine (not for general use).
Tensor MakeTensorFromImpl(std::shared_ptr<internal::TensorImpl> impl);
std::shared_ptr<internal::TensorImpl> GetTensorImpl(const Tensor& t);

/// Number of elements implied by `shape`.
int64_t ShapeNumel(const std::vector<int64_t>& shape);

/// Row-major (C-order) strides for `shape`.
std::vector<int64_t> ContiguousStrides(const std::vector<int64_t>& shape);

}  // namespace ddpkit

#endif  // DDPKIT_TENSOR_TENSOR_H_
