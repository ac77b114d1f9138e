#include "tensor/tensor.h"

#include <cstring>
#include <numeric>
#include <sstream>

#include "common/vec.h"

namespace ddpkit {

namespace {

using internal::TensorImpl;

std::shared_ptr<TensorImpl> NewImpl(std::vector<int64_t> shape, DType dtype,
                                    int device_id) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->strides = ContiguousStrides(impl->shape);
  impl->dtype = dtype;
  const size_t nbytes =
      static_cast<size_t>(ShapeNumel(impl->shape)) * ItemSize(dtype);
  impl->storage = std::make_shared<Storage>(nbytes, device_id);
  return impl;
}

}  // namespace

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    DDPKIT_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::vector<int64_t> ContiguousStrides(const std::vector<int64_t>& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t acc = 1;
  for (size_t i = shape.size(); i-- > 0;) {
    strides[i] = acc;
    acc *= shape[i];
  }
  return strides;
}

std::shared_ptr<TensorImpl> internal::DataAlias(const TensorImpl& impl) {
  auto alias = std::make_shared<TensorImpl>(impl);
  alias->requires_grad = false;
  alias->grad = nullptr;
  alias->grad_stale = false;
  alias->autograd_meta = nullptr;
  return alias;
}

Tensor MakeTensorFromImpl(std::shared_ptr<TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

std::shared_ptr<TensorImpl> GetTensorImpl(const Tensor& t) { return t.impl_; }

// ---- Factories -----------------------------------------------------------

Tensor Tensor::Empty(std::vector<int64_t> shape, DType dtype, int device_id) {
  return MakeTensorFromImpl(NewImpl(std::move(shape), dtype, device_id));
}

Tensor Tensor::Zeros(std::vector<int64_t> shape, DType dtype, int device_id) {
  // Storage is zero-initialized by construction.
  return Empty(std::move(shape), dtype, device_id);
}

Tensor Tensor::Full(std::vector<int64_t> shape, double value, DType dtype,
                    int device_id) {
  Tensor t = Empty(std::move(shape), dtype, device_id);
  t.Fill(value);
  return t;
}

Tensor Tensor::Ones(std::vector<int64_t> shape, DType dtype, int device_id) {
  return Full(std::move(shape), 1.0, dtype, device_id);
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng* rng, int device_id) {
  DDPKIT_CHECK(rng != nullptr);
  Tensor t = Empty(std::move(shape), DType::kFloat32, device_id);
  float* p = t.data<float>();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(rng->Normal());
  return t;
}

Tensor Tensor::Rand(std::vector<int64_t> shape, Rng* rng, double lo, double hi,
                    int device_id) {
  DDPKIT_CHECK(rng != nullptr);
  Tensor t = Empty(std::move(shape), DType::kFloat32, device_id);
  float* p = t.data<float>();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& values,
                          std::vector<int64_t> shape, int device_id) {
  DDPKIT_CHECK_EQ(static_cast<int64_t>(values.size()), ShapeNumel(shape));
  Tensor t = Empty(std::move(shape), DType::kFloat32, device_id);
  std::memcpy(t.data<float>(), values.data(), values.size() * sizeof(float));
  return t;
}

Tensor Tensor::FromVectorInt64(const std::vector<int64_t>& values,
                               std::vector<int64_t> shape, int device_id) {
  DDPKIT_CHECK_EQ(static_cast<int64_t>(values.size()), ShapeNumel(shape));
  Tensor t = Empty(std::move(shape), DType::kInt64, device_id);
  std::memcpy(t.data<int64_t>(), values.data(),
              values.size() * sizeof(int64_t));
  return t;
}

// ---- Introspection --------------------------------------------------------

const std::vector<int64_t>& Tensor::shape() const { return impl().shape; }
const std::vector<int64_t>& Tensor::strides() const { return impl().strides; }
int64_t Tensor::dim() const { return static_cast<int64_t>(impl().shape.size()); }

int64_t Tensor::size(int64_t d) const {
  DDPKIT_CHECK(d >= 0 && d < dim());
  return impl().shape[static_cast<size_t>(d)];
}

int64_t Tensor::numel() const { return ShapeNumel(impl().shape); }
DType Tensor::dtype() const { return impl().dtype; }
int Tensor::device_id() const { return impl().storage->device_id(); }

bool Tensor::is_contiguous() const {
  return impl().strides == ContiguousStrides(impl().shape);
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < impl().shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << impl().shape[i];
  }
  os << "]";
  return os.str();
}

// ---- Element access --------------------------------------------------------

namespace {

int64_t LinearOffset(const TensorImpl& impl,
                     const std::vector<int64_t>& index) {
  DDPKIT_CHECK_EQ(index.size(), impl.shape.size());
  int64_t off = 0;
  for (size_t i = 0; i < index.size(); ++i) {
    DDPKIT_CHECK(index[i] >= 0 && index[i] < impl.shape[i])
        << "index " << index[i] << " out of range for dim " << i;
    off += index[i] * impl.strides[i];
  }
  return off;
}

double LoadElement(const TensorImpl& impl, int64_t element_offset) {
  const uint8_t* base =
      impl.storage->data() + impl.byte_offset +
      static_cast<size_t>(element_offset) * ItemSize(impl.dtype);
  switch (impl.dtype) {
    case DType::kFloat32:
      return *reinterpret_cast<const float*>(base);
    case DType::kFloat64:
      return *reinterpret_cast<const double*>(base);
    case DType::kInt64:
      return static_cast<double>(*reinterpret_cast<const int64_t*>(base));
    case DType::kUInt8:
      return static_cast<double>(*base);
    case DType::kFloat16:
      return HalfBitsToFloat32(*reinterpret_cast<const uint16_t*>(base));
  }
  DDPKIT_CHECK(false) << "bad dtype";
  return 0.0;
}

void StoreElement(TensorImpl* impl, int64_t element_offset, double value) {
  uint8_t* base = impl->storage->data() + impl->byte_offset +
                  static_cast<size_t>(element_offset) * ItemSize(impl->dtype);
  switch (impl->dtype) {
    case DType::kFloat32:
      *reinterpret_cast<float*>(base) = static_cast<float>(value);
      return;
    case DType::kFloat64:
      *reinterpret_cast<double*>(base) = value;
      return;
    case DType::kInt64:
      *reinterpret_cast<int64_t*>(base) = static_cast<int64_t>(value);
      return;
    case DType::kUInt8:
      *base = static_cast<uint8_t>(value);
      return;
    case DType::kFloat16:
      *reinterpret_cast<uint16_t*>(base) =
          Float32ToHalfBits(static_cast<float>(value));
      return;
  }
  DDPKIT_CHECK(false) << "bad dtype";
}

// Converts a flat logical index into a strided element offset.
int64_t StridedOffset(const TensorImpl& impl, int64_t flat) {
  int64_t off = 0;
  int64_t rem = flat;
  for (size_t i = 0; i < impl.shape.size(); ++i) {
    int64_t block = 1;
    for (size_t j = i + 1; j < impl.shape.size(); ++j) block *= impl.shape[j];
    const int64_t idx = rem / block;
    rem %= block;
    off += idx * impl.strides[i];
  }
  return off;
}

}  // namespace

double Tensor::At(const std::vector<int64_t>& index) const {
  return LoadElement(impl(), LinearOffset(impl(), index));
}

void Tensor::Set(const std::vector<int64_t>& index, double value) {
  StoreElement(&impl(), LinearOffset(impl(), index), value);
}

double Tensor::Item() const {
  DDPKIT_CHECK_EQ(numel(), 1);
  return LoadElement(impl(), 0);
}

double Tensor::FlatAt(int64_t i) const {
  DDPKIT_CHECK(i >= 0 && i < numel());
  if (is_contiguous()) return LoadElement(impl(), i);
  return LoadElement(impl(), StridedOffset(impl(), i));
}

void Tensor::FlatSet(int64_t i, double value) {
  DDPKIT_CHECK(i >= 0 && i < numel());
  if (is_contiguous()) {
    StoreElement(&impl(), i, value);
  } else {
    StoreElement(&impl(), StridedOffset(impl(), i), value);
  }
}

// ---- Shape manipulation -----------------------------------------------------

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  DDPKIT_CHECK(is_contiguous()) << "Reshape requires a contiguous tensor";
  DDPKIT_CHECK_EQ(ShapeNumel(new_shape), numel());
  auto view = internal::DataAlias(impl());
  view->shape = std::move(new_shape);
  view->strides = ContiguousStrides(view->shape);
  return MakeTensorFromImpl(std::move(view));
}

Tensor Tensor::Flatten() const { return Reshape({numel()}); }

Tensor Tensor::Narrow(int64_t d, int64_t start, int64_t length) const {
  DDPKIT_CHECK(d >= 0 && d < dim());
  DDPKIT_CHECK(start >= 0 && length >= 0 && start + length <= size(d));
  auto view = internal::DataAlias(impl());
  view->byte_offset +=
      static_cast<size_t>(start * impl().strides[static_cast<size_t>(d)]) *
      ItemSize(impl().dtype);
  view->shape[static_cast<size_t>(d)] = length;
  return MakeTensorFromImpl(std::move(view));
}

Tensor Tensor::Select(int64_t index) const {
  DDPKIT_CHECK_GE(dim(), 1);
  Tensor narrowed = Narrow(0, index, 1);
  std::vector<int64_t> new_shape(shape().begin() + 1, shape().end());
  auto view = GetTensorImpl(narrowed);
  view->shape = new_shape;
  view->strides = std::vector<int64_t>(impl().strides.begin() + 1,
                                       impl().strides.end());
  return MakeTensorFromImpl(std::move(view));
}

// ---- Mutation / conversion ---------------------------------------------------

Tensor Tensor::Clone() const {
  Tensor out = Empty(shape(), dtype(), device_id());
  out.CopyFrom(*this);
  return out;
}

void Tensor::CopyFrom(const Tensor& src) {
  DDPKIT_CHECK(src.defined());
  DDPKIT_CHECK_EQ(numel(), src.numel());
  DDPKIT_CHECK(dtype() == src.dtype())
      << "dtype mismatch: " << DTypeName(dtype()) << " vs "
      << DTypeName(src.dtype());
  if (is_contiguous() && src.is_contiguous()) {
    std::memcpy(data<uint8_t>(), src.data<uint8_t>(),
                static_cast<size_t>(numel()) * ItemSize(dtype()));
    return;
  }
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) FlatSet(i, src.FlatAt(i));
}

void Tensor::Fill(double value) {
  const int64_t n = numel();
  if (is_contiguous() && dtype() == DType::kFloat32) {
    float* p = data<float>();
    const float v = static_cast<float>(value);
    for (int64_t i = 0; i < n; ++i) p[i] = v;
    return;
  }
  for (int64_t i = 0; i < n; ++i) FlatSet(i, value);
}

Tensor Tensor::Cast(DType new_dtype) const {
  Tensor out = Empty(shape(), new_dtype, device_id());
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) out.FlatSet(i, FlatAt(i));
  return out;
}

Tensor Tensor::Contiguous() const {
  if (is_contiguous()) return *this;
  return Clone();
}

// ---- Autograd state ------------------------------------------------------------

bool Tensor::requires_grad() const { return impl().requires_grad; }

void Tensor::set_requires_grad(bool value) { impl().requires_grad = value; }

Tensor Tensor::grad() const {
  const TensorImpl& self = impl();
  if (!self.grad) return Tensor();
  Tensor g = MakeTensorFromImpl(self.grad);
  if (self.grad_stale) {
    g.Zero();
    self.grad_stale = false;
  }
  return g;
}

void Tensor::set_grad(const Tensor& g) {
  impl().grad = g.defined() ? GetTensorImpl(g) : nullptr;
  impl().grad_stale = false;
}

void Tensor::AccumulateGrad(const Tensor& g) {
  DDPKIT_CHECK(g.defined());
  DDPKIT_CHECK_EQ(g.numel(), numel());
  TensorImpl& self = impl();
  if (!self.grad) {
    self.grad = GetTensorImpl(Tensor::Empty(shape(), dtype(), device_id()));
    self.grad_stale = true;
  }
  Tensor grad_tensor = MakeTensorFromImpl(self.grad);
  DDPKIT_CHECK(grad_tensor.is_contiguous() && g.is_contiguous());
  DDPKIT_CHECK(grad_tensor.dtype() == DType::kFloat32 &&
               g.dtype() == DType::kFloat32);
  if (self.grad_stale) {
    vec::AddScalar(g.data<float>(), 0.0f, grad_tensor.data<float>(), numel());
    self.grad_stale = false;
  } else {
    vec::AccumulateAdd(grad_tensor.data<float>(), g.data<float>(), numel());
  }
}

void Tensor::ZeroGrad() {
  if (impl().grad) impl().grad_stale = true;
}

std::shared_ptr<AutogradMetaBase> Tensor::autograd_meta() const {
  return impl().autograd_meta;
}

void Tensor::set_autograd_meta(std::shared_ptr<AutogradMetaBase> meta) {
  impl().autograd_meta = std::move(meta);
}

// ---- Half-float helpers -----------------------------------------------------

uint16_t Float32ToHalfBits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  int32_t exponent = static_cast<int32_t>((bits >> 23) & 0xff) - 127 + 15;
  uint32_t mantissa = bits & 0x7fffffu;
  if (exponent >= 31) {
    // Overflow to inf (or propagate NaN).
    const uint32_t nan_bit = (((bits >> 23) & 0xff) == 0xff && mantissa) ? 1 : 0;
    return static_cast<uint16_t>(sign | 0x7c00u | (nan_bit ? 0x200u : 0));
  }
  if (exponent <= 0) {
    if (exponent < -10) return static_cast<uint16_t>(sign);  // underflow to 0
    // Subnormal half.
    mantissa |= 0x800000u;
    const int shift = 14 - exponent;
    uint32_t half_mant = mantissa >> shift;
    // Round to nearest even.
    const uint32_t rem = mantissa & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1))) ++half_mant;
    return static_cast<uint16_t>(sign | half_mant);
  }
  uint32_t half = sign | (static_cast<uint32_t>(exponent) << 10) |
                  (mantissa >> 13);
  // Round to nearest even on the 13 dropped bits.
  const uint32_t rem = mantissa & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1))) ++half;
  return static_cast<uint16_t>(half);
}

float HalfBitsToFloat32(uint16_t h) {
  const uint32_t sign = (static_cast<uint32_t>(h) & 0x8000u) << 16;
  const uint32_t exponent = (h >> 10) & 0x1f;
  const uint32_t mantissa = h & 0x3ffu;
  uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // zero
    } else {
      // Subnormal: normalize.
      int e = -1;
      uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      bits = sign | (static_cast<uint32_t>(127 - 15 - e) << 23) |
             ((m & 0x3ffu) << 13);
    }
  } else if (exponent == 31) {
    bits = sign | 0x7f800000u | (mantissa << 13);  // inf / nan
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

uint16_t Float32ToBf16Bits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if (((bits >> 23) & 0xffu) == 0xffu && (bits & 0x7fffffu)) {
    // NaN: quieten instead of rounding (rounding could carry into inf).
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round to nearest even on the 16 dropped bits.
  const uint32_t rounding = 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

float Bf16BitsToFloat32(uint16_t bf) {
  const uint32_t bits = static_cast<uint32_t>(bf) << 16;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

}  // namespace ddpkit
