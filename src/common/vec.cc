#include "common/vec.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/logging.h"

#if defined(__x86_64__) || defined(_M_X64)
#define DDPKIT_VEC_X86 1
#include <immintrin.h>
#endif

namespace ddpkit::vec {
namespace {

// Target attributes deliberately request only the base ISA sets (no "fma"):
// the kernels below must emit separate mul and add instructions so their
// rounding matches the serial loops of vec.h bit-for-bit. The x86-64
// baseline the scalar level compiles against has no FMA instruction, so
// -ffp-contract cannot fuse it either.
#if defined(DDPKIT_VEC_X86)
#define DDPKIT_TARGET_AVX2 __attribute__((target("avx2")))
#define DDPKIT_TARGET_AVX512 __attribute__((target("avx512f")))
#endif

// ---------------------------------------------------------------------------
// Lanewise kernels. Each one is written once, as an Op: a struct whose
// Apply maps Lanes vectors to a Lanes vector with GCC vector arithmetic.
// MapLanes runs an Op over whole registers of the level's width, 16 bytes
// (the baseline ISA's register) at the scalar level, 32 for AVX2 and 64
// for AVX-512, and then over the tail one element at a time as Lanes<T, 1>,
// which GCC compiles to scalar instructions. An Apply uses only lanewise
// IEEE add, sub, mul, div and sqrt, lanewise compares and selects, and
// integer ops on the float bits, so lane i's result does not depend on the
// width and every level returns the same bits. Ops are always inlined into
// the level's target-attributed loop, which picks the instructions. A
// vector crosses a call only inside the Lanes struct, by reference or as a
// return, never as a bare wide vector, whose calling convention would
// depend on the target.
// ---------------------------------------------------------------------------

#define DDPKIT_LANES_INLINE inline __attribute__((always_inline))

/// kLanes elements of T, and the integer vector of the same width that
/// compares yield and bit operations run on.
template <typename T, int kLanes>
struct Lanes {
  using Int = std::conditional_t<sizeof(T) == 4, int32_t, int64_t>;
  typedef T F __attribute__((vector_size(sizeof(T) * kLanes)));
  typedef Int I __attribute__((vector_size(sizeof(T) * kLanes)));
  static constexpr int kCount = kLanes;
  F v;

  static DDPKIT_LANES_INLINE Lanes Load(const T* p) {
    Lanes l{};
    std::memcpy(&l.v, p, sizeof(l.v));
    return l;
  }
  DDPKIT_LANES_INLINE void Store(T* p) const { std::memcpy(p, &v, sizeof(v)); }
};

/// dst[i] = op.Apply(in[i]...) for i < n, kBytes at a time, then one
/// element at a time.
template <int kBytes, class Op, typename T, typename... In>
DDPKIT_LANES_INLINE void MapLanes(Op op, int64_t n, T* dst, const In*... in) {
  constexpr int kLanes = kBytes / static_cast<int>(sizeof(T));
  using L = Lanes<T, kLanes>;
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    op.Apply(L::Load(in + i)...).Store(dst + i);
  }
  for (; i < n; ++i) op.Apply(Lanes<T, 1>::Load(in + i)...).Store(dst + i);
}

// The arithmetic kernels, each in the operand order of the serial loop
// vec.h states for it.
struct AddOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a, const L& b) const {
    return {a.v + b.v};
  }
};
struct SubOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a, const L& b) const {
    return {a.v - b.v};
  }
};
struct MulOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a, const L& b) const {
    return {a.v * b.v};
  }
};
struct DivOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a, const L& b) const {
    return {a.v / b.v};
  }
};
// dst > src ? dst : src: a NaN on either side, or a tie of ±0, gives src.
struct MaxOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& dst, const L& src) const {
    return {dst.v > src.v ? dst.v : src.v};
  }
};
struct NegOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a) const {
    return {-a.v};
  }
};
// a > 0 ? a : 0, so −0 and NaN give +0.
struct ReluOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a) const {
    return {a.v > 0.0f ? a.v : typename L::F{}};
  }
};
struct ReluBackwardOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& g, const L& x) const {
    return {x.v > 0.0f ? g.v : typename L::F{}};
  }
};
// GCC has no vector sqrt operator; it turns this loop into the level's
// vector sqrt (vec.cc is built with -fno-math-errno, which lets it).
struct SqrtOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a) const {
    L r{};
    for (int i = 0; i < L::kCount; ++i) r.v[i] = __builtin_sqrtf(a.v[i]);
    return r;
  }
};
struct ScaleOp {
  float s;
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a) const {
    return {a.v * s};
  }
};
struct AddScalarOp {
  float s;
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& a) const {
    return {a.v + s};
  }
};
// y + alpha·x with the product rounded first (never fused).
struct AxpyOp {
  float alpha;
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& y, const L& x) const {
    return {y.v + alpha * x.v};
  }
};

// The transcendentals, in the same form. Coefficients are Cephes' expf,
// tanhf and logf.
constexpr int32_t kSignBit = INT32_MIN;

// e^x = 2^n · e^r with n = round(x / ln 2), by adding and subtracting
// 1.5·2^23, and r = x − n·ln 2 in two Cody-Waite steps (n·C1 is exact).
// e^r is a degree-7 polynomial. 2^n is built in the exponent bits as
// 2^(n/2) · 2^(n − n/2), two normal factors whose product rounds once, so
// results below 2^-126 underflow gradually. x is first clamped to
// [−112, 100], where e^x already rounds to +0 and +inf.
struct ExpOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& in) const {
    using F = typename L::F;
    using I = typename L::I;
    const F x = in.v;
    const F lo = F{} - 112.0f, hi = F{} + 100.0f;
    F xc = x > lo ? x : lo;  // NaN takes lo, so n stays in range
    xc = xc < hi ? xc : hi;
    const float kRound = 12582912.0f;  // 1.5·2^23
    const F t = xc * 1.44269504088896341f + kRound;
    const F nf = t - kRound;
    const I n = (I)t - 0x4b400000;  // minus the bits of 1.5·2^23
    F r = xc - nf * 0.693359375f;
    r = r - nf * -2.12194440e-4f;
    const F z = r * r;
    F p = 1.9875691500e-4f * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * z + r + 1.0f;
    const I n1 = n >> 1;
    const F scale1 = (F)((n1 + 127) << 23);
    const F scale2 = (F)((n - n1 + 127) << 23);
    const F y = p * scale1 * scale2;
    return {x != x ? x : y};
  }
};

// tanh|x| is 1 − 2/(e^{2|x|} + 1), which rounds to 1 from |x| ≈ 9.01 on,
// except below 0.625, where that form cancels and an odd polynomial takes
// over. The sign is x's, so tanh(−0) = −0.
struct TanhOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& in) const {
    using F = typename L::F;
    using I = typename L::I;
    const F x = in.v;
    const F z = (F)((I)x & ~kSignBit);
    const F s = ExpOp{}.Apply(L{z + z}).v;
    const F big = 1.0f - 2.0f / (s + 1.0f);
    const F z2 = z * z;
    F p = -5.70498872745e-3f * z2 + 2.06390887954e-2f;
    p = p * z2 - 5.37397155531e-2f;
    p = p * z2 + 1.33314422036e-1f;
    p = p * z2 - 3.33332819422e-1f;
    const F small = p * z2 * z + z;
    const F t = z < 0.625f ? small : big;
    const F y = (F)((I)t | ((I)x & kSignBit));
    return {x != x ? x : y};
  }
};

// ln x = e·ln 2 + ln(1 + m) for x = (1 + m)·2^e with 1 + m in [√½, √2):
// ln(1 + m) is m − m²/2 + m³·P(m) with P of degree 8, and ln 2 is split
// like exp's. A denormal x is scaled by 2^23 first.
struct LogOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& in) const {
    using F = typename L::F;
    using I = typename L::I;
    const F x = in.v;
    const I tiny = x < 1.17549435e-38f;  // below the smallest normal
    const I bits = (I)(tiny ? x * 8388608.0f : x);
    // m0 in [0.5, 1); where it is below √½, m is 2·m0 and e one lower.
    const F m0 = (F)((bits & 0x007fffff) | 0x3f000000);
    const I low = m0 < 0.707106781186547524f;
    const I e = ((bits >> 23) & 0xff) - 126 - (tiny & 23) + low;
    const F fe = __builtin_convertvector(e, F);
    const F m = (low ? m0 + m0 : m0) - 1.0f;
    const F z = m * m;
    F y = 7.0376836292e-2f * m - 1.1514610310e-1f;
    y = y * m + 1.1676998740e-1f;
    y = y * m - 1.2420140846e-1f;
    y = y * m + 1.4249322787e-1f;
    y = y * m - 1.6668057665e-1f;
    y = y * m + 2.0000714765e-1f;
    y = y * m - 2.4999993993e-1f;
    y = y * m + 3.3333331174e-1f;
    y = y * m * z;
    y = y + fe * -2.12194440e-4f;
    y = y - 0.5f * z;
    F r = m + y;
    r = r + fe * 0.693359375f;
    const F inf = F{} + __builtin_inff();
    r = x == 0.0f ? -inf : r;
    r = x < 0.0f ? F{} + __builtin_nanf("") : r;
    r = x == inf ? inf : r;
    return {x != x ? x : r};
  }
};

struct SigmoidOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& in) const {
    return {1.0f / (1.0f + ExpOp{}.Apply(L{-in.v}).v)};
  }
};

// The tanh-approximation GELU (BERT's) and its derivative times g, each in
// the operation order of the scalar formula it replaced.
constexpr float kGeluK = 0.7978845608028654f;  // √(2/π)

struct GeluOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& in) const {
    const typename L::F x = in.v;
    const typename L::F inner = kGeluK * (x + 0.044715f * x * x * x);
    return {0.5f * x * (1.0f + TanhOp{}.Apply(L{inner}).v)};
  }
};

struct GeluBackwardOp {
  template <class L>
  DDPKIT_LANES_INLINE L Apply(const L& g, const L& in) const {
    using F = typename L::F;
    const F x = in.v;
    const F x3 = x * x * x;
    const F inner = kGeluK * (x + 0.044715f * x3);
    const F t = TanhOp{}.Apply(L{inner}).v;
    const F sech2 = 1.0f - t * t;
    return {g.v * (0.5f * (1.0f + t) + 0.5f * x * sech2 * kGeluK *
                                           (1.0f + 3.0f * 0.044715f * x * x))};
  }
};

// One SGD step (the sequence is in vec.h) over the L::kCount elements from
// i, with MapLanes' loop shape. Weight decay and the momentum mode are
// template arguments, so each of the six loops below has no per-block
// branch.
enum class Momentum { kNone, kFirst, kLater };

template <class L, bool kDecay, Momentum kMomentum>
DDPKIT_LANES_INLINE void SgdBlock(float* p, const float* g, float* m,
                                  int64_t i, const SgdCoefficients& c) {
  const typename L::F pv = L::Load(p + i).v;
  typename L::F d = L::Load(g + i).v;
  if constexpr (kDecay) d = d + c.weight_decay * pv;
  if constexpr (kMomentum == Momentum::kLater) {
    d = L::Load(m + i).v * c.momentum + d;
  }
  if constexpr (kMomentum != Momentum::kNone) L{d}.Store(m + i);
  L{pv + c.neg_lr * d}.Store(p + i);
}

template <int kBytes, bool kDecay, Momentum kMomentum>
DDPKIT_LANES_INLINE void SgdLoop(float* p, const float* g, float* m,
                                 int64_t n, const SgdCoefficients& c) {
  constexpr int kLanes = kBytes / static_cast<int>(sizeof(float));
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    SgdBlock<Lanes<float, kLanes>, kDecay, kMomentum>(p, g, m, i, c);
  }
  for (; i < n; ++i) {
    SgdBlock<Lanes<float, 1>, kDecay, kMomentum>(p, g, m, i, c);
  }
}

template <int kBytes>
DDPKIT_LANES_INLINE void SgdLanes(float* p, const float* g, float* m,
                                  int64_t n, const SgdCoefficients& c) {
  const bool decay = c.weight_decay != 0.0f;
  if (m == nullptr) {
    decay ? SgdLoop<kBytes, true, Momentum::kNone>(p, g, m, n, c)
          : SgdLoop<kBytes, false, Momentum::kNone>(p, g, m, n, c);
  } else if (c.first_step) {
    decay ? SgdLoop<kBytes, true, Momentum::kFirst>(p, g, m, n, c)
          : SgdLoop<kBytes, false, Momentum::kFirst>(p, g, m, n, c);
  } else {
    decay ? SgdLoop<kBytes, true, Momentum::kLater>(p, g, m, n, c)
          : SgdLoop<kBytes, false, Momentum::kLater>(p, g, m, n, c);
  }
}

template <class Op, typename T, typename... In>
void MapScalarImpl(Op op, int64_t n, T* dst, const In*... in) {
  MapLanes<16>(op, n, dst, in...);
}
void SgdStepScalarImpl(float* p, const float* g, float* m, int64_t n,
                       const SgdCoefficients& c) {
  SgdLanes<16>(p, g, m, n, c);
}

// ---------------------------------------------------------------------------
// The kernels that are not lanewise maps keep a body per level: CountZeros
// (a popcount reduction), PackPanel (transposes) and MatMulTile (the
// register tile). These are their scalar bodies.
// ---------------------------------------------------------------------------

int64_t CountZerosScalarImpl(const float* a, int64_t n) {
  int64_t zeros = 0;
  for (int64_t i = 0; i < n; ++i) zeros += a[i] == 0.0f ? 1 : 0;
  return zeros;
}
void PackPanelScalarImpl(const float* b, int64_t ldb, int cols, int64_t k,
                         float* panel) {
  for (int64_t p = 0; p < k; ++p) {
    for (int c = 0; c < cols; ++c) panel[p * kTileCols + c] = b[c * ldb + p];
  }
}
// The scalar and AVX2 levels run the tile as register blocks of
// kBlockRows × kBlockCols; every lane keeps its own sequence whatever block
// it falls in.
constexpr int kBlockRows = 4;
constexpr int kBlockCols = 16;

template <class Block>
inline void ForEachBlock(int rows, int cols, Block block) {
  for (int c0 = 0; c0 < cols; c0 += kBlockCols) {
    for (int r0 = 0; r0 < rows; r0 += kBlockRows) {
      block(r0, std::min(kBlockRows, rows - r0), c0,
            std::min(kBlockCols, cols - c0));
    }
  }
}

// Kept out of line: inlined into the block loop it runs 20-25% slower.
[[gnu::noinline]] void MatMulBlockScalar(const float* a, int64_t a_row,
                                         int64_t a_p, int rows,
                                         const float* b, int64_t ldb,
                                         int64_t k, float* out, int64_t ldo,
                                         int cols, bool skip_zero) {
  using L = Lanes<float, kBlockCols>;
  const size_t row_bytes = static_cast<size_t>(cols) * sizeof(float);
  L acc[kBlockRows] = {};
  for (int64_t p = 0; p < k; ++p) {
    L bp{};
    std::memcpy(&bp.v, b + p * ldb, row_bytes);
    for (int r = 0; r < rows; ++r) {
      const float av = a[r * a_row + p * a_p];
      if (skip_zero && av == 0.0f) continue;
      acc[r].v = acc[r].v + av * bp.v;
    }
  }
  for (int r = 0; r < rows; ++r) {
    std::memcpy(out + r * ldo, &acc[r].v, row_bytes);
  }
}
void MatMulTileScalarImpl(const float* a, int64_t a_row, int64_t a_p,
                          int rows, const float* b, int64_t ldb, int64_t k,
                          float* out, int64_t ldo, int cols, bool skip_zero) {
  ForEachBlock(rows, cols, [&](int r0, int block_rows, int c0,
                               int block_cols) {
    MatMulBlockScalar(a + r0 * a_row, a_row, a_p, block_rows, b + c0, ldb, k,
                      out + r0 * ldo + c0, ldo, block_cols, skip_zero);
  });
}

#if defined(DDPKIT_VEC_X86)

// ---------------------------------------------------------------------------
// AVX2 kernels: 8 float / 4 double lanes per register.
// ---------------------------------------------------------------------------

template <class Op, typename T, typename... In>
DDPKIT_TARGET_AVX2 void MapAvx2(Op op, int64_t n, T* dst, const In*... in) {
  MapLanes<32>(op, n, dst, in...);
}
DDPKIT_TARGET_AVX2 void SgdStepAvx2(float* p, const float* g, float* m,
                                    int64_t n, const SgdCoefficients& c) {
  SgdLanes<32>(p, g, m, n, c);
}

DDPKIT_TARGET_AVX2 int64_t CountZerosAvx2(const float* a, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t zeros = 0;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 eq = _mm256_cmp_ps(_mm256_loadu_ps(a + i), zero, _CMP_EQ_OQ);
    zeros += __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(eq)));
  }
  return zeros + CountZerosScalarImpl(a + i, n - i);
}
// dst[i * kTileCols + c] = src[c * ld + i] for c, i < 8: one 8×8 block of
// B rows into eight columns of eight panel rows, in registers.
DDPKIT_TARGET_AVX2 void Transpose8x8Avx2(const float* src, int64_t ld,
                                         float* dst) {
  const __m256 r0 = _mm256_loadu_ps(src);
  const __m256 r1 = _mm256_loadu_ps(src + ld);
  const __m256 r2 = _mm256_loadu_ps(src + 2 * ld);
  const __m256 r3 = _mm256_loadu_ps(src + 3 * ld);
  const __m256 r4 = _mm256_loadu_ps(src + 4 * ld);
  const __m256 r5 = _mm256_loadu_ps(src + 5 * ld);
  const __m256 r6 = _mm256_loadu_ps(src + 6 * ld);
  const __m256 r7 = _mm256_loadu_ps(src + 7 * ld);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  // s{i} and s{4+i}: element i in the low 128 bits and element 4 + i in
  // the high 128 bits of rows 0-3 and rows 4-7.
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  _mm256_storeu_ps(dst + 0 * kTileCols, _mm256_permute2f128_ps(s0, s4, 0x20));
  _mm256_storeu_ps(dst + 1 * kTileCols, _mm256_permute2f128_ps(s1, s5, 0x20));
  _mm256_storeu_ps(dst + 2 * kTileCols, _mm256_permute2f128_ps(s2, s6, 0x20));
  _mm256_storeu_ps(dst + 3 * kTileCols, _mm256_permute2f128_ps(s3, s7, 0x20));
  _mm256_storeu_ps(dst + 4 * kTileCols, _mm256_permute2f128_ps(s0, s4, 0x31));
  _mm256_storeu_ps(dst + 5 * kTileCols, _mm256_permute2f128_ps(s1, s5, 0x31));
  _mm256_storeu_ps(dst + 6 * kTileCols, _mm256_permute2f128_ps(s2, s6, 0x31));
  _mm256_storeu_ps(dst + 7 * kTileCols, _mm256_permute2f128_ps(s3, s7, 0x31));
}
// Sixteen p at a time, each full group of eight panel columns goes through
// two transposes, so every panel row is written whole and each B row is
// read 64 bytes per visit (eight p per visit packed ~10% slower at
// k = 1024, where B's rows 4 KiB apart share one L1 set). The p tail
// (k % 16) and the columns past the last full group take the scalar body.
DDPKIT_TARGET_AVX2 void PackPanelAvx2(const float* b, int64_t ldb, int cols,
                                      int64_t k, float* panel) {
  const int grouped = cols / 8 * 8;
  int64_t p0 = 0;
  for (; grouped > 0 && p0 + 16 <= k; p0 += 16) {
    for (int c0 = 0; c0 < grouped; c0 += 8) {
      const float* src = b + c0 * ldb + p0;
      float* dst = panel + p0 * kTileCols + c0;
      Transpose8x8Avx2(src, ldb, dst);
      Transpose8x8Avx2(src + 8, ldb, dst + 8 * kTileCols);
    }
  }
  PackPanelScalarImpl(b + p0, ldb, grouped, k - p0, panel + p0 * kTileCols);
  PackPanelScalarImpl(b + grouped * ldb, ldb, cols - grouped, k,
                      panel + grouped);
}
// One term of a tile row: cl:ch += av · bl:bh, mul then add. With
// kSkipZero the product of a zero av is masked to +0, which leaves the
// accumulator unchanged (see the contract in vec.h).
template <bool kSkipZero>
DDPKIT_TARGET_AVX2 inline void AddTermAvx2(float av, __m256 bl, __m256 bh,
                                           __m256* cl, __m256* ch) {
  const __m256 x = _mm256_set1_ps(av);
  __m256 pl = _mm256_mul_ps(x, bl);
  __m256 ph = _mm256_mul_ps(x, bh);
  if constexpr (kSkipZero) {
    const __m256 keep = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_NEQ_UQ);
    pl = _mm256_and_ps(pl, keep);
    ph = _mm256_and_ps(ph, keep);
  }
  *cl = _mm256_add_ps(*cl, pl);
  *ch = _mm256_add_ps(*ch, ph);
}
// One kBlockRows × kBlockCols block in eight accumulators (4 rows × 2
// halves) of AVX2's sixteen registers. Rows past `rows` re-read row 0 and
// are never stored, so the loop body has no row branches.
template <bool kSkipZero>
DDPKIT_TARGET_AVX2 void MatMulBlockAvx2(const float* a, int64_t a_row,
                                        int64_t a_p, int rows, const float* b,
                                        int64_t ldb, int64_t k, float* out,
                                        int64_t ldo, int cols) {
  const float* a0 = a;
  const float* a1 = rows > 1 ? a + a_row : a;
  const float* a2 = rows > 2 ? a + 2 * a_row : a;
  const float* a3 = rows > 3 ? a + 3 * a_row : a;
  // Lane c of a half is loaded and stored iff c < cols - half offset.
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i ml = _mm256_cmpgt_epi32(_mm256_set1_epi32(cols), lane);
  const __m256i mh = _mm256_cmpgt_epi32(_mm256_set1_epi32(cols - 8), lane);
  __m256 c0l = _mm256_setzero_ps(), c0h = _mm256_setzero_ps();
  __m256 c1l = _mm256_setzero_ps(), c1h = _mm256_setzero_ps();
  __m256 c2l = _mm256_setzero_ps(), c2h = _mm256_setzero_ps();
  __m256 c3l = _mm256_setzero_ps(), c3h = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const __m256 bl = _mm256_maskload_ps(b + p * ldb, ml);
    const __m256 bh = _mm256_maskload_ps(b + p * ldb + 8, mh);
    const int64_t ap = p * a_p;
    AddTermAvx2<kSkipZero>(a0[ap], bl, bh, &c0l, &c0h);
    AddTermAvx2<kSkipZero>(a1[ap], bl, bh, &c1l, &c1h);
    AddTermAvx2<kSkipZero>(a2[ap], bl, bh, &c2l, &c2h);
    AddTermAvx2<kSkipZero>(a3[ap], bl, bh, &c3l, &c3h);
  }
  _mm256_maskstore_ps(out, ml, c0l);
  _mm256_maskstore_ps(out + 8, mh, c0h);
  if (rows > 1) {
    _mm256_maskstore_ps(out + ldo, ml, c1l);
    _mm256_maskstore_ps(out + ldo + 8, mh, c1h);
  }
  if (rows > 2) {
    _mm256_maskstore_ps(out + 2 * ldo, ml, c2l);
    _mm256_maskstore_ps(out + 2 * ldo + 8, mh, c2h);
  }
  if (rows > 3) {
    _mm256_maskstore_ps(out + 3 * ldo, ml, c3l);
    _mm256_maskstore_ps(out + 3 * ldo + 8, mh, c3h);
  }
}
template <bool kSkipZero>
void MatMulTileAvx2(const float* a, int64_t a_row, int64_t a_p, int rows,
                    const float* b, int64_t ldb, int64_t k, float* out,
                    int64_t ldo, int cols) {
  ForEachBlock(rows, cols, [&](int r0, int block_rows, int c0,
                               int block_cols) {
    MatMulBlockAvx2<kSkipZero>(a + r0 * a_row, a_row, a_p, block_rows,
                               b + c0, ldb, k, out + r0 * ldo + c0, ldo,
                               block_cols);
  });
}

// ---------------------------------------------------------------------------
// AVX-512 kernels: 16 float / 8 double lanes per register.
// ---------------------------------------------------------------------------

template <class Op, typename T, typename... In>
DDPKIT_TARGET_AVX512 void MapAvx512(Op op, int64_t n, T* dst,
                                    const In*... in) {
  MapLanes<64>(op, n, dst, in...);
}
DDPKIT_TARGET_AVX512 void SgdStepAvx512(float* p, const float* g, float* m,
                                        int64_t n, const SgdCoefficients& c) {
  SgdLanes<64>(p, g, m, n, c);
}

DDPKIT_TARGET_AVX512 int64_t CountZerosAvx512(const float* a, int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  int64_t zeros = 0;
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    zeros += __builtin_popcount(
        _mm512_cmp_ps_mask(_mm512_loadu_ps(a + i), zero, _CMP_EQ_OQ));
  }
  return zeros + CountZerosScalarImpl(a + i, n - i);
}
// acc[h] += av · bp[h] for the kHalves 16-lane halves of one tile row,
// mul then add. With kSkipZero the lanes of a zero av keep acc as it was:
// the term is skipped, not added.
template <bool kSkipZero, int kHalves>
DDPKIT_TARGET_AVX512 inline void AddTermAvx512(float av, const __m512* bp,
                                               __m512* acc) {
  const __m512 x = _mm512_set1_ps(av);
  if constexpr (kSkipZero) {
    const __mmask16 keep =
        _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_NEQ_UQ);
#pragma GCC unroll 2
    for (int h = 0; h < kHalves; ++h) {
      acc[h] = _mm512_mask_add_ps(acc[h], keep, acc[h],
                                  _mm512_mul_ps(x, bp[h]));
    }
  } else {
#pragma GCC unroll 2
    for (int h = 0; h < kHalves; ++h) {
      acc[h] = _mm512_add_ps(acc[h], _mm512_mul_ps(x, bp[h]));
    }
  }
}
// kTileRows rows of kHalves registers: at kHalves = 2, sixteen
// independent add chains fed by two B loads and eight A broadcasts per p,
// enough to keep the mul and add units busy through the add latency.
// Rows past `rows` re-read row 0 and are never stored, so the loop body
// has no row branches.
template <bool kSkipZero, int kHalves>
DDPKIT_TARGET_AVX512 void MatMulTileAvx512Body(const float* a, int64_t a_row,
                                               int64_t a_p, int rows,
                                               const float* b, int64_t ldb,
                                               int64_t k, float* out,
                                               int64_t ldo, int cols) {
  const float* ar[kTileRows];
#pragma GCC unroll 8
  for (int r = 0; r < kTileRows; ++r) ar[r] = r < rows ? a + r * a_row : a;
  // Lanes past `cols` are neither loaded nor stored.
  __mmask16 mask[kHalves];
#pragma GCC unroll 2
  for (int h = 0; h < kHalves; ++h) {
    const int lanes = std::clamp(cols - 16 * h, 0, 16);
    mask[h] = static_cast<__mmask16>((1u << lanes) - 1u);
  }
  __m512 acc[kTileRows][kHalves];
#pragma GCC unroll 8
  for (int r = 0; r < kTileRows; ++r) {
#pragma GCC unroll 2
    for (int h = 0; h < kHalves; ++h) acc[r][h] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    __m512 bp[kHalves];
#pragma GCC unroll 2
    for (int h = 0; h < kHalves; ++h) {
      bp[h] = _mm512_maskz_loadu_ps(mask[h], b + p * ldb + 16 * h);
    }
    const int64_t ap = p * a_p;
#pragma GCC unroll 8
    for (int r = 0; r < kTileRows; ++r) {
      AddTermAvx512<kSkipZero, kHalves>(ar[r][ap], bp, acc[r]);
    }
  }
  // Unrolled with a branch per row, so acc stays in registers.
#pragma GCC unroll 8
  for (int r = 0; r < kTileRows; ++r) {
    if (r >= rows) break;
#pragma GCC unroll 2
    for (int h = 0; h < kHalves; ++h) {
      _mm512_mask_storeu_ps(out + r * ldo + 16 * h, mask[h], acc[r][h]);
    }
  }
}
// A tile of 16 or fewer columns runs the one-register-per-row body.
template <bool kSkipZero>
void MatMulTileAvx512(const float* a, int64_t a_row, int64_t a_p, int rows,
                      const float* b, int64_t ldb, int64_t k, float* out,
                      int64_t ldo, int cols) {
  (cols > 16 ? MatMulTileAvx512Body<kSkipZero, 2>
             : MatMulTileAvx512Body<kSkipZero, 1>)(a, a_row, a_p, rows, b,
                                                   ldb, k, out, ldo, cols);
}

#endif  // DDPKIT_VEC_X86

// ---------------------------------------------------------------------------
// Level detection + dispatch state.
// ---------------------------------------------------------------------------

Level DetectHardwareLevel() {
#if defined(DDPKIT_VEC_X86)
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level ClampToEnv(Level hw) {
  // Startup-only env read; the result is a process-wide constant, and every
  // level is bit-exact anyway, so this cannot make a run irreproducible.
  const char* env = std::getenv("DDPKIT_SIMD");
  if (env == nullptr) return hw;
  const std::string_view want(env);
  Level requested = hw;
  if (want == "scalar") {
    requested = Level::kScalar;
  } else if (want == "avx2") {
    requested = Level::kAvx2;
  } else if (want == "avx512") {
    requested = Level::kAvx512;
  } else {
    DDPKIT_LOG(Warning) << "DDPKIT_SIMD=" << want
                        << " is not one of scalar, avx2, avx512; running at "
                        << LevelName(hw);
  }
  return requested <= hw ? requested : hw;
}

std::atomic<Level>& ActiveLevelState() {
  static std::atomic<Level> level{DetectedLevel()};
  return level;
}

// ---------------------------------------------------------------------------
// Dispatch. The switch costs one predictable branch per batch call —
// negligible against the loops it guards, and it keeps SetLevelForTesting
// effective without a rebindable function table.
// ---------------------------------------------------------------------------

#if defined(DDPKIT_VEC_X86)
#define DDPKIT_VEC_DISPATCH(avx512_call, avx2_call, scalar_call) \
  do {                                                           \
    switch (ActiveLevel()) {                                     \
      case Level::kAvx512:                                       \
        avx512_call;                                             \
        break;                                                   \
      case Level::kAvx2:                                         \
        avx2_call;                                               \
        break;                                                   \
      case Level::kScalar:                                       \
        scalar_call;                                             \
        break;                                                   \
    }                                                            \
  } while (0)
#else
#define DDPKIT_VEC_DISPATCH(avx512_call, avx2_call, scalar_call) \
  do {                                                           \
    scalar_call;                                                 \
  } while (0)
#endif

/// dst[i] = op.Apply(in[i]...) for i < n at the active level.
template <class Op, typename T, typename... In>
void Map(Op op, int64_t n, T* dst, const In*... in) {
  DDPKIT_VEC_DISPATCH(MapAvx512(op, n, dst, in...), MapAvx2(op, n, dst, in...),
                      MapScalarImpl(op, n, dst, in...));
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Level DetectedLevel() {
  static const Level detected = ClampToEnv(DetectHardwareLevel());
  return detected;
}

Level ActiveLevel() {
  return ActiveLevelState().load(std::memory_order_relaxed);
}

Level SetLevelForTesting(Level level) {
  const Level clamped = level <= DetectedLevel() ? level : DetectedLevel();
  ActiveLevelState().store(clamped, std::memory_order_relaxed);
  return clamped;
}

void Add(const float* a, const float* b, float* dst, int64_t n) {
  Map(AddOp{}, n, dst, a, b);
}
void Sub(const float* a, const float* b, float* dst, int64_t n) {
  Map(SubOp{}, n, dst, a, b);
}
void Mul(const float* a, const float* b, float* dst, int64_t n) {
  Map(MulOp{}, n, dst, a, b);
}
void Div(const float* a, const float* b, float* dst, int64_t n) {
  Map(DivOp{}, n, dst, a, b);
}
void Scale(const float* a, float s, float* dst, int64_t n) {
  Map(ScaleOp{s}, n, dst, a);
}
void AddScalar(const float* a, float s, float* dst, int64_t n) {
  Map(AddScalarOp{s}, n, dst, a);
}
void Neg(const float* a, float* dst, int64_t n) { Map(NegOp{}, n, dst, a); }
void Relu(const float* a, float* dst, int64_t n) { Map(ReluOp{}, n, dst, a); }
void ReluBackward(const float* g, const float* x, float* dst, int64_t n) {
  Map(ReluBackwardOp{}, n, dst, g, x);
}
void Sqrt(const float* a, float* dst, int64_t n) { Map(SqrtOp{}, n, dst, a); }
void Exp(const float* a, float* dst, int64_t n) { Map(ExpOp{}, n, dst, a); }
void Tanh(const float* a, float* dst, int64_t n) { Map(TanhOp{}, n, dst, a); }
void Log(const float* a, float* dst, int64_t n) { Map(LogOp{}, n, dst, a); }
void Sigmoid(const float* a, float* dst, int64_t n) {
  Map(SigmoidOp{}, n, dst, a);
}
void Gelu(const float* a, float* dst, int64_t n) { Map(GeluOp{}, n, dst, a); }
void GeluBackward(const float* g, const float* x, float* dst, int64_t n) {
  Map(GeluBackwardOp{}, n, dst, g, x);
}
void Axpy(float alpha, const float* x, float* y, int64_t n) {
  Map(AxpyOp{alpha}, n, y, y, x);
}
void ScaleInPlace(float* y, float s, int64_t n) { Map(ScaleOp{s}, n, y, y); }
void AccumulateAdd(float* dst, const float* src, int64_t n) {
  Map(AddOp{}, n, dst, dst, src);
}
void AccumulateMax(float* dst, const float* src, int64_t n) {
  Map(MaxOp{}, n, dst, dst, src);
}
void AccumulateAdd(double* dst, const double* src, int64_t n) {
  Map(AddOp{}, n, dst, dst, src);
}
void AccumulateMax(double* dst, const double* src, int64_t n) {
  Map(MaxOp{}, n, dst, dst, src);
}

void SgdStep(float* p, const float* g, float* m, int64_t n,
             const SgdCoefficients& c) {
  DDPKIT_VEC_DISPATCH(SgdStepAvx512(p, g, m, n, c), SgdStepAvx2(p, g, m, n, c),
                      SgdStepScalarImpl(p, g, m, n, c));
}
int64_t CountZeros(const float* a, int64_t n) {
  int64_t zeros = 0;
  DDPKIT_VEC_DISPATCH(zeros = CountZerosAvx512(a, n),
                      zeros = CountZerosAvx2(a, n),
                      zeros = CountZerosScalarImpl(a, n));
  return zeros;
}
void PackPanel(const float* b, int64_t ldb, int cols, int64_t k,
               float* panel) {
  // The transposes are shuffle-bound and B streams from memory, so 256-bit
  // registers already reach copy speed; AVX-512 reuses the AVX2 body.
  DDPKIT_VEC_DISPATCH(PackPanelAvx2(b, ldb, cols, k, panel),
                      PackPanelAvx2(b, ldb, cols, k, panel),
                      PackPanelScalarImpl(b, ldb, cols, k, panel));
}
void MatMulTile(const float* a, int64_t a_row, int64_t a_p, int rows,
                const float* b, int64_t ldb, int64_t k, float* out,
                int64_t ldo, int cols, bool skip_zero) {
  DDPKIT_VEC_DISPATCH(
      (skip_zero ? MatMulTileAvx512<true> : MatMulTileAvx512<false>)(
          a, a_row, a_p, rows, b, ldb, k, out, ldo, cols),
      (skip_zero ? MatMulTileAvx2<true> : MatMulTileAvx2<false>)(
          a, a_row, a_p, rows, b, ldb, k, out, ldo, cols),
      MatMulTileScalarImpl(a, a_row, a_p, rows, b, ldb, k, out, ldo, cols,
                           skip_zero));
}

#undef DDPKIT_VEC_DISPATCH

}  // namespace ddpkit::vec
