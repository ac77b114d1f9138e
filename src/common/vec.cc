#include "common/vec.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define DDPKIT_VEC_X86 1
#include <immintrin.h>
#endif

namespace ddpkit::vec {
namespace {

// Target attributes deliberately request only the base ISA sets (no "fma"):
// the kernels below must emit separate mul and add instructions so their
// rounding matches the scalar fallback bit-for-bit (see the contract in
// vec.h). The x86-64 baseline the scalar path compiles against has no FMA
// instruction, so -ffp-contract cannot fuse it either.
#if defined(DDPKIT_VEC_X86)
#define DDPKIT_TARGET_AVX2 __attribute__((target("avx2")))
#define DDPKIT_TARGET_AVX512 __attribute__((target("avx512f")))
#endif

// ---------------------------------------------------------------------------
// Scalar kernels, written over Vec<T,N> so the fallback exercises the same
// fixed-width shape the intrinsic paths use (N=8 matches one AVX2 float
// register). The compiler is free to auto-vectorize these at the baseline
// ISA; correctness never depends on whether it does.
// ---------------------------------------------------------------------------

template <typename T, typename LaneFn>
void ScalarLanewise2(const T* a, const T* b, T* dst, int64_t n, LaneFn fn) {
  using V = Vec<T, 8>;
  int64_t i = 0;
  for (; i + V::size() <= n; i += V::size()) {
    fn(V::Load(a + i), V::Load(b + i)).Store(dst + i);
  }
  for (; i < n; ++i) {
    V va = V::Broadcast(a[i]);
    V vb = V::Broadcast(b[i]);
    dst[i] = fn(va, vb).lane[0];
  }
}

template <typename T, typename LaneFn>
void ScalarLanewise1(const T* a, T* dst, int64_t n, LaneFn fn) {
  using V = Vec<T, 8>;
  int64_t i = 0;
  for (; i + V::size() <= n; i += V::size()) {
    fn(V::Load(a + i)).Store(dst + i);
  }
  for (; i < n; ++i) {
    dst[i] = fn(V::Broadcast(a[i])).lane[0];
  }
}

void AddScalarImpl(const float* a, const float* b, float* dst, int64_t n) {
  ScalarLanewise2(a, b, dst, n, [](auto x, auto y) { return x + y; });
}
void SubScalarImpl(const float* a, const float* b, float* dst, int64_t n) {
  ScalarLanewise2(a, b, dst, n, [](auto x, auto y) { return x - y; });
}
void MulScalarImpl(const float* a, const float* b, float* dst, int64_t n) {
  ScalarLanewise2(a, b, dst, n, [](auto x, auto y) { return x * y; });
}
void DivScalarImpl(const float* a, const float* b, float* dst, int64_t n) {
  ScalarLanewise2(a, b, dst, n, [](auto x, auto y) { return x / y; });
}

void ScaleScalarImpl(const float* a, float s, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] * s;
}
void AddScalarScalarImpl(const float* a, float s, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] + s;
}
void NegScalarImpl(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = -a[i];
}
void ReluScalarImpl(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
void ReluBackwardScalarImpl(const float* g, const float* x, float* dst,
                            int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = x[i] > 0.0f ? g[i] : 0.0f;
}
void SqrtScalarImpl(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = __builtin_sqrtf(a[i]);
}
void AxpyScalarImpl(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float prod = alpha * x[i];
    y[i] = y[i] + prod;
  }
}
void ScaleInPlaceScalarImpl(float* y, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = y[i] * s;
}
void AccumAddF32ScalarImpl(float* dst, const float* src, int64_t n) {
  ScalarLanewise2<float>(dst, src, dst, n,
                         [](auto x, auto y) { return x + y; });
}
void AccumMaxF32ScalarImpl(float* dst, const float* src, int64_t n) {
  ScalarLanewise2<float>(dst, src, dst, n, [](auto x, auto y) {
    return decltype(x)::Max(x, y);
  });
}
void AccumAddF64ScalarImpl(double* dst, const double* src, int64_t n) {
  ScalarLanewise2<double>(dst, src, dst, n,
                          [](auto x, auto y) { return x + y; });
}
void AccumMaxF64ScalarImpl(double* dst, const double* src, int64_t n) {
  ScalarLanewise2<double>(dst, src, dst, n, [](auto x, auto y) {
    return decltype(x)::Max(x, y);
  });
}
void PackPanelScalarImpl(const float* b, int64_t ldb, int cols, int64_t k,
                         float* panel) {
  for (int64_t p = 0; p < k; ++p) {
    for (int c = 0; c < kTileCols; ++c) {
      panel[p * kTileCols + c] = c < cols ? b[c * ldb + p] : 0.0f;
    }
  }
}
void MatMulTransBTileScalarImpl(const float* a, int64_t lda, int rows,
                                const float* panel, int64_t k, float* out,
                                int64_t ldo, int cols) {
  using V = Vec<float, kTileCols>;
  V acc[kTileRows];
  for (V& v : acc) v = V::Broadcast(0.0f);
  for (int64_t p = 0; p < k; ++p) {
    const V bp = V::Load(panel + p * kTileCols);
    for (int r = 0; r < rows; ++r) {
      acc[r] = acc[r] + V::Broadcast(a[r * lda + p]) * bp;
    }
  }
  for (int r = 0; r < rows; ++r) {
    std::memcpy(out + r * ldo, acc[r].lane,
                static_cast<size_t>(cols) * sizeof(float));
  }
}

#if defined(DDPKIT_VEC_X86)

// ---------------------------------------------------------------------------
// AVX2 kernels: 8 float / 4 double lanes per register.
// ---------------------------------------------------------------------------

DDPKIT_TARGET_AVX2 void AddAvx2(const float* a, const float* b, float* dst,
                                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}
DDPKIT_TARGET_AVX2 void SubAvx2(const float* a, const float* b, float* dst,
                                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}
DDPKIT_TARGET_AVX2 void MulAvx2(const float* a, const float* b, float* dst,
                                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] * b[i];
}
DDPKIT_TARGET_AVX2 void DivAvx2(const float* a, const float* b, float* dst,
                                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_div_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] / b[i];
}
DDPKIT_TARGET_AVX2 void ScaleAvx2(const float* a, float s, float* dst,
                                  int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) dst[i] = a[i] * s;
}
DDPKIT_TARGET_AVX2 void AddScalarAvx2(const float* a, float s, float* dst,
                                      int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) dst[i] = a[i] + s;
}
DDPKIT_TARGET_AVX2 void NegAvx2(const float* a, float* dst, int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_xor_ps(_mm256_loadu_ps(a + i), sign));
  }
  for (; i < n; ++i) dst[i] = -a[i];
}
DDPKIT_TARGET_AVX2 void ReluAvx2(const float* a, float* dst, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max(a, +0.0) maps -0.0 inputs to +0.0, matching `a > 0 ? a : 0`.
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) dst[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
DDPKIT_TARGET_AVX2 void ReluBackwardAvx2(const float* g, const float* x,
                                         float* dst, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(dst + i, _mm256_and_ps(_mm256_loadu_ps(g + i), mask));
  }
  for (; i < n; ++i) dst[i] = x[i] > 0.0f ? g[i] : 0.0f;
}
DDPKIT_TARGET_AVX2 void SqrtAvx2(const float* a, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_sqrt_ps(_mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) dst[i] = __builtin_sqrtf(a[i]);
}
DDPKIT_TARGET_AVX2 void AxpyAvx2(float alpha, const float* x, float* y,
                                 int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) {
    const float prod = alpha * x[i];
    y[i] = y[i] + prod;
  }
}
DDPKIT_TARGET_AVX2 void ScaleInPlaceAvx2(float* y, float s, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), vs));
  }
  for (; i < n; ++i) y[i] = y[i] * s;
}
DDPKIT_TARGET_AVX2 void AccumAddF32Avx2(float* dst, const float* src,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] + src[i];
}
DDPKIT_TARGET_AVX2 void AccumMaxF32Avx2(float* dst, const float* src,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // maxps returns its second operand on unordered or equal compares, and
    // the scalar `dst > src ? dst : src` yields src in exactly those cases
    // (NaN anywhere, or ±0.0 ties) — so src must be the second operand.
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}
DDPKIT_TARGET_AVX2 void AccumAddF64Avx2(double* dst, const double* src,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] + src[i];
}
DDPKIT_TARGET_AVX2 void AccumMaxF64Avx2(double* dst, const double* src,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_max_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
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
// Full panels go eight p at a time through two transposes, one per panel
// half. The p tail (k % 8) and a partial panel (the last strip when B's
// row count is not a multiple of kTileCols) take the scalar body.
DDPKIT_TARGET_AVX2 void PackPanelAvx2(const float* b, int64_t ldb, int cols,
                                      int64_t k, float* panel) {
  int64_t p0 = 0;
  for (; cols == kTileCols && p0 + 8 <= k; p0 += 8) {
    Transpose8x8Avx2(b + p0, ldb, panel + p0 * kTileCols);
    Transpose8x8Avx2(b + 8 * ldb + p0, ldb, panel + p0 * kTileCols + 8);
  }
  PackPanelScalarImpl(b + p0, ldb, cols, k - p0, panel + p0 * kTileCols);
}
// Eight accumulators (4 rows × 2 halves). Rows past `rows` re-read row 0
// and are never stored, so the loop body has no row branches.
DDPKIT_TARGET_AVX2 void MatMulTransBTileAvx2(const float* a, int64_t lda,
                                             int rows, const float* panel,
                                             int64_t k, float* out,
                                             int64_t ldo, int cols) {
  const float* a0 = a;
  const float* a1 = rows > 1 ? a + lda : a;
  const float* a2 = rows > 2 ? a + 2 * lda : a;
  const float* a3 = rows > 3 ? a + 3 * lda : a;
  __m256 c0l = _mm256_setzero_ps(), c0h = _mm256_setzero_ps();
  __m256 c1l = _mm256_setzero_ps(), c1h = _mm256_setzero_ps();
  __m256 c2l = _mm256_setzero_ps(), c2h = _mm256_setzero_ps();
  __m256 c3l = _mm256_setzero_ps(), c3h = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const __m256 bl = _mm256_loadu_ps(panel + p * kTileCols);
    const __m256 bh = _mm256_loadu_ps(panel + p * kTileCols + 8);
    __m256 x = _mm256_set1_ps(a0[p]);
    c0l = _mm256_add_ps(c0l, _mm256_mul_ps(x, bl));
    c0h = _mm256_add_ps(c0h, _mm256_mul_ps(x, bh));
    x = _mm256_set1_ps(a1[p]);
    c1l = _mm256_add_ps(c1l, _mm256_mul_ps(x, bl));
    c1h = _mm256_add_ps(c1h, _mm256_mul_ps(x, bh));
    x = _mm256_set1_ps(a2[p]);
    c2l = _mm256_add_ps(c2l, _mm256_mul_ps(x, bl));
    c2h = _mm256_add_ps(c2h, _mm256_mul_ps(x, bh));
    x = _mm256_set1_ps(a3[p]);
    c3l = _mm256_add_ps(c3l, _mm256_mul_ps(x, bl));
    c3h = _mm256_add_ps(c3h, _mm256_mul_ps(x, bh));
  }
  // Lane c of a half is stored iff c < cols - half offset.
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i ml = _mm256_cmpgt_epi32(_mm256_set1_epi32(cols), lane);
  const __m256i mh = _mm256_cmpgt_epi32(_mm256_set1_epi32(cols - 8), lane);
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

// ---------------------------------------------------------------------------
// AVX-512 kernels: 16 float / 8 double lanes per register. Only the
// bandwidth-bound accumulate/copy/axpy family and the compute-bound
// A·Bᵀ tile get dedicated 512-bit bodies; the rest reuse the AVX2 bodies
// at this level (same bit-exact results, and 256-bit ops avoid
// license-based downclocking on older parts for the short kernels).
// ---------------------------------------------------------------------------

DDPKIT_TARGET_AVX512 void AddAvx512(const float* a, const float* b, float* dst,
                                    int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(a + i),
                                            _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}
DDPKIT_TARGET_AVX512 void MulAvx512(const float* a, const float* b, float* dst,
                                    int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_mul_ps(_mm512_loadu_ps(a + i),
                                            _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] * b[i];
}
DDPKIT_TARGET_AVX512 void AxpyAvx512(float alpha, const float* x, float* y,
                                     int64_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 prod = _mm512_mul_ps(va, _mm512_loadu_ps(x + i));
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) {
    const float prod = alpha * x[i];
    y[i] = y[i] + prod;
  }
}
DDPKIT_TARGET_AVX512 void AccumAddF32Avx512(float* dst, const float* src,
                                            int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] + src[i];
}
DDPKIT_TARGET_AVX512 void AccumMaxF32Avx512(float* dst, const float* src,
                                            int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_max_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}
DDPKIT_TARGET_AVX512 void AccumAddF64Avx512(double* dst, const double* src,
                                            int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] + src[i];
}
DDPKIT_TARGET_AVX512 void AccumMaxF64Avx512(double* dst, const double* src,
                                            int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_max_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}
// One register per tile row. Four independent add chains cover the add
// latency, so the loop runs at the two vector ports' mul+add throughput.
DDPKIT_TARGET_AVX512 void MatMulTransBTileAvx512(const float* a, int64_t lda,
                                                 int rows, const float* panel,
                                                 int64_t k, float* out,
                                                 int64_t ldo, int cols) {
  const float* a0 = a;
  const float* a1 = rows > 1 ? a + lda : a;
  const float* a2 = rows > 2 ? a + 2 * lda : a;
  const float* a3 = rows > 3 ? a + 3 * lda : a;
  __m512 c0 = _mm512_setzero_ps(), c1 = _mm512_setzero_ps();
  __m512 c2 = _mm512_setzero_ps(), c3 = _mm512_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const __m512 bp = _mm512_loadu_ps(panel + p * kTileCols);
    c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(a0[p]), bp));
    c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(a1[p]), bp));
    c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(a2[p]), bp));
    c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(a3[p]), bp));
  }
  const __mmask16 mask = static_cast<__mmask16>((1u << cols) - 1u);
  _mm512_mask_storeu_ps(out, mask, c0);
  if (rows > 1) _mm512_mask_storeu_ps(out + ldo, mask, c1);
  if (rows > 2) _mm512_mask_storeu_ps(out + 2 * ldo, mask, c2);
  if (rows > 3) _mm512_mask_storeu_ps(out + 3 * ldo, mask, c3);
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
  }
  return requested <= hw ? requested : hw;
}

std::atomic<Level>& ActiveLevelState() {
  static std::atomic<Level> level{ClampToEnv(DetectHardwareLevel())};
  return level;
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

// ---------------------------------------------------------------------------
// Dispatched entry points. The switch costs one predictable branch per
// batch call — negligible against the loops it guards, and it keeps
// SetLevelForTesting effective without a rebindable function table.
// ---------------------------------------------------------------------------

#if defined(DDPKIT_VEC_X86)
#define DDPKIT_VEC_DISPATCH(avx512_call, avx2_call, scalar_call) \
  do {                                                           \
    switch (ActiveLevel()) {                                     \
      case Level::kAvx512:                                       \
        avx512_call;                                             \
        return;                                                  \
      case Level::kAvx2:                                         \
        avx2_call;                                               \
        return;                                                  \
      case Level::kScalar:                                       \
        break;                                                   \
    }                                                            \
    scalar_call;                                                 \
  } while (0)
#else
#define DDPKIT_VEC_DISPATCH(avx512_call, avx2_call, scalar_call) \
  do {                                                           \
    scalar_call;                                                 \
  } while (0)
#endif

void Add(const float* a, const float* b, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(AddAvx512(a, b, dst, n), AddAvx2(a, b, dst, n),
                      AddScalarImpl(a, b, dst, n));
}
void Sub(const float* a, const float* b, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(SubAvx2(a, b, dst, n), SubAvx2(a, b, dst, n),
                      SubScalarImpl(a, b, dst, n));
}
void Mul(const float* a, const float* b, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(MulAvx512(a, b, dst, n), MulAvx2(a, b, dst, n),
                      MulScalarImpl(a, b, dst, n));
}
void Div(const float* a, const float* b, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(DivAvx2(a, b, dst, n), DivAvx2(a, b, dst, n),
                      DivScalarImpl(a, b, dst, n));
}
void Scale(const float* a, float s, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(ScaleAvx2(a, s, dst, n), ScaleAvx2(a, s, dst, n),
                      ScaleScalarImpl(a, s, dst, n));
}
void AddScalar(const float* a, float s, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(AddScalarAvx2(a, s, dst, n), AddScalarAvx2(a, s, dst, n),
                      AddScalarScalarImpl(a, s, dst, n));
}
void Neg(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(NegAvx2(a, dst, n), NegAvx2(a, dst, n),
                      NegScalarImpl(a, dst, n));
}
void Relu(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(ReluAvx2(a, dst, n), ReluAvx2(a, dst, n),
                      ReluScalarImpl(a, dst, n));
}
void ReluBackward(const float* g, const float* x, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(ReluBackwardAvx2(g, x, dst, n),
                      ReluBackwardAvx2(g, x, dst, n),
                      ReluBackwardScalarImpl(g, x, dst, n));
}
void Sqrt(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(SqrtAvx2(a, dst, n), SqrtAvx2(a, dst, n),
                      SqrtScalarImpl(a, dst, n));
}
void Axpy(float alpha, const float* x, float* y, int64_t n) {
  DDPKIT_VEC_DISPATCH(AxpyAvx512(alpha, x, y, n), AxpyAvx2(alpha, x, y, n),
                      AxpyScalarImpl(alpha, x, y, n));
}
void ScaleInPlace(float* y, float s, int64_t n) {
  DDPKIT_VEC_DISPATCH(ScaleInPlaceAvx2(y, s, n), ScaleInPlaceAvx2(y, s, n),
                      ScaleInPlaceScalarImpl(y, s, n));
}
void AccumulateAdd(float* dst, const float* src, int64_t n) {
  DDPKIT_VEC_DISPATCH(AccumAddF32Avx512(dst, src, n),
                      AccumAddF32Avx2(dst, src, n),
                      AccumAddF32ScalarImpl(dst, src, n));
}
void AccumulateMax(float* dst, const float* src, int64_t n) {
  DDPKIT_VEC_DISPATCH(AccumMaxF32Avx512(dst, src, n),
                      AccumMaxF32Avx2(dst, src, n),
                      AccumMaxF32ScalarImpl(dst, src, n));
}
void AccumulateAdd(double* dst, const double* src, int64_t n) {
  DDPKIT_VEC_DISPATCH(AccumAddF64Avx512(dst, src, n),
                      AccumAddF64Avx2(dst, src, n),
                      AccumAddF64ScalarImpl(dst, src, n));
}
void AccumulateMax(double* dst, const double* src, int64_t n) {
  DDPKIT_VEC_DISPATCH(AccumMaxF64Avx512(dst, src, n),
                      AccumMaxF64Avx2(dst, src, n),
                      AccumMaxF64ScalarImpl(dst, src, n));
}

void PackPanel(const float* b, int64_t ldb, int cols, int64_t k,
               float* panel) {
  // The transposes are shuffle-bound and B streams from memory, so 256-bit
  // registers already reach copy speed; AVX-512 reuses the AVX2 body.
  DDPKIT_VEC_DISPATCH(PackPanelAvx2(b, ldb, cols, k, panel),
                      PackPanelAvx2(b, ldb, cols, k, panel),
                      PackPanelScalarImpl(b, ldb, cols, k, panel));
}
void MatMulTransBTile(const float* a, int64_t lda, int rows,
                      const float* panel, int64_t k, float* out, int64_t ldo,
                      int cols) {
  DDPKIT_VEC_DISPATCH(
      MatMulTransBTileAvx512(a, lda, rows, panel, k, out, ldo, cols),
      MatMulTransBTileAvx2(a, lda, rows, panel, k, out, ldo, cols),
      MatMulTransBTileScalarImpl(a, lda, rows, panel, k, out, ldo, cols));
}

#undef DDPKIT_VEC_DISPATCH

}  // namespace ddpkit::vec
