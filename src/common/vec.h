#ifndef DDPKIT_COMMON_VEC_H_
#define DDPKIT_COMMON_VEC_H_

#include <cstdint>
#include <cstring>

namespace ddpkit::vec {

/// Portable SIMD layer for the elementwise hot paths (tensor kernels, the
/// all-reduce combine loops, the Reducer's bucket copies), modeled on
/// ATen's cpu/vec Vectorized<T> idiom: a fixed-width value type `Vec<T,N>`
/// plus batch entry points that runtime-dispatch to AVX-512, AVX2 or a
/// scalar loop depending on what the host CPU supports.
///
/// Bit-exactness contract
/// ----------------------
/// Every batch helper below performs only *lanewise* IEEE-754 operations —
/// add, sub, mul, div, max, sqrt — which are correctly rounded at every
/// vector width, and no implementation ever emits a fused multiply-add
/// (Axpy is an explicit mul-then-add at all levels; the x86-64 baseline has
/// no FMA instruction, so the scalar fallback cannot contract either).
/// Element i of the output therefore has the same bit pattern no matter
/// which Level executes the call. Combined with ParallelFor's thread-count-
/// independent chunking this means the SIMD dispatch can never perturb a
/// deterministic run: results are identical across machines with different
/// ISA extensions, across DDPKIT_SIMD overrides, and across pool sizes.
/// A reduction is offered only when each lane owns one output and runs
/// that output's serial order unchanged (MatMulTransBTile: lane c sums
/// its p terms in ascending p, exactly like the scalar loop). Reductions
/// that reassociate — splitting one sum across lanes, then folding the
/// lanes — are deliberately NOT offered; use ParallelReduce's chunked
/// combine for those.

// ---------------------------------------------------------------------------
// Dispatch levels.
// ---------------------------------------------------------------------------

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* LevelName(Level level);

/// Highest level the host CPU supports, clamped by the DDPKIT_SIMD
/// environment variable ("scalar" | "avx2" | "avx512") when set. Computed
/// once per process.
Level DetectedLevel();

/// Level the batch helpers currently dispatch to (DetectedLevel() unless a
/// test overrode it).
Level ActiveLevel();

/// Test/bench escape hatch: force a dispatch level at or below
/// DetectedLevel() (requests above the hardware's capability clamp down).
/// Returns the level actually installed. Not intended for concurrent use
/// with in-flight kernels.
Level SetLevelForTesting(Level level);

// ---------------------------------------------------------------------------
// Vec<T, N>: the fixed-width value type. This generic definition is the
// scalar fallback (an N-lane array with lanewise operators); the AVX2 and
// AVX-512 batch implementations in vec.cc use the intrinsic registers
// directly inside target-attributed functions, with identical lanewise
// semantics. N = 8 floats matches one AVX2 register; N = 16 one AVX-512
// register.
// ---------------------------------------------------------------------------

template <typename T, int N>
struct Vec {
  T lane[N];

  static constexpr int size() { return N; }

  static Vec Load(const T* p) {
    Vec v;
    std::memcpy(v.lane, p, sizeof(v.lane));
    return v;
  }

  static Vec Broadcast(T value) {
    Vec v;
    for (int i = 0; i < N; ++i) v.lane[i] = value;
    return v;
  }

  void Store(T* p) const { std::memcpy(p, lane, sizeof(lane)); }

  Vec operator+(const Vec& o) const {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = lane[i] + o.lane[i];
    return r;
  }
  Vec operator-(const Vec& o) const {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = lane[i] - o.lane[i];
    return r;
  }
  Vec operator*(const Vec& o) const {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = lane[i] * o.lane[i];
    return r;
  }
  Vec operator/(const Vec& o) const {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = lane[i] / o.lane[i];
    return r;
  }

  static Vec Max(const Vec& a, const Vec& b) {
    Vec r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }
};

// ---------------------------------------------------------------------------
// Batch entry points (runtime-dispatched). Pointers may alias only when the
// scalar loop would tolerate it: dst == a or dst == b is fine (pure
// lanewise), partially-overlapping ranges are not.
// ---------------------------------------------------------------------------

void Add(const float* a, const float* b, float* dst, int64_t n);
void Sub(const float* a, const float* b, float* dst, int64_t n);
void Mul(const float* a, const float* b, float* dst, int64_t n);
void Div(const float* a, const float* b, float* dst, int64_t n);

void Scale(const float* a, float s, float* dst, int64_t n);
void AddScalar(const float* a, float s, float* dst, int64_t n);
void Neg(const float* a, float* dst, int64_t n);
void Relu(const float* a, float* dst, int64_t n);
/// dst[i] = x[i] > 0 ? g[i] : 0 — the ReLU gradient mask.
void ReluBackward(const float* g, const float* x, float* dst, int64_t n);
void Sqrt(const float* a, float* dst, int64_t n);

/// y[i] += alpha * x[i], mul-then-add at every level (never fused).
void Axpy(float alpha, const float* x, float* y, int64_t n);
void ScaleInPlace(float* y, float s, int64_t n);

/// The all-reduce combine primitives: dst[i] = dst[i] (+|max) src[i].
void AccumulateAdd(float* dst, const float* src, int64_t n);
void AccumulateMax(float* dst, const float* src, int64_t n);
void AccumulateAdd(double* dst, const double* src, int64_t n);
void AccumulateMax(double* dst, const double* src, int64_t n);

// ---------------------------------------------------------------------------
// The A·Bᵀ tile (the Linear forward). B is packed once into column panels
// of kTileCols lanes, then every kTileRows-row tile of A runs against the
// packed panel.
// ---------------------------------------------------------------------------

inline constexpr int kTileRows = 4;
inline constexpr int kTileCols = 16;

/// Packs `cols` (1..kTileCols) rows of a row-major B, each `k` floats long
/// and `ldb` floats apart, into a k × kTileCols panel:
/// panel[p * kTileCols + c] = b[c * ldb + p], and +0.0f for c >= cols.
/// Pure data movement.
void PackPanel(const float* b, int64_t ldb, int cols, int64_t k, float* panel);

/// out[r * ldo + c] = Σ_p a[r * lda + p] * panel[p * kTileCols + c] for
/// r < rows (1..kTileRows) and c < cols (1..kTileCols); nothing else in
/// `out` is written. Each lane is one output element: it starts at +0.0f
/// and adds the rounded product for p = 0, 1, …, k-1 in that order, never
/// fused — the roundings of `acc += a[p] * b[p]`, at every level.
void MatMulTransBTile(const float* a, int64_t lda, int rows,
                      const float* panel, int64_t k, float* out, int64_t ldo,
                      int cols);

}  // namespace ddpkit::vec

#endif  // DDPKIT_COMMON_VEC_H_
