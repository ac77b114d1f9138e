#ifndef DDPKIT_COMMON_VEC_H_
#define DDPKIT_COMMON_VEC_H_

#include <cstdint>

namespace ddpkit::vec {

/// Portable SIMD layer for the elementwise hot paths (tensor kernels, the
/// all-reduce combine loops, the Reducer's bucket copies): batch entry
/// points that runtime-dispatch to AVX-512, AVX2 or the scalar level
/// depending on what the host CPU supports.
///
/// One way to write a lanewise kernel
/// ----------------------------------
/// Every lanewise entry point below is one Op in vec.cc, a struct whose
/// Apply maps GCC vectors of lanes to a vector of lanes, written once and
/// run by one loop at every level. The loop runs whole registers at the
/// level's full width (16 bytes at the scalar level, the x86-64 baseline's
/// register; 32 at AVX2; 64 at AVX-512) and then the tail one element at a
/// time as a one-lane vector, which compiles to scalar instructions. Three
/// kernels are not lanewise maps and keep a body per level: CountZeros (a
/// popcount reduction), PackPanel (transposes) and MatMulTile (the
/// register tile).
///
/// Bit-exactness contract
/// ----------------------
/// Every batch helper below performs only *lanewise* operations: the
/// IEEE-754 add, sub, mul, div, max and sqrt, which are correctly rounded
/// at every vector width; compares and the select they drive; and integer
/// add, sub, shift, and, or on a float's bits (the exponent field that
/// Exp builds and Log reads). No implementation ever emits a fused
/// multiply-add (Axpy is an explicit mul-then-add at all levels; the
/// x86-64 baseline has no FMA instruction, so the scalar level cannot
/// contract either). Element i of the output therefore has the bits of
/// the serial loop stated for each helper, whichever Level executes the
/// call and however wide its registers are. Combined with
/// ParallelFor's thread-count-independent chunking this means the SIMD
/// dispatch can never perturb a deterministic run: results are identical
/// across machines with different ISA extensions, across DDPKIT_SIMD
/// overrides, and across pool sizes.
/// A reduction is offered only when each lane owns one output and runs
/// that output's serial order unchanged: MatMulTile, the one matmul tile,
/// where lane c of row r sums its p terms in ascending p, exactly like the
/// serial loop. Its zero skip is exact too. A skipped term adds nothing,
/// and where a level masks the product to +0 instead, adding +0 is a no-op
/// because an accumulator that starts at +0.0f is never −0 (x + y is −0
/// only when both are −0). Reductions that reassociate — splitting one sum
/// across lanes, then folding the lanes — are deliberately NOT offered;
/// use ParallelReduce's chunked combine for those.

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
/// environment variable ("scalar" | "avx2" | "avx512") when set; any other
/// value logs one warning and leaves the detected level. Computed once per
/// process.
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
// Batch entry points (runtime-dispatched). Pointers may alias only when the
// serial loop would tolerate it: dst == a or dst == b is fine (pure
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
/// The correctly rounded square root; it sets no errno.
void Sqrt(const float* a, float* dst, int64_t n);

/// The transcendentals: a fixed sequence of the operations above, owned
/// here instead of taken from libm, whose bits differ between widths and
/// between glibc versions. Exp, Tanh and Log are within 2 ulp of the
/// exact result wherever it is a finite float (over all 2^32 inputs at
/// most 0.99, 1.33 and 0.83), and Exp underflows gradually. Special
/// values follow IEEE: exp(−inf) = +0, exp(+inf) = +inf, tanh(±0) = ±0,
/// tanh(±inf) = ±1, log(±0) = −inf, log(+inf) = +inf, log(x < 0) = NaN.
/// A NaN input comes back with its bits.
void Exp(const float* a, float* dst, int64_t n);
void Tanh(const float* a, float* dst, int64_t n);
void Log(const float* a, float* dst, int64_t n);
/// 1 / (1 + exp(−x)).
void Sigmoid(const float* a, float* dst, int64_t n);
/// BERT's tanh-approximation GELU,
/// 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))), and
/// dst[i] = g[i] · GELU'(x[i]).
void Gelu(const float* a, float* dst, int64_t n);
void GeluBackward(const float* g, const float* x, float* dst, int64_t n);

/// y[i] += alpha * x[i], mul-then-add at every level (never fused).
void Axpy(float alpha, const float* x, float* y, int64_t n);
void ScaleInPlace(float* y, float s, int64_t n);

/// SgdStep's constants, each already rounded to float.
struct SgdCoefficients {
  float neg_lr = 0.0f;        // −lr
  float weight_decay = 0.0f;  // 0 leaves the decay term out
  float momentum = 0.0f;      // μ; read only when there is a buffer
  bool first_step = false;    // the buffer has no history yet
};

/// One SGD step in place over n elements of a parameter p, its gradient g
/// and, unless m is nullptr, its momentum buffer m. Element i, every
/// product and sum rounded on its own (never fused):
///   u = g[i], then u = u + wd·p[i] when weight_decay != 0;
///   with m: m[i] = u on the first step, else m[i] = m[i]·μ + u; d = m[i];
///   without m: d = u;
///   p[i] = p[i] + (−lr)·d.
/// These are the roundings of the Axpy / ScaleInPlace / Axpy passes it
/// replaced (m·μ + 1·u there; multiplying by 1 is exact), at every level.
/// One read of g and p (and m), one write of p (and m).
void SgdStep(float* p, const float* g, float* m, int64_t n,
             const SgdCoefficients& c);

/// The all-reduce combine primitives: dst[i] = dst[i] (+|max) src[i].
void AccumulateAdd(float* dst, const float* src, int64_t n);
void AccumulateMax(float* dst, const float* src, int64_t n);
void AccumulateAdd(double* dst, const double* src, int64_t n);
void AccumulateMax(double* dst, const double* src, int64_t n);

/// The number of a[i] equal to zero (+0 or −0): an exact count at every
/// level.
int64_t CountZeros(const float* a, int64_t n);

// ---------------------------------------------------------------------------
// The matmul tile. Every product kernel runs kTileRows × kTileCols output
// tiles through MatMulTile: MatMulTransB and attention's scores against a
// packed panel of B, MatMul, MatMulTransA and attention's other products
// against B's rows in place. AVX-512 holds the whole tile in sixteen
// registers (8 rows × two 16-lane halves; one half when cols <= 16); AVX2
// and the scalar level run it as 4 × 16 blocks. The block shape never
// changes a lane's sequence.
// ---------------------------------------------------------------------------

inline constexpr int kTileRows = 8;
inline constexpr int kTileCols = 32;

/// Packs `cols` (1..kTileCols) rows of a row-major B, each `k` floats long
/// and `ldb` floats apart, into a k × kTileCols panel:
/// panel[p * kTileCols + c] = b[c * ldb + p] for c < cols; lanes past
/// `cols` are not written (MatMulTile reads only `cols` lanes). Pure data
/// movement.
void PackPanel(const float* b, int64_t ldb, int cols, int64_t k, float* panel);

/// out[r * ldo + c] = Σ_p A(r, p) · b[p * ldb + c] for r < rows
/// (1..kTileRows) and c < cols (1..kTileCols), where
/// A(r, p) = a[r * a_row + p * a_p]. Only the first `cols` floats of each
/// B row are read, and nothing else in `out` is written. Each lane is one
/// output element: it starts at +0.0f and adds the rounded product for
/// p = 0, 1, …, k-1 in that order, never fused — the roundings of
/// `acc += a[p] * b[p]`, at every level. With `skip_zero`, a term whose
/// A(r, p) is ±0 is left out of row r, like the row loop's
/// `if (a == 0) continue;` (it differs from adding the term only where
/// B holds an infinity or NaN).
void MatMulTile(const float* a, int64_t a_row, int64_t a_p, int rows,
                const float* b, int64_t ldb, int64_t k, float* out,
                int64_t ldo, int cols, bool skip_zero);

}  // namespace ddpkit::vec

#endif  // DDPKIT_COMMON_VEC_H_
