#include "common/vec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "tests/vec_levels.h"

namespace ddpkit {
namespace {

using testing::AvailableLevels;
using testing::VecLevelGuard;

std::vector<float> RandomFloats(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = static_cast<float>(rng.Uniform(-4.0, 4.0));
  }
  return v;
}

std::vector<double> RandomDoubles(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.Uniform(-4.0, 4.0);
  return v;
}

template <typename T>
void ExpectBitEqual(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  // An empty vector's data() may be null, which memcmp must not receive.
  if (a.empty()) return;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)));
}

// Lengths chosen to exercise: empty, sub-lane, one full AVX2 lane, one full
// AVX-512 lane, lane + tail, and a large buffer with every tail residue.
const int64_t kLengths[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 1000, 4097};

TEST(VecDispatchTest, SetLevelClampsToDetected) {
  VecLevelGuard guard;
  const vec::Level detected = vec::DetectedLevel();
  // Asking for more than the hardware supports installs the detected max.
  const vec::Level installed = vec::SetLevelForTesting(vec::Level::kAvx512);
  EXPECT_EQ(detected >= vec::Level::kAvx512 ? vec::Level::kAvx512 : detected,
            installed);
  EXPECT_EQ(installed, vec::ActiveLevel());
  EXPECT_LE(vec::ActiveLevel(), detected);
  // Scalar is always available.
  EXPECT_EQ(vec::Level::kScalar, vec::SetLevelForTesting(vec::Level::kScalar));
  EXPECT_EQ(vec::Level::kScalar, vec::ActiveLevel());
}

TEST(VecDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ("scalar", vec::LevelName(vec::Level::kScalar));
  EXPECT_STREQ("avx2", vec::LevelName(vec::Level::kAvx2));
  EXPECT_STREQ("avx512", vec::LevelName(vec::Level::kAvx512));
}

// Every batch helper must produce bit-identical output at every dispatch
// level — this is the contract that lets runtime dispatch coexist with
// deterministic training.
TEST(VecBitExactTest, AllFloatKernelsMatchScalarAtEveryLevel) {
  VecLevelGuard guard;
  for (const int64_t n : kLengths) {
    const std::vector<float> a = RandomFloats(n, 0x5eed0 + n);
    const std::vector<float> b = RandomFloats(n, 0x5eed1 + n);
    struct Case {
      const char* name;
      void (*run)(const std::vector<float>&, const std::vector<float>&,
                  std::vector<float>*);
    };
    const Case cases[] = {
        {"Add",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           vec::Add(x.data(), y.data(), d->data(), x.size());
         }},
        {"Sub",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           vec::Sub(x.data(), y.data(), d->data(), x.size());
         }},
        {"Mul",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           vec::Mul(x.data(), y.data(), d->data(), x.size());
         }},
        {"Div",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           vec::Div(x.data(), y.data(), d->data(), x.size());
         }},
        {"Scale",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::Scale(x.data(), 1.7f, d->data(), x.size());
         }},
        {"AddScalar",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::AddScalar(x.data(), -0.3f, d->data(), x.size());
         }},
        {"Neg",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::Neg(x.data(), d->data(), x.size());
         }},
        {"Relu",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::Relu(x.data(), d->data(), x.size());
         }},
        {"ReluBackward",
         [](const std::vector<float>& g, const std::vector<float>& x,
            std::vector<float>* d) {
           vec::ReluBackward(g.data(), x.data(), d->data(), g.size());
         }},
        {"Axpy",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           *d = y;
           vec::Axpy(0.37f, x.data(), d->data(), x.size());
         }},
        {"ScaleInPlace",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           *d = x;
           vec::ScaleInPlace(d->data(), 2.5f, x.size());
         }},
        {"AccumulateAdd",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           *d = y;
           vec::AccumulateAdd(d->data(), x.data(), x.size());
         }},
        {"AccumulateMax",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           *d = y;
           vec::AccumulateMax(d->data(), x.data(), x.size());
         }},
        // The tile cases read k = n / kTileCols; rows and cols vary with n so
        // full and partial panels and tiles are covered, and the 99s left
        // outside the tile check that no level stores past `cols`.
        {"PackPanel",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           const int64_t k = static_cast<int64_t>(x.size()) / vec::kTileCols;
           const int partial = 1 + static_cast<int>(x.size() % vec::kTileCols);
           const int cols = x.size() % 2 == 0 ? vec::kTileCols : partial;
           d->assign(static_cast<size_t>(k * vec::kTileCols), 99.0f);
           vec::PackPanel(x.data(), k, cols, k, d->data());
         }},
        {"MatMulTransBTile",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           const int64_t k = static_cast<int64_t>(x.size()) / vec::kTileCols;
           const int rows = 1 + static_cast<int>(x.size() % vec::kTileRows);
           const int cols = 1 + static_cast<int>(x.size() % vec::kTileCols);
           d->assign(static_cast<size_t>(vec::kTileRows * vec::kTileCols),
                     99.0f);
           vec::MatMulTransBTile(x.data(), k, rows, y.data(), k, d->data(),
                                 vec::kTileCols, cols);
         }},
    };
    for (const Case& c : cases) {
      vec::SetLevelForTesting(vec::Level::kScalar);
      std::vector<float> ref(static_cast<size_t>(n), 99.0f);
      c.run(a, b, &ref);
      for (const vec::Level level : AvailableLevels()) {
        vec::SetLevelForTesting(level);
        std::vector<float> got(static_cast<size_t>(n), 99.0f);
        c.run(a, b, &got);
        SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n) +
                     " level=" + vec::LevelName(level));
        ExpectBitEqual(ref, got);
      }
    }
  }
}

TEST(VecBitExactTest, DoubleAccumulatorsMatchScalarAtEveryLevel) {
  VecLevelGuard guard;
  for (const int64_t n : kLengths) {
    const std::vector<double> src = RandomDoubles(n, 0xd0 + n);
    const std::vector<double> dst0 = RandomDoubles(n, 0xd1 + n);
    for (const bool use_max : {false, true}) {
      vec::SetLevelForTesting(vec::Level::kScalar);
      std::vector<double> ref = dst0;
      if (use_max) {
        vec::AccumulateMax(ref.data(), src.data(), n);
      } else {
        vec::AccumulateAdd(ref.data(), src.data(), n);
      }
      for (const vec::Level level : AvailableLevels()) {
        vec::SetLevelForTesting(level);
        std::vector<double> got = dst0;
        if (use_max) {
          vec::AccumulateMax(got.data(), src.data(), n);
        } else {
          vec::AccumulateAdd(got.data(), src.data(), n);
        }
        SCOPED_TRACE(std::string(use_max ? "max" : "add") +
                     " n=" + std::to_string(n) +
                     " level=" + vec::LevelName(level));
        ExpectBitEqual(ref, got);
      }
    }
  }
}

// The max kernels must reproduce the scalar `dst > src ? dst : src` edge
// semantics exactly: NaN on either side yields src, and max(-0, +0)
// resolves the tie to src too. This pins the maxps operand order.
TEST(VecSemanticsTest, AccumulateMaxNanAndSignedZero) {
  VecLevelGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // 16 lanes so AVX2/AVX-512 take their vector path, not just the tail.
  std::vector<float> dst0(16), src(16);
  for (int i = 0; i < 16; ++i) {
    dst0[static_cast<size_t>(i)] = static_cast<float>(i);
    src[static_cast<size_t>(i)] = static_cast<float>(15 - i);
  }
  dst0[0] = nan;    src[0] = 2.0f;   // NaN dst  -> src
  dst0[1] = 2.0f;   src[1] = nan;    // NaN src  -> src (NaN propagates)
  dst0[2] = -0.0f;  src[2] = 0.0f;   // tie      -> src (+0)
  dst0[3] = 0.0f;   src[3] = -0.0f;  // tie      -> src (-0)
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    std::vector<float> got = dst0;
    vec::AccumulateMax(got.data(), src.data(), 16);
    SCOPED_TRACE(vec::LevelName(level));
    for (int i = 0; i < 16; ++i) {
      const float d = dst0[static_cast<size_t>(i)];
      const float s = src[static_cast<size_t>(i)];
      const float want = d > s ? d : s;
      EXPECT_EQ(0, std::memcmp(&want, &got[static_cast<size_t>(i)],
                               sizeof(float)))
          << "lane " << i;
    }
  }
}

TEST(VecSemanticsTest, ReluMapsNegativeZeroAndNanToPositiveZero) {
  VecLevelGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> in(16, 1.0f);
  in[0] = -0.0f;
  in[1] = nan;
  in[2] = -3.5f;
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    std::vector<float> out(16, 99.0f);
    vec::Relu(in.data(), out.data(), 16);
    SCOPED_TRACE(vec::LevelName(level));
    const float pz = 0.0f;
    EXPECT_EQ(0, std::memcmp(&pz, &out[0], sizeof(float)));  // -0 -> +0
    EXPECT_EQ(0, std::memcmp(&pz, &out[1], sizeof(float)));  // NaN -> 0
    EXPECT_EQ(0, std::memcmp(&pz, &out[2], sizeof(float)));
    EXPECT_EQ(1.0f, out[3]);
  }
}

// Axpy must never round like an FMA: pick operands where fma(a, x, y)
// and a*x + y differ in the last bit, and require the mul-then-add result.
TEST(VecSemanticsTest, AxpyIsMulThenAddNotFused) {
  VecLevelGuard guard;
  // alpha^2 = 1 + 2^-11 + 2^-24 rounds to 1 + 2^-11 as float; adding -1
  // afterwards gives exactly 2^-11, while fma(alpha, alpha, -1) keeps the
  // 2^-24 term. The two paths provably differ in the last bit.
  const float alpha = 1.0f + std::ldexp(1.0f, -12);  // 1 + 2^-12
  std::vector<float> x(16, alpha);                   // x == alpha
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    std::vector<float> y(16, -1.0f);
    vec::Axpy(alpha, x.data(), y.data(), 16);
    const float prod = alpha * alpha;  // rounded product
    const float want = -1.0f + prod;
    const float fused = std::fma(alpha, alpha, -1.0f);
    SCOPED_TRACE(vec::LevelName(level));
    // The probe is only meaningful if fused and unfused actually differ.
    ASSERT_NE(want, fused);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(want, y[static_cast<size_t>(i)]) << "lane " << i;
    }
  }
}

// The same probe for the A·Bᵀ tile: p = 0 sets every lane to 1 · -1 = -1,
// then p = 1 adds alpha · alpha, which must be rounded before the add.
TEST(VecSemanticsTest, MatMulTransBTileIsMulThenAddNotFused) {
  VecLevelGuard guard;
  const float alpha = 1.0f + std::ldexp(1.0f, -12);
  std::vector<float> a;
  for (int r = 0; r < vec::kTileRows; ++r) a.insert(a.end(), {1.0f, alpha});
  std::vector<float> panel(vec::kTileCols, -1.0f);
  panel.resize(2 * vec::kTileCols, alpha);
  const float want = -1.0f + alpha * alpha;
  ASSERT_NE(want, std::fma(alpha, alpha, -1.0f));
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    std::vector<float> out(vec::kTileRows * vec::kTileCols, 99.0f);
    vec::MatMulTransBTile(a.data(), 2, vec::kTileRows, panel.data(), 2,
                          out.data(), vec::kTileCols, vec::kTileCols);
    SCOPED_TRACE(vec::LevelName(level));
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(want, out[i]) << "lane " << i;
    }
  }
}

TEST(VecSemanticsTest, GenericVecLanewiseOps) {
  using V = vec::Vec<float, 8>;
  float a[8], b[8];
  for (int i = 0; i < 8; ++i) {
    a[i] = static_cast<float>(i + 1);
    b[i] = static_cast<float>(8 - i);
  }
  const V va = V::Load(a), vb = V::Load(b);
  float out[8];
  (va + vb).Store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a[i] + b[i], out[i]);
  (va * vb).Store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a[i] * b[i], out[i]);
  V::Max(va, vb).Store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(std::max(a[i], b[i]), out[i]);
  V::Broadcast(3.0f).Store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(3.0f, out[i]);
  EXPECT_EQ(8, V::size());
}

}  // namespace
}  // namespace ddpkit
