#include "common/vec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
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

// Puts ±0, ±inf, NaN of either sign and denormals of either sign into x
// and y: at i % 4 == 0 against each other (all 81 pairs by i = 324), at
// i % 4 == 1 in x against a random y, at 2 in y against a random x. The
// elements at 3 stay random in both.
template <typename T>
void PutSpecials(std::vector<T>* x, std::vector<T>* y) {
  using Limits = std::numeric_limits<T>;
  const T specials[] = {T{0},
                        -T{0},
                        Limits::infinity(),
                        -Limits::infinity(),
                        Limits::quiet_NaN(),
                        -Limits::quiet_NaN(),
                        Limits::denorm_min(),
                        -Limits::min() / 3,
                        Limits::min() / 5 * 3};
  constexpr size_t kCount = std::size(specials);
  for (size_t i = 0; i < x->size(); ++i) {
    const size_t k = i / 4;
    if (i % 4 == 0 || i % 4 == 1) (*x)[i] = specials[k % kCount];
    if (i % 4 == 0) (*y)[i] = specials[k / kCount % kCount];
    if (i % 4 == 2) (*y)[i] = specials[k % kCount];
  }
}

// Bitwise equal, except that where `want` is a NaN `got` need only be one:
// which NaN a kernel computes (its sign and payload) is left open.
template <typename T>
void ExpectSameBits(const std::vector<T>& want, const std::vector<T>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << "i=" << i << " got " << got[i];
    } else {
      ASSERT_EQ(0, std::memcmp(&want[i], &got[i], sizeof(T)))
          << "i=" << i << " want " << want[i] << " got " << got[i];
    }
  }
}

// Lengths chosen to exercise: empty, sub-lane, one full AVX2 lane, one full
// AVX-512 lane, lane + tail, and a large buffer with every tail residue.
const int64_t kLengths[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 1000, 4097};

// MatMulTile's three address forms: A's rows k apart with B a packed panel
// (MatMulTransB), A's rows k apart with B's rows `cols` apart (MatMul), and
// A's rows adjacent with its p terms kTileRows apart (MatMulTransA).
enum class TileForm { kPanel, kRows, kTransA };

// The serial loop MatMulTile stands for, in its signature: each output
// starts at +0.0f and adds A(r, p) · B(p, c) in ascending p, leaving out a
// ±0 A(r, p) under the skip.
void SerialTile(const float* a, int64_t a_row, int64_t a_p, int rows,
                const float* b, int64_t ldb, int64_t k, float* out,
                int64_t ldo, int cols, bool skip_zero) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = a[r * a_row + p * a_p];
        if (skip_zero && av == 0.0f) continue;
        acc += av * b[p * ldb + c];
      }
      out[r * ldo + c] = acc;
    }
  }
}

using TileFn = decltype(&vec::MatMulTile);

// Runs one tile of k = n / kTileCols terms over A = x and B = y into a
// kTileRows × kTileCols block of 99s through kTile (vec::MatMulTile or
// SerialTile); rows and cols vary with n. B is copied into an allocation
// that ends with the tile's last B float, so ASan catches a read past
// `cols`. With kSkipZero, every third p has a ±0 coefficient in every row
// and an infinity or NaN in its B row, which the skip must leave out of
// every lane.
template <TileForm kForm, bool kSkipZero, TileFn kTile>
void RunTile(const std::vector<float>& x, const std::vector<float>& y,
             std::vector<float>* d) {
  const int64_t k = static_cast<int64_t>(x.size()) / vec::kTileCols;
  const int rows = 1 + static_cast<int>(x.size() % vec::kTileRows);
  const int cols = 1 + static_cast<int>(x.size() % vec::kTileCols);
  const int64_t a_row = kForm == TileForm::kTransA ? 1 : k;
  const int64_t a_p = kForm == TileForm::kTransA ? vec::kTileRows : 1;
  const int64_t ldb = kForm == TileForm::kPanel ? vec::kTileCols : cols;
  std::vector<float> a = x;
  std::vector<float> b(y.end() - (k == 0 ? 0 : (k - 1) * ldb + cols), y.end());
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (int64_t p = 1; kSkipZero && p < k; p += 3) {
    for (int r = 0; r < vec::kTileRows; ++r) {
      a[static_cast<size_t>(r * a_row + p * a_p)] = r % 2 == 0 ? 0.0f : -0.0f;
    }
    b[static_cast<size_t>(p * ldb + p % cols)] = specials[(p / 3) % 3];
  }
  d->assign(static_cast<size_t>(vec::kTileRows * vec::kTileCols), 99.0f);
  kTile(a.data(), a_row, a_p, rows, b.data(), ldb, k, d->data(),
        vec::kTileCols, cols, kSkipZero);
}

// PackPanel over x as `cols` rows of k = n / kTileCols floats (all
// kTileCols rows when n is even) into a panel of 99s, through vec::PackPanel
// or, with kSerial, the loop of its contract.
template <bool kSerial>
void RunPack(const std::vector<float>& x, const std::vector<float>&,
             std::vector<float>* d) {
  const int64_t k = static_cast<int64_t>(x.size()) / vec::kTileCols;
  const int partial = 1 + static_cast<int>(x.size() % vec::kTileCols);
  const int cols = x.size() % 2 == 0 ? vec::kTileCols : partial;
  d->assign(static_cast<size_t>(k * vec::kTileCols), 99.0f);
  if (!kSerial) {
    vec::PackPanel(x.data(), k, cols, k, d->data());
    return;
  }
  for (int64_t p = 0; p < k; ++p) {
    for (int c = 0; c < cols; ++c) {
      (*d)[static_cast<size_t>(p * vec::kTileCols + c)] =
          x[static_cast<size_t>(c * k + p)];
    }
  }
}

using Floats = std::vector<float>;

// One float kernel under test. `run` calls it on x and y into d, which
// starts as x.size() 99s. The serial loop its vec.h contract states is
// d[i] = lane(x[i], y[i]) for a lanewise kernel, else `serial`.
struct FloatCase {
  const char* name;
  void (*run)(const Floats& x, const Floats& y, Floats* d);
  float (*lane)(float x, float y);
  void (*serial)(const Floats& x, const Floats& y, Floats* d) = nullptr;
};

const FloatCase kFloatCases[] = {
    {"Add",
     [](const Floats& x, const Floats& y, Floats* d) {
       vec::Add(x.data(), y.data(), d->data(), x.size());
     },
     [](float x, float y) { return x + y; }},
    {"Sub",
     [](const Floats& x, const Floats& y, Floats* d) {
       vec::Sub(x.data(), y.data(), d->data(), x.size());
     },
     [](float x, float y) { return x - y; }},
    {"Mul",
     [](const Floats& x, const Floats& y, Floats* d) {
       vec::Mul(x.data(), y.data(), d->data(), x.size());
     },
     [](float x, float y) { return x * y; }},
    {"Div",
     [](const Floats& x, const Floats& y, Floats* d) {
       vec::Div(x.data(), y.data(), d->data(), x.size());
     },
     [](float x, float y) { return x / y; }},
    {"Scale",
     [](const Floats& x, const Floats&, Floats* d) {
       vec::Scale(x.data(), 1.7f, d->data(), x.size());
     },
     [](float x, float) { return x * 1.7f; }},
    {"AddScalar",
     [](const Floats& x, const Floats&, Floats* d) {
       vec::AddScalar(x.data(), -0.3f, d->data(), x.size());
     },
     [](float x, float) { return x + -0.3f; }},
    {"Neg",
     [](const Floats& x, const Floats&, Floats* d) {
       vec::Neg(x.data(), d->data(), x.size());
     },
     [](float x, float) { return -x; }},
    {"Relu",
     [](const Floats& x, const Floats&, Floats* d) {
       vec::Relu(x.data(), d->data(), x.size());
     },
     [](float x, float) { return x > 0.0f ? x : 0.0f; }},
    {"ReluBackward",
     [](const Floats& g, const Floats& x, Floats* d) {
       vec::ReluBackward(g.data(), x.data(), d->data(), g.size());
     },
     [](float g, float x) { return x > 0.0f ? g : 0.0f; }},
    {"Sqrt",
     [](const Floats& x, const Floats&, Floats* d) {
       vec::Sqrt(x.data(), d->data(), x.size());
     },
     [](float x, float) { return std::sqrt(x); }},
    {"Axpy",
     [](const Floats& x, const Floats& y, Floats* d) {
       *d = y;
       vec::Axpy(0.37f, x.data(), d->data(), x.size());
     },
     [](float x, float y) {
       const float prod = 0.37f * x;
       return y + prod;
     }},
    {"ScaleInPlace",
     [](const Floats& x, const Floats&, Floats* d) {
       *d = x;
       vec::ScaleInPlace(d->data(), 2.5f, x.size());
     },
     [](float x, float) { return x * 2.5f; }},
    {"AccumulateAdd",
     [](const Floats& x, const Floats& y, Floats* d) {
       *d = y;
       vec::AccumulateAdd(d->data(), x.data(), x.size());
     },
     [](float x, float y) { return y + x; }},
    {"AccumulateMax",
     [](const Floats& x, const Floats& y, Floats* d) {
       *d = y;
       vec::AccumulateMax(d->data(), x.data(), x.size());
     },
     [](float x, float y) { return y > x ? y : x; }},
    // The tile cases read k = n / kTileCols; rows and cols vary with n so
    // full and partial panels and tiles are covered, and the 99s left
    // outside the tile check that no level stores past `cols`.
    {"PackPanel", RunPack<false>, nullptr, RunPack<true>},
    {"MatMulTile/panel", RunTile<TileForm::kPanel, false, vec::MatMulTile>,
     nullptr, RunTile<TileForm::kPanel, false, SerialTile>},
    {"MatMulTile/panel+skip", RunTile<TileForm::kPanel, true, vec::MatMulTile>,
     nullptr, RunTile<TileForm::kPanel, true, SerialTile>},
    {"MatMulTile/rows", RunTile<TileForm::kRows, false, vec::MatMulTile>,
     nullptr, RunTile<TileForm::kRows, false, SerialTile>},
    {"MatMulTile/rows+skip", RunTile<TileForm::kRows, true, vec::MatMulTile>,
     nullptr, RunTile<TileForm::kRows, true, SerialTile>},
    {"MatMulTile/trans_a", RunTile<TileForm::kTransA, false, vec::MatMulTile>,
     nullptr, RunTile<TileForm::kTransA, false, SerialTile>},
    {"MatMulTile/trans_a+skip",
     RunTile<TileForm::kTransA, true, vec::MatMulTile>, nullptr,
     RunTile<TileForm::kTransA, true, SerialTile>},
};

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

// Every float kernel gives the bits of the serial loop its vec.h contract
// states at every dispatch level, scalar included — the contract that
// lets runtime dispatch coexist with deterministic training. The lanewise
// kernels' inputs put ±0, ±inf, NaN and denormals against each other and
// against random values of either sign.
TEST(VecBitExactTest, AllFloatKernelsMatchTheSerialLoopAtEveryLevel) {
  VecLevelGuard guard;
  for (const int64_t n : kLengths) {
    const Floats x_random = RandomFloats(n, 0x5eed0 + n);
    const Floats y_random = RandomFloats(n, 0x5eed1 + n);
    Floats x_special = x_random, y_special = y_random;
    PutSpecials(&x_special, &y_special);
    for (const FloatCase& c : kFloatCases) {
      // A special in a tile's operands reaches a whole row or column of
      // sums, which would leave most outputs NaN; the tiles take random
      // values only (EveryPartialTileMatchesTheSerialLoop puts infinities
      // and NaNs behind skipped terms).
      const Floats& x = c.lane != nullptr ? x_special : x_random;
      const Floats& y = c.lane != nullptr ? y_special : y_random;
      Floats want(static_cast<size_t>(n), 99.0f);
      if (c.lane != nullptr) {
        for (size_t i = 0; i < x.size(); ++i) want[i] = c.lane(x[i], y[i]);
      } else {
        c.serial(x, y, &want);
      }
      for (const vec::Level level : AvailableLevels()) {
        vec::SetLevelForTesting(level);
        Floats got(static_cast<size_t>(n), 99.0f);
        c.run(x, y, &got);
        SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n) +
                     " level=" + vec::LevelName(level));
        ExpectSameBits(want, got);
      }
    }
  }
}

// Every partial tile, rows 1..kTileRows × cols 1..kTileCols, in each
// address form with the skip on and off, against the serial loop it stands
// for: +0.0f, then acc += A(r, p) · B(p, c) in ascending p, leaving out a
// ±0 A(r, p) under the skip. k = 19 gives the AVX2 panel packer one visit
// of sixteen p and a scalar tail. A holds exactly `rows` rows and B ends at
// the tile's last float, so ASan catches a read past either, and the 99s
// around the tile catch a store past it.
TEST(VecBitExactTest, EveryPartialTileMatchesTheSerialLoop) {
  VecLevelGuard guard;
  constexpr int64_t k = 19;
  const std::vector<float> x = RandomFloats(4 * vec::kTileRows * k, 0x711e);
  const std::vector<float> y = RandomFloats(4 * vec::kTileCols * k, 0x711f);
  for (const TileForm form :
       {TileForm::kPanel, TileForm::kRows, TileForm::kTransA}) {
    for (const bool skip_zero : {false, true}) {
      for (int rows = 1; rows <= vec::kTileRows; ++rows) {
        for (int cols = 1; cols <= vec::kTileCols; ++cols) {
          const int64_t a_row = form == TileForm::kTransA ? 1 : k + 2;
          const int64_t a_p = form == TileForm::kTransA ? rows + 1 : 1;
          std::vector<float> a(x.begin(),
                               x.begin() + (rows - 1) * a_row +
                                   (k - 1) * a_p + 1);
          // Every third p is ±0 in every row; under the skip its B row
          // holds an infinity or NaN that must not reach any lane.
          for (int64_t p = 1; p < k; p += 3) {
            for (int r = 0; r < rows; ++r) {
              a[static_cast<size_t>(r * a_row + p * a_p)] =
                  r % 2 == 0 ? 0.0f : -0.0f;
            }
          }
          // B(p, c) as rows `ldb` apart; the panel form packs it from
          // cols rows of k floats.
          const int64_t ldb = cols + 3;
          std::vector<float> b(y.begin(), y.begin() + (k - 1) * ldb + cols);
          for (int64_t p = 1; skip_zero && p < k; p += 3) {
            b[static_cast<size_t>(p * ldb + p % cols)] =
                p % 2 == 0 ? std::numeric_limits<float>::infinity()
                           : std::numeric_limits<float>::quiet_NaN();
          }
          std::vector<float> want(vec::kTileRows * vec::kTileCols, 99.0f);
          SerialTile(a.data(), a_row, a_p, rows, b.data(), ldb, k,
                     want.data(), vec::kTileCols, cols, skip_zero);
          std::vector<float> b_rows(static_cast<size_t>(cols * k));
          for (int c = 0; c < cols; ++c) {
            for (int64_t p = 0; p < k; ++p) {
              b_rows[static_cast<size_t>(c * k + p)] =
                  b[static_cast<size_t>(p * ldb + c)];
            }
          }
          for (const vec::Level level : AvailableLevels()) {
            vec::SetLevelForTesting(level);
            std::vector<float> panel(static_cast<size_t>(k * vec::kTileCols));
            const float* bt = b.data();
            int64_t bt_ld = ldb;
            if (form == TileForm::kPanel) {
              vec::PackPanel(b_rows.data(), k, cols, k, panel.data());
              bt = panel.data();
              bt_ld = vec::kTileCols;
            }
            std::vector<float> got(vec::kTileRows * vec::kTileCols, 99.0f);
            vec::MatMulTile(a.data(), a_row, a_p, rows, bt, bt_ld, k,
                            got.data(), vec::kTileCols, cols, skip_zero);
            SCOPED_TRACE("form=" + std::to_string(static_cast<int>(form)) +
                         " skip=" + std::to_string(skip_zero) +
                         " rows=" + std::to_string(rows) +
                         " cols=" + std::to_string(cols) + " " +
                         vec::LevelName(level));
            ExpectSameBits(want, got);
          }
        }
      }
    }
  }
}

TEST(VecBitExactTest, DoubleAccumulatorsMatchTheSerialLoopAtEveryLevel) {
  VecLevelGuard guard;
  for (const int64_t n : kLengths) {
    std::vector<double> src = RandomDoubles(n, 0xd0 + n);
    std::vector<double> dst0 = RandomDoubles(n, 0xd1 + n);
    PutSpecials(&src, &dst0);
    for (const bool use_max : {false, true}) {
      std::vector<double> want = dst0;
      for (size_t i = 0; i < want.size(); ++i) {
        const double d = want[i], s = src[i];
        want[i] = use_max ? (d > s ? d : s) : d + s;
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
        ExpectSameBits(want, got);
      }
    }
  }
}

// The max kernels must reproduce the scalar `dst > src ? dst : src` edge
// semantics exactly: NaN on either side yields src, and max(-0, +0)
// resolves the tie to src too. This pins the select's operand order.
template <typename T>
void ExpectMaxPicksSrcOnNanAndTies() {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  // 16 lanes so every level runs whole registers, not just the tail.
  std::vector<T> dst0(16), src(16);
  for (int i = 0; i < 16; ++i) {
    dst0[static_cast<size_t>(i)] = static_cast<T>(i);
    src[static_cast<size_t>(i)] = static_cast<T>(15 - i);
  }
  dst0[0] = nan;    src[0] = 2;      // NaN dst  -> src
  dst0[1] = 2;      src[1] = nan;    // NaN src  -> src (NaN propagates)
  dst0[2] = -T{0};  src[2] = T{0};   // tie      -> src (+0)
  dst0[3] = T{0};   src[3] = -T{0};  // tie      -> src (-0)
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    std::vector<T> got = dst0;
    vec::AccumulateMax(got.data(), src.data(), 16);
    SCOPED_TRACE(std::string(vec::LevelName(level)) + " " +
                 std::to_string(sizeof(T)) + "-byte");
    for (int i = 0; i < 16; ++i) {
      const T d = dst0[static_cast<size_t>(i)];
      const T s = src[static_cast<size_t>(i)];
      const T want = d > s ? d : s;
      EXPECT_EQ(0, std::memcmp(&want, &got[static_cast<size_t>(i)], sizeof(T)))
          << "lane " << i;
    }
  }
}

TEST(VecSemanticsTest, AccumulateMaxNanAndSignedZero) {
  VecLevelGuard guard;
  ExpectMaxPicksSrcOnNanAndTies<float>();
  ExpectMaxPicksSrcOnNanAndTies<double>();
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

// CountZeros counts +0 and -0 and nothing else (not NaN, not the smallest
// denormals), over every tail length at every level.
TEST(VecSemanticsTest, CountZerosCountsSignedZerosOnly) {
  VecLevelGuard guard;
  const float values[] = {0.0f,
                          -0.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          1.0f,
                          -std::numeric_limits<float>::infinity()};
  for (const int64_t n : kLengths) {
    std::vector<float> a(static_cast<size_t>(n));
    int64_t want = 0;
    for (int64_t i = 0; i < n; ++i) {
      const float v = values[(i * i + n) % 7];
      uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      want += (bits & 0x7fffffffu) == 0 ? 1 : 0;
      a[static_cast<size_t>(i)] = v;
    }
    for (const vec::Level level : AvailableLevels()) {
      vec::SetLevelForTesting(level);
      EXPECT_EQ(want, vec::CountZeros(a.data(), n))
          << "n=" << n << " level=" << vec::LevelName(level);
    }
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

// The same probe for the matmul tile in each address form, with the skip
// on and off: p = 0 sets every lane to 1 · -1 = -1, then p = 1 adds
// alpha · alpha, which must be rounded before the add.
TEST(VecSemanticsTest, MatMulTransBTileIsMulThenAddNotFused) {
  VecLevelGuard guard;
  const float alpha = 1.0f + std::ldexp(1.0f, -12);
  const float want = -1.0f + alpha * alpha;
  ASSERT_NE(want, std::fma(alpha, alpha, -1.0f));
  // A(r, p) = a[r * a_row + p * a_p] is 1 at p = 0 and alpha at p = 1.
  struct Form {
    int64_t a_row, a_p, ldb;
  };
  const Form forms[] = {{2, 1, vec::kTileCols},     // packed panel
                        {2, 1, vec::kTileCols + 3},  // B rows in place
                        {1, vec::kTileRows, vec::kTileCols + 3}};  // A^T
  for (const Form& f : forms) {
    std::vector<float> a(2 * vec::kTileRows);
    for (int r = 0; r < vec::kTileRows; ++r) {
      a[static_cast<size_t>(r * f.a_row)] = 1.0f;
      a[static_cast<size_t>(r * f.a_row + f.a_p)] = alpha;
    }
    std::vector<float> b(static_cast<size_t>(f.ldb), -1.0f);
    b.resize(static_cast<size_t>(f.ldb + vec::kTileCols), alpha);
    for (const bool skip_zero : {false, true}) {
      for (const vec::Level level : AvailableLevels()) {
        vec::SetLevelForTesting(level);
        std::vector<float> out(vec::kTileRows * vec::kTileCols, 99.0f);
        vec::MatMulTile(a.data(), f.a_row, f.a_p, vec::kTileRows, b.data(),
                        f.ldb, 2, out.data(), vec::kTileCols, vec::kTileCols,
                        skip_zero);
        SCOPED_TRACE("a_p=" + std::to_string(f.a_p) + " ldb=" +
                     std::to_string(f.ldb) + " skip=" +
                     std::to_string(skip_zero) + " " +
                     vec::LevelName(level));
        for (size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(want, out[i]) << "lane " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The transcendentals. Inputs are every kSweepStride-th float bit pattern
// (4.2 M of the 2^32), plus, in the first chunk, the special values and
// both sides of every branch point. Each level runs them in pieces whose
// lengths cycle through kPieces, so every tail residue runs too.
// ---------------------------------------------------------------------------

constexpr uint32_t kSweepStride = 1021;
constexpr uint64_t kSweepChunk = 1 << 16;  // patterns per chunk
constexpr uint64_t kAllPatterns = uint64_t{1} << 32;
constexpr int64_t kPieces[] = {1, 3, 7, 9, 15, 17, 31, 33, 1000, 4097};

float FromBits(uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

uint32_t BitsOf(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

std::vector<float> EdgeInputs() {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float points[] = {
      0.0f, inf, denorm, 2 * denorm, 3 * denorm,
      FromBits(0x007fffff),                // largest denormal
      std::numeric_limits<float>::min(),   // log's denormal rescale
      FromBits(0x7fc00000),                // quiet NaN
      FromBits(0x7f800001),                // signalling NaN
      FromBits(0x7fc12345),                // NaN with a payload
      0.625f, 9.01f, 44.3614f,             // tanh: its two forms, 1, e^2x = inf
      88.7228317f, 88.7228394f,            // exp: last finite, first inf
      87.3365479f, 103.972076f,            // exp: denormal results, then 0
      100.0f, 112.0f,                      // exp's clamp
      0.707106781f, 1.0f, 2.0f,            // log: its two mantissa ranges
  };
  std::vector<float> out;
  for (const float p : points) {
    for (const float x : {p, -p}) {
      out.push_back(x);
      out.push_back(std::nextafter(x, inf));
      out.push_back(std::nextafter(x, -inf));
    }
  }
  return out;
}

/// Fills x (and g, GeluBackward's gradient, a bijective scramble of x's
/// bits) with the chunk of the sweep that starts at pattern `start`.
void SweepChunk(uint64_t start, uint64_t stride, std::vector<float>* x,
                std::vector<float>* g) {
  x->clear();
  if (start == 0) *x = EdgeInputs();
  const uint64_t end = std::min(kAllPatterns, start + kSweepChunk * stride);
  for (uint64_t b = start; b < end; b += stride) {
    x->push_back(FromBits(static_cast<uint32_t>(b)));
  }
  g->resize(x->size());
  for (size_t i = 0; i < x->size(); ++i) {
    (*g)[i] = FromBits(BitsOf((*x)[i]) * 0x9e3779b1u);
  }
}

struct Transcendental {
  const char* name;
  // dst[i] = f(x[i]); nullptr runs vec::GeluBackward(g, x, dst, n).
  void (*unary)(const float* x, float* dst, int64_t n);
  double (*exact)(double);  // nullptr: no ulp bound stated
  bool passes_nan;          // a NaN input comes back with its own bits
};

const Transcendental kTranscendentals[] = {
    {"Exp", vec::Exp, [](double v) { return std::exp(v); }, true},
    {"Tanh", vec::Tanh, [](double v) { return std::tanh(v); }, true},
    {"Log", vec::Log, [](double v) { return std::log(v); }, true},
    {"Sigmoid", vec::Sigmoid, nullptr, false},
    {"Gelu", vec::Gelu, nullptr, false},
    {"GeluBackward", nullptr, nullptr, false},
};

void Run(const Transcendental& t, const float* x, const float* g, float* dst,
         int64_t n) {
  if (t.unary != nullptr) {
    t.unary(x, dst, n);
  } else {
    vec::GeluBackward(g, x, dst, n);
  }
}

void RunInPieces(const Transcendental& t, const std::vector<float>& x,
                 const std::vector<float>& g, std::vector<float>* out) {
  out->assign(x.size(), 99.0f);
  const int64_t n = static_cast<int64_t>(x.size());
  for (int64_t i = 0, k = 0; i < n; ++k) {
    const int64_t len = std::min(kPieces[k % std::size(kPieces)], n - i);
    Run(t, x.data() + i, g.data() + i, out->data() + i, len);
    i += len;
  }
}

/// Every level's output against the scalar level's: memcmp-equal where
/// the scalar result is a number, NaN where it is NaN. A computed NaN's
/// sign and payload are left open; a passed-through one keeps its bits.
void ExpectLevelsAgree(uint64_t stride) {
  VecLevelGuard guard;
  std::vector<float> x, g, ref, got;
  for (uint64_t start = 0; start < kAllPatterns;
       start += kSweepChunk * stride) {
    SweepChunk(start, stride, &x, &g);
    for (const Transcendental& t : kTranscendentals) {
      vec::SetLevelForTesting(vec::Level::kScalar);
      RunInPieces(t, x, g, &ref);
      for (size_t i = 0; t.passes_nan && i < x.size(); ++i) {
        ASSERT_TRUE(!std::isnan(x[i]) || BitsOf(ref[i]) == BitsOf(x[i]))
            << t.name << " changed NaN bits " << std::hex << BitsOf(x[i])
            << " to " << BitsOf(ref[i]);
      }
      for (const vec::Level level : AvailableLevels()) {
        if (level == vec::Level::kScalar) continue;
        vec::SetLevelForTesting(level);
        RunInPieces(t, x, g, &got);
        for (size_t i = 0; i < x.size(); ++i) {
          const bool nan_in = std::isnan(x[i]);
          const bool same =
              std::isnan(ref[i])
                  ? std::isnan(got[i]) &&
                        (!t.passes_nan || !nan_in ||
                         BitsOf(got[i]) == BitsOf(x[i]))
                  : BitsOf(got[i]) == BitsOf(ref[i]);
          ASSERT_TRUE(same)
              << t.name << " at " << vec::LevelName(level) << ": x bits "
              << std::hex << BitsOf(x[i]) << " g bits " << BitsOf(g[i])
              << " gave " << BitsOf(got[i]) << ", scalar gave "
              << BitsOf(ref[i]);
        }
      }
    }
  }
}

/// The largest error, in float ulps at the exact result, of each function
/// with a stated bound, at the active level: over the inputs whose exact
/// result is a finite float, denormal results (gradual underflow, where
/// the ulp is 2^-149) included.
void ExpectWithinTwoUlp(uint64_t stride) {
  std::vector<float> x, g, y;
  for (const Transcendental& t : kTranscendentals) {
    if (t.exact == nullptr) continue;
    double worst = 0.0;
    float worst_x = 0.0f;
    for (uint64_t start = 0; start < kAllPatterns;
         start += kSweepChunk * stride) {
      SweepChunk(start, stride, &x, &g);
      y.resize(x.size());
      Run(t, x.data(), g.data(), y.data(), static_cast<int64_t>(x.size()));
      for (size_t i = 0; i < x.size(); ++i) {
        const double want = t.exact(x[i]);
        if (!(std::fabs(want) <= std::numeric_limits<float>::max())) continue;
        int e = 0;
        std::frexp(want, &e);  // |want| in [2^(e-1), 2^e): ulp 2^(e-24)
        const double ulp = std::ldexp(1.0, std::max(e - 24, -149));
        const double err = std::fabs(y[i] - want) / ulp;
        if (!(err <= worst)) {
          worst = err;
          worst_x = x[i];
        }
      }
    }
    std::printf("%s: at most %.3f ulp (x = %.9g)\n", t.name, worst, worst_x);
    EXPECT_LE(worst, 2.0) << t.name << " at x = " << worst_x;
  }
}

TEST(VecBitExactTest, TranscendentalsMatchScalarAtEveryLevel) {
  ExpectLevelsAgree(kSweepStride);
}

TEST(VecAccuracyTest, ExpTanhLogWithinTwoUlpOfDoubleLibm) {
  ExpectWithinTwoUlp(kSweepStride);
}

// Every float, at every level: about 20 minutes on a 4-vCPU Xeon. Run it
// with --gtest_also_run_disabled_tests after a change to the bodies.
TEST(VecAccuracyTest, DISABLED_EveryFloatAgreesAcrossLevelsWithinTwoUlp) {
  ExpectLevelsAgree(1);
  ExpectWithinTwoUlp(1);
}

TEST(VecSemanticsTest, TranscendentalSpecialValues) {
  VecLevelGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct Pin {
    void (*fn)(const float*, float*, int64_t);
    float x, want;  // want NaN: any NaN
  };
  const Pin pins[] = {
      {vec::Exp, -inf, 0.0f},   {vec::Exp, inf, inf},
      {vec::Exp, 0.0f, 1.0f},   {vec::Exp, -0.0f, 1.0f},
      {vec::Tanh, 0.0f, 0.0f},  {vec::Tanh, -0.0f, -0.0f},
      {vec::Tanh, inf, 1.0f},   {vec::Tanh, -inf, -1.0f},
      {vec::Log, 0.0f, -inf},   {vec::Log, -0.0f, -inf},
      {vec::Log, 1.0f, 0.0f},   {vec::Log, inf, inf},
      {vec::Log, -1.0f, nan},   {vec::Log, -inf, nan},
      {vec::Log, -std::numeric_limits<float>::denorm_min(), nan},
  };
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    for (const Pin& p : pins) {
      // 17 copies: a full AVX-512 block and a tail at every level.
      const std::vector<float> x(17, p.x);
      std::vector<float> y(17, 99.0f);
      p.fn(x.data(), y.data(), 17);
      for (const float v : y) {
        if (std::isnan(p.want)) {
          EXPECT_TRUE(std::isnan(v))
              << "x = " << p.x << " " << vec::LevelName(level);
        } else {
          EXPECT_EQ(BitsOf(p.want), BitsOf(v))
              << "x = " << p.x << " gave " << v << " " << vec::LevelName(level);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ddpkit
