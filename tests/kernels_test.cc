// Parity suite for the raw kernel layer (tensor/kernels.h).
//
// Determinism split (see kernels.h): a row of the blocked GEMM is BITWISE
// the same row computed alone, at any offset and for ALL transpose variants
// (the pipeline's byte-identical-output guarantee and the anchor-only last
// layer rest on this), and the blocked GEMM matches the naive reference to
// 1e-5 relative (the reference rounds differently: accumulator seeding and
// per-loop-shape FMA contraction).

#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace taste::tensor::kernels {
namespace {

std::vector<float> RandomVec(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

struct GemmShape {
  int64_t m, n, k;
};

// Covers the register tile (kGemmBandRows x 16), its remainders,
// cache-block boundaries (KC=256, MC=64, NC=512 in kernels.cc), and
// degenerate dims.
const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 16, 7},   {4, 16, 3},   {5, 17, 9},  {3, 1, 64},
    {1, 33, 1},   {7, 7, 7},    {64, 16, 48}, {13, 40, 21}, {65, 513, 12},
    {31, 130, 300},
};

const char* VariantName(bool trans_a, bool trans_b) {
  return trans_a ? (trans_b ? "TT" : "TN") : (trans_b ? "NT" : "NN");
}

void CheckAllVariants(const GemmShape& s) {
  Rng rng(s.m * 1000003 + s.n * 1009 + s.k);
  // Operand storage covers both layouts; transposed variants reinterpret.
  std::vector<float> a = RandomVec(s.m * s.k, rng);
  std::vector<float> b = RandomVec(s.k * s.n, rng);
  std::vector<float> c0 = RandomVec(s.m * s.n, rng);  // nonzero seed: C +=
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      std::vector<float> want = c0;
      GemmAccRef(a.data(), b.data(), want.data(), s.m, s.n, s.k, trans_a,
                 trans_b);
      std::vector<float> got = c0;
      GemmAcc(a.data(), b.data(), got.data(), s.m, s.n, s.k, trans_a,
              trans_b);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        const char* variant = VariantName(trans_a, trans_b);
        ASSERT_NEAR(want[i], got[i], 1e-5f * (1.0f + std::abs(want[i])))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " " << variant
            << " at " << i;
      }
    }
  }
}

TEST(KernelsGemmTest, BlockedMatchesReference) {
  for (const GemmShape& s : kShapes) CheckAllVariants(s);
}

// Column tails: widths that leave a partial 16-column tile (n mod 16 != 0),
// including the attention head width (12), the classifier width (47) and a
// score width (142). The tail columns run through the same zero-padded
// vector tile as full tiles.
const int64_t kTailNs[] = {1, 12, 15, 26, 47, 142};
const int64_t kTailKs[] = {1, 12, 111, 300};

TEST(KernelsGemmTest, ColumnTailMatchesReference) {
  for (int64_t n : kTailNs) {
    for (int64_t k : kTailKs) CheckAllVariants({5, n, k});
  }
}

TEST(KernelsGemmTest, ColumnTailRowBitsIndependentOfRowOffset) {
  // A row computed alone (m = 1) must be bitwise the same row computed at
  // any offset inside a taller problem, tail columns included.
  constexpr int64_t kM = 37;
  const int64_t offsets[] = {0, 18, kM - 1};
  for (int64_t n : kTailNs) {
    for (int64_t k : kTailKs) {
      Rng rng(n * 7919 + k);
      const std::vector<float> row = RandomVec(k, rng);
      const std::vector<float> b = RandomVec(k * n, rng);
      const std::vector<float> c_row = RandomVec(n, rng);
      std::vector<float> tall_a = RandomVec(kM * k, rng);  // (m, k) storage
      std::vector<float> tall_c = RandomVec(kM * n, rng);
      for (int64_t off : offsets) {
        std::copy(row.begin(), row.end(), tall_a.begin() + off * k);
        std::copy(c_row.begin(), c_row.end(), tall_c.begin() + off * n);
      }
      // The same operand in (k, m) storage for the transposed-A variants.
      std::vector<float> tall_at(tall_a.size());
      for (int64_t i = 0; i < kM; ++i) {
        for (int64_t p = 0; p < k; ++p) {
          tall_at[p * kM + i] = tall_a[i * k + p];
        }
      }
      for (bool trans_a : {false, true}) {
        for (bool trans_b : {false, true}) {
          std::vector<float> solo = c_row;
          GemmAcc(row.data(), b.data(), solo.data(), 1, n, k, trans_a,
                  trans_b);
          std::vector<float> tall = tall_c;
          GemmAcc(trans_a ? tall_at.data() : tall_a.data(), b.data(),
                  tall.data(), kM, n, k, trans_a, trans_b);
          for (int64_t off : offsets) {
            EXPECT_EQ(0, std::memcmp(solo.data(), tall.data() + off * n,
                                     sizeof(float) * static_cast<size_t>(n)))
                << "n=" << n << " k=" << k << " "
                << VariantName(trans_a, trans_b) << " row offset " << off;
          }
        }
      }
    }
  }
}

TEST(KernelsGemmTest, ColumnTailSeedsFromCAndWritesOnlyLiveColumns) {
  // C holds a non-zero seed, and guard words follow its last row: the
  // padded tail tile must neither drop the seed nor store past column n.
  // (16 guards cover a whole register tile, so a stray full-width store
  // lands on them rather than corrupting the heap.)
  constexpr float kGuard = -12345.5f;
  constexpr size_t kGuards = 16;
  for (int64_t n : kTailNs) {
    const int64_t m = 6, k = 40;
    Rng rng(n + 3);
    const std::vector<float> a = RandomVec(m * k, rng);
    const std::vector<float> b = RandomVec(k * n, rng);
    std::vector<float> seed = RandomVec(m * n, rng);
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        std::vector<float> want = seed;
        GemmAccRef(a.data(), b.data(), want.data(), m, n, k, trans_a,
                   trans_b);
        std::vector<float> got = seed;
        got.resize(seed.size() + kGuards, kGuard);
        GemmAcc(a.data(), b.data(), got.data(), m, n, k, trans_a, trans_b);
        for (size_t g = seed.size(); g < got.size(); ++g) {
          ASSERT_EQ(got[g], kGuard) << "n=" << n << " "
                                    << VariantName(trans_a, trans_b)
                                    << " guard " << g - seed.size();
        }
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_NEAR(want[i], got[i], 1e-5f * (1.0f + std::abs(want[i])))
              << "n=" << n << " " << VariantName(trans_a, trans_b) << " at "
              << i;
        }
      }
    }
  }
}

TEST(KernelsGemmTest, ZeroSizedProblemsAreNoOps) {
  float sentinel = 42.0f;
  GemmAcc(nullptr, nullptr, &sentinel, 0, 0, 0, false, false);
  EXPECT_EQ(sentinel, 42.0f);
  // k = 0: C unchanged (the sum over p is empty).
  std::vector<float> c = {1.0f, 2.0f};
  GemmAcc(nullptr, nullptr, c.data(), 1, 2, 0, false, false);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
}

TEST(KernelsGemmTest, RowBitsIndependentOfBandOffset) {
  // m = 1 .. 2 bands + 1, every row placed at every offset: a row computed
  // inside a taller problem, at any position relative to the register band
  // edges, is bitwise the row computed alone. A sits in an allocation of
  // exactly m * k floats, so a padding row that reads past the live rows
  // trips AddressSanitizer.
  constexpr int64_t kBand = kGemmBandRows;
  const int64_t n = 27, k = 48;
  Rng rng(kBand);
  const std::vector<float> b = RandomVec(k * n, rng);
  for (int64_t m = 1; m <= 2 * kBand + 1; ++m) {
    const std::vector<float> a = RandomVec(m * k, rng);
    const std::vector<float> c0 = RandomVec(m * n, rng);
    std::vector<float> tall = c0;
    GemmAcc(a.data(), b.data(), tall.data(), m, n, k, false, false);
    for (int64_t i = 0; i < m; ++i) {
      std::vector<float> solo(c0.begin() + i * n, c0.begin() + (i + 1) * n);
      GemmAcc(a.data() + i * k, b.data(), solo.data(), 1, n, k, false,
              false);
      EXPECT_EQ(0, std::memcmp(solo.data(), tall.data() + i * n,
                               sizeof(float) * static_cast<size_t>(n)))
          << "m=" << m << " row " << i;
    }
  }
}

// -- Overwrite and bias epilogue (Gemm), in-place B -------------------------

TEST(KernelsGemmTest, OverwriteIgnoresPoisonedCBitwise) {
  // Gemm seeds its first k-block with zero instead of reading C: over a
  // NaN-filled C it must equal GemmAcc into a zeroed C, bit for bit, for
  // every variant.
  for (const GemmShape& s : kShapes) {
    Rng rng(s.m * 31 + s.n * 17 + s.k);
    const std::vector<float> a = RandomVec(s.m * s.k, rng);
    const std::vector<float> b = RandomVec(s.k * s.n, rng);
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        std::vector<float> want(static_cast<size_t>(s.m * s.n), 0.0f);
        GemmAcc(a.data(), b.data(), want.data(), s.m, s.n, s.k, trans_a,
                trans_b);
        std::vector<float> got(want.size(), std::nanf(""));
        Gemm(a.data(), b.data(), nullptr, got.data(), s.m, s.n, s.k, trans_a,
             trans_b);
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 sizeof(float) * want.size()))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " "
            << VariantName(trans_a, trans_b);
      }
    }
  }
}

TEST(KernelsGemmTest, BiasEpilogueEqualsGemmAccThenAddBias) {
  // The last k-block adds the bias as it stores. That must be bitwise a
  // zero-seeded GemmAcc followed by a separate x + b pass (AddBias), for k
  // inside one KC block and past it, and widths on and off the 16-column
  // grid.
  for (int64_t k : {12, 48, 128, 300}) {
    for (int64_t n : {12, 48, 111, 128}) {
      for (int64_t m : {1, 9, 31}) {
        Rng rng(k * 7919 + n * 31 + m);
        const std::vector<float> a = RandomVec(m * k, rng);
        const std::vector<float> b = RandomVec(k * n, rng);
        const std::vector<float> bias = RandomVec(n, rng);
        for (bool trans_a : {false, true}) {
          for (bool trans_b : {false, true}) {
            std::vector<float> want(static_cast<size_t>(m * n), 0.0f);
            GemmAcc(a.data(), b.data(), want.data(), m, n, k, trans_a,
                    trans_b);
            for (int64_t r = 0; r < m; ++r) {
              for (int64_t j = 0; j < n; ++j) {
                want[r * n + j] = want[r * n + j] + bias[j];
              }
            }
            std::vector<float> got(want.size(), std::nanf(""));
            Gemm(a.data(), b.data(), bias.data(), got.data(), m, n, k,
                 trans_a, trans_b);
            EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                     sizeof(float) * want.size()))
                << "m=" << m << " n=" << n << " k=" << k << " "
                << VariantName(trans_a, trans_b);
          }
        }
      }
    }
  }
  // k = 0: the product is empty, so C becomes the bias, or zeros.
  const std::vector<float> bias = {1.5f, -2.0f, 0.25f};
  std::vector<float> c(6, std::nanf(""));
  Gemm(nullptr, nullptr, bias.data(), c.data(), 2, 3, 0, false, false);
  EXPECT_EQ(c, (std::vector<float>{1.5f, -2.0f, 0.25f, 1.5f, -2.0f, 0.25f}));
  Gemm(nullptr, nullptr, nullptr, c.data(), 2, 3, 0, false, false);
  EXPECT_EQ(c, std::vector<float>(6, 0.0f));
}

TEST(KernelsGemmTest, InPlaceBMatchesPackedBBitwise) {
  // A non-transposed B whose columns fill whole 16-column tiles is read in
  // place, any other B is packed. The same product through B in place and
  // through a packed transposed copy of B must agree bit for bit, also
  // past one NC block of columns.
  for (int64_t n : {16, 48, 128, 528}) {
    for (int64_t k : {12, 48, 300}) {
      for (int64_t m : {1, 9, 70}) {
        Rng rng(n * 131 + k * 7 + m);
        const std::vector<float> a = RandomVec(m * k, rng);
        const std::vector<float> b = RandomVec(k * n, rng);
        std::vector<float> b_t(b.size());
        for (int64_t p = 0; p < k; ++p) {
          for (int64_t j = 0; j < n; ++j) b_t[j * k + p] = b[p * n + j];
        }
        const std::vector<float> c0 = RandomVec(m * n, rng);
        std::vector<float> packed = c0;
        GemmAcc(a.data(), b_t.data(), packed.data(), m, n, k, false, true);
        std::vector<float> in_place = c0;
        GemmAcc(a.data(), b.data(), in_place.data(), m, n, k, false, false);
        EXPECT_EQ(0, std::memcmp(packed.data(), in_place.data(),
                                 sizeof(float) * packed.size()))
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(KernelsTest, SoftmaxRowsMatchesManual) {
  Rng rng(7);
  const int64_t rows = 5, h = 9;
  std::vector<float> x = RandomVec(rows * h, rng);
  std::vector<float> y(x.size());
  SoftmaxRows(x.data(), y.data(), rows, h);
  for (int64_t r = 0; r < rows; ++r) {
    float sum = 0;
    for (int64_t j = 0; j < h; ++j) {
      EXPECT_GT(y[r * h + j], 0.0f);
      sum += y[r * h + j];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(KernelsTest, LayerNormRowsNormalizes) {
  Rng rng(9);
  const int64_t rows = 4, h = 16;
  std::vector<float> x = RandomVec(rows * h, rng);
  std::vector<float> gamma(h, 1.0f), beta(h, 0.0f);
  std::vector<float> y(x.size()), xhat(x.size()), inv_std(rows);
  LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f, rows, h, y.data(),
                xhat.data(), inv_std.data());
  for (int64_t r = 0; r < rows; ++r) {
    float mean = 0, var = 0;
    for (int64_t j = 0; j < h; ++j) mean += y[r * h + j];
    mean /= h;
    for (int64_t j = 0; j < h; ++j) {
      float d = y[r * h + j] - mean;
      var += d * d;
    }
    var /= h;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
    EXPECT_GT(inv_std[r], 0.0f);
  }
  // With identity affine, y == xhat.
  for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], xhat[i]);
}

TEST(KernelsTest, LayerNormRowsManyRowsMatchOneRowAtATimeBitwise) {
  // Under AVX-512 whole groups of 16 rows (h % 8 == 0) are normalized side
  // by side, one row per lane; every other row runs the one-row loop. Each
  // row's y, xhat and inv_std must be the bytes of normalizing it alone,
  // for every row count (all leftover, whole groups, groups plus leftover)
  // and with or without the side buffers the backward reads.
  for (int64_t h : {8, 12, 48, 312}) {
    for (int64_t rows = 1; rows <= 40; ++rows) {
      SCOPED_TRACE(::testing::Message() << "h=" << h << " rows=" << rows);
      Rng rng(static_cast<uint64_t>(100 * h + rows));
      std::vector<float> x = RandomVec(rows * h, rng);
      // Rows far from zero mean, as post-residual activations are.
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t j = 0; j < h; ++j) x[r * h + j] += 0.5f * (r % 7);
      }
      const std::vector<float> gamma = RandomVec(h, rng);
      const std::vector<float> beta = RandomVec(h, rng);
      std::vector<float> want_y(x.size()), want_xhat(x.size()),
          want_inv(static_cast<size_t>(rows));
      for (int64_t r = 0; r < rows; ++r) {
        LayerNormRows(x.data() + r * h, gamma.data(), beta.data(), 1e-5f, 1,
                      h, want_y.data() + r * h, want_xhat.data() + r * h,
                      want_inv.data() + r);
      }
      std::vector<float> y(x.size()), xhat(x.size()),
          inv(static_cast<size_t>(rows));
      LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f, rows, h,
                    y.data(), xhat.data(), inv.data());
      EXPECT_EQ(std::memcmp(y.data(), want_y.data(), sizeof(float) * y.size()),
                0);
      EXPECT_EQ(std::memcmp(xhat.data(), want_xhat.data(),
                            sizeof(float) * xhat.size()),
                0);
      EXPECT_EQ(
          std::memcmp(inv.data(), want_inv.data(), sizeof(float) * inv.size()),
          0);
      std::vector<float> y_only(x.size());
      LayerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f, rows, h,
                    y_only.data(), nullptr, nullptr);
      EXPECT_EQ(std::memcmp(y_only.data(), want_y.data(),
                            sizeof(float) * y_only.size()),
                0);
    }
  }
}

TEST(KernelsTest, GeluRowsMatchesClosedForm) {
  constexpr float kC = 0.7978845608028654f;
  constexpr float kA = 0.044715f;
  std::vector<float> x = {-3.0f, -1.0f, -0.1f, 0.0f, 0.1f, 1.0f, 3.0f};
  std::vector<float> y(x.size());
  GeluRows(x.data(), y.data(), static_cast<int64_t>(x.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    float v = x[i];
    float u = kC * (v + kA * v * v * v);
    // The vectorized kernel uses a polynomial tanh; it must stay within a
    // tight band of the libm closed form.
    EXPECT_NEAR(y[i], 0.5f * v * (1.0f + std::tanh(u)), 1e-6f);
  }
}

TEST(KernelsTest, GeluRowsTailMatchesFullVector) {
  // The masked tail must produce byte-identical results to the same
  // elements computed inside a full 8-lane vector.
  std::vector<float> x(16);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = -4.0f + 0.53f * static_cast<float>(i);
  }
  std::vector<float> full(16), prefix(11);
  GeluRows(x.data(), full.data(), 16);
  GeluRows(x.data(), prefix.data(), 11);  // 8-lane vector + 3-lane tail
  for (size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], full[i]);
}

TEST(KernelsTest, SoftmaxRowsWidthIndependentOfRowCount) {
  // A row's softmax must depend only on that row's bytes, not on how many
  // rows share the call — the row-stability byte contract.
  std::vector<float> x = {0.3f, -1.2f, 2.5f, 0.0f, 1.7f, -0.4f, 0.9f,
                          4.1f, -2.2f, 0.6f, 1.1f, -0.7f, 3.3f};
  const int64_t h = static_cast<int64_t>(x.size());
  std::vector<float> solo(x.size());
  SoftmaxRows(x.data(), solo.data(), 1, h);
  std::vector<float> batch_in;
  for (int r = 0; r < 3; ++r) batch_in.insert(batch_in.end(), x.begin(), x.end());
  std::vector<float> batch_out(batch_in.size());
  SoftmaxRows(batch_in.data(), batch_out.data(), 3, h);
  for (int r = 0; r < 3; ++r) {
    for (int64_t j = 0; j < h; ++j) {
      EXPECT_EQ(batch_out[static_cast<size_t>(r * h + j)], solo[static_cast<size_t>(j)]);
    }
  }
}

TEST(KernelsTest, SpanHelpers) {
  std::vector<float> a = {1, 2, 3}, b = {10, 20, 30}, y(3);
  AddSpan(a.data(), b.data(), y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{11, 22, 33}));
  SubSpan(b.data(), a.data(), y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{9, 18, 27}));
  MulSpan(a.data(), b.data(), y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{10, 40, 90}));
  ScaleSpan(a.data(), 2.0f, y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{2, 4, 6}));
  std::vector<float> acc = {1, 1, 1};
  AccumulateSpan(a.data(), acc.data(), 3);
  EXPECT_EQ(acc, (std::vector<float>{2, 3, 4}));
  AxpySpan(-1.0f, a.data(), acc.data(), 3);
  EXPECT_EQ(acc, (std::vector<float>{1, 1, 1}));
  MulAccumulateSpan(a.data(), b.data(), acc.data(), 3);
  EXPECT_EQ(acc, (std::vector<float>{11, 41, 91}));
}

}  // namespace
}  // namespace taste::tensor::kernels
