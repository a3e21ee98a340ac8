#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace taste::tensor::kernels {

namespace {

// Blocking parameters. MR x NR is the register tile of the micro kernel:
// kGemmBandRows x 16 floats, two ymm accumulators per row (GCC emits
// 256-bit FMAs for the 16-float row even under AVX-512: 8 x 2 ymm there,
// 4 x 2 on AVX2), leaving room for the A broadcasts and B loads. KC x NC
// bounds the packed B panel (512 KiB) so it stays cache-resident while the
// row sweep reuses it; MC bounds the rows one panel sweep covers (and a
// transposed A's packed panel).
constexpr int64_t kMr = kGemmBandRows;
constexpr int64_t kNr = 16;
constexpr int64_t kKc = 256;
constexpr int64_t kMc = 64;
constexpr int64_t kNc = 512;
static_assert(kMc % kMr == 0, "a row sweep must hold whole bands");

/// Packs op(A)[i0:i0+mb, p0:p0+kb] of a transposed A (stored (k, m) with
/// row stride lda) into dst (mb x kb row-major). A non-transposed A needs
/// no packing: the micro kernel reads its rows in place.
void PackTransposedA(float* __restrict dst, const float* a, int64_t lda,
                     int64_t i0, int64_t mb, int64_t p0, int64_t kb) {
  // Column i0+r of the storage becomes packed row r.
  for (int64_t q = 0; q < kb; ++q) {
    const float* src = a + (p0 + q) * lda + i0;
    for (int64_t r = 0; r < mb; ++r) dst[r * kb + q] = src[r];
  }
}

/// Packs op(B)[p0:p0+kb, j0:j0+nb] into dst (kb x nb_pad row-major), where
/// nb_pad rounds nb up to a whole number of kNr-wide tiles; the padding
/// columns are zero, so the micro kernel runs every column tile full width.
void PackB(float* __restrict dst, const float* b, int64_t ldb, int64_t p0,
           int64_t kb, int64_t j0, int64_t nb, int64_t nb_pad, bool trans_b) {
  if (!trans_b) {
    for (int64_t q = 0; q < kb; ++q) {
      const float* src = b + (p0 + q) * ldb + j0;
      float* d = dst + q * nb_pad;
      for (int64_t t = 0; t < nb; ++t) d[t] = src[t];
    }
  } else {
    // B stored (n, k): row j0+t of the storage becomes packed column t.
    for (int64_t t = 0; t < nb; ++t) {
      const float* src = b + (j0 + t) * ldb + p0;
      for (int64_t q = 0; q < kb; ++q) dst[q * nb_pad + t] = src[q];
    }
  }
  for (int64_t q = 0; q < kb; ++q) {
    std::fill(dst + q * nb_pad + nb, dst + (q + 1) * nb_pad, 0.0f);
  }
}

/// C-tile update: C[.., ..] = seed + A * pb (+ bias) where A's row r (kb
/// floats) starts at arows[r], for r < mb_pad (a multiple of kMr), and pb
/// is kb rows of at least nb floats, ldb apart, whose columns past nb (up
/// to the next multiple of kNr) are zero padding. Rows at and past `live`
/// point at a row of kb zeros and the padding columns compute exact zeros
/// (or NaN against a non-finite B). The seed is C when kSeedFromC, else
/// zero (C is then only written, and may be uninitialized); with kBias,
/// `bias` holds nb floats added to each row as it is stored. The
/// accumulators are updated in increasing-p order, so each element's
/// floating-point summation order is exactly the naive kernel's.
///
/// With kScale the stored value is the finished sum times `scale`: one
/// more rounding, the one a separate scaling pass would make.
///
/// Without kWhole only the first `live` rows and `nb` columns of C are
/// read or written: a partial column tile goes through a zero-padded
/// staging copy. With kWhole, C is scratch with room for every band row
/// and whole tiles (nb a multiple of kNr): all of them are read and
/// written, with no staging and no row guard.
///
/// There is deliberately NO scalar remainder path, for rows or columns:
/// every row — padding included — flows through the one kMr-band loop, and
/// every column — the last partial tile included — through the one
/// kNr-wide vector accumulation. Only the seeding and the store are
/// limited to the live columns, and a partial tile's padding lanes seed
/// from zero. So an element's bits depend only on its own A-row, its op(B)
/// column and the k blocking, never on where the row sits inside M or the
/// column inside N. (A per-loop-shape remainder would let the compiler
/// contract mul+add differently there, making row bytes shift when rows
/// are concatenated.) With AVX2 and FMA the tile is written with explicit
/// FMA intrinsics: the instruction GCC contracted the portable loop to,
/// on the same operands in the same order, so the bits are the same.
/// Each instantiation stays out of line, with its own register allocation.
template <bool kSeedFromC, bool kBias, bool kWhole, bool kScale>
__attribute__((noinline)) void MicroTileImpl(
    const float* const* arows, const float* __restrict pb, int64_t ldb,
    float* __restrict c, int64_t ldc, int64_t mb_pad, int64_t nb, int64_t kb,
    int64_t live, const float* bias, float scale) {
  for (int64_t i = 0; i < mb_pad; i += kMr) {
    const int64_t band_live = kWhole ? kMr : std::min(kMr, live - i);
    for (int64_t j = 0; j < nb; j += kNr) {
      // A partial tile runs on a zero-padded copy of its live C columns
      // (and bias), so every tile — the tail included — is the same
      // full-width code below.
      const int64_t cols = kWhole ? kNr : std::min(kNr, nb - j);
      float stage[kMr][kNr];
      float* ct = c + i * ldc + j;
      int64_t ldt = ldc;
      if (cols < kNr) {
        if (kSeedFromC) {
          for (int64_t r = 0; r < band_live; ++r) {
            std::copy(ct + r * ldc, ct + r * ldc + cols, stage[r]);
            std::fill(stage[r] + cols, stage[r] + kNr, 0.0f);
          }
        }
        ct = &stage[0][0];
        ldt = kNr;
      }
      float bt[kNr] = {};
      if (kBias) std::copy(bias + j, bias + j + cols, bt);
#if defined(__AVX2__) && defined(__FMA__)
      // Two 8-float halves per row, held in registers for the whole tile:
      // every loop below has a constant trip count, so nothing spills.
      __m256 lo[kMr], hi[kMr];
      for (int64_t r = 0; r < kMr; ++r) {
        if (kSeedFromC && r < band_live) {
          lo[r] = _mm256_loadu_ps(ct + r * ldt);
          hi[r] = _mm256_loadu_ps(ct + r * ldt + 8);
        } else {
          lo[r] = _mm256_setzero_ps();
          hi[r] = _mm256_setzero_ps();
        }
      }
      const float* a[kMr];
      for (int64_t r = 0; r < kMr; ++r) a[r] = arows[i + r];
      for (int64_t p = 0; p < kb; ++p) {
        const __m256 b_lo = _mm256_loadu_ps(pb + p * ldb + j);
        const __m256 b_hi = _mm256_loadu_ps(pb + p * ldb + j + 8);
        for (int64_t r = 0; r < kMr; ++r) {
          const __m256 av = _mm256_broadcast_ss(a[r] + p);
          lo[r] = _mm256_fmadd_ps(av, b_lo, lo[r]);
          hi[r] = _mm256_fmadd_ps(av, b_hi, hi[r]);
        }
      }
      const __m256 bias_lo = _mm256_loadu_ps(bt);
      const __m256 bias_hi = _mm256_loadu_ps(bt + 8);
      const __m256 vscale = _mm256_set1_ps(scale);
      for (int64_t r = 0; r < kMr; ++r) {
        if (r >= band_live) break;
        __m256 out_lo = lo[r], out_hi = hi[r];
        if (kBias) {
          out_lo = _mm256_add_ps(out_lo, bias_lo);
          out_hi = _mm256_add_ps(out_hi, bias_hi);
        } else if (kScale) {
          out_lo = _mm256_mul_ps(out_lo, vscale);
          out_hi = _mm256_mul_ps(out_hi, vscale);
        }
        _mm256_storeu_ps(ct + r * ldt, out_lo);
        _mm256_storeu_ps(ct + r * ldt + 8, out_hi);
      }
#else
      float acc[kMr][kNr];
      for (int64_t r = 0; r < kMr; ++r) {
        if (kSeedFromC && r < band_live) {
          const float* crow = ct + r * ldt;
          for (int64_t t = 0; t < kNr; ++t) acc[r][t] = crow[t];
        } else {
          for (int64_t t = 0; t < kNr; ++t) acc[r][t] = 0.0f;
        }
      }
      for (int64_t p = 0; p < kb; ++p) {
        const float* __restrict brow = pb + p * ldb + j;
        for (int64_t r = 0; r < kMr; ++r) {
          const float av = arows[i + r][p];
          for (int64_t t = 0; t < kNr; ++t) acc[r][t] += av * brow[t];
        }
      }
      for (int64_t r = 0; r < band_live; ++r) {
        float* crow = ct + r * ldt;
        for (int64_t t = 0; t < kNr; ++t) {
          crow[t] = kBias    ? acc[r][t] + bt[t]
                    : kScale ? acc[r][t] * scale
                             : acc[r][t];
        }
      }
#endif
      if (cols < kNr) {
        for (int64_t r = 0; r < band_live; ++r) {
          std::copy(stage[r], stage[r] + cols, c + (i + r) * ldc + j);
        }
      }
    }
  }
}

/// The C access of one MicroTile call (see MicroTileImpl). `scale` other
/// than 1 is only taken with `whole`.
struct TileMode {
  bool seed_from_c = false;
  const float* bias = nullptr;
  bool whole = false;
  float scale = 1.0f;
};

void MicroTile(const float* const* arows, const float* pb, int64_t ldb,
               float* c, int64_t ldc, int64_t mb_pad, int64_t nb, int64_t kb,
               int64_t live, TileMode mode) {
  const float* bias = mode.bias;
  const float scale = mode.scale;
  if (mode.whole) {
    if (scale != 1.0f) {
      MicroTileImpl<false, false, true, true>(arows, pb, ldb, c, ldc, mb_pad,
                                              nb, kb, live, bias, scale);
    } else {
      MicroTileImpl<false, false, true, false>(arows, pb, ldb, c, ldc, mb_pad,
                                               nb, kb, live, bias, scale);
    }
  } else if (mode.seed_from_c) {
    if (bias != nullptr) {
      MicroTileImpl<true, true, false, false>(arows, pb, ldb, c, ldc, mb_pad,
                                              nb, kb, live, bias, scale);
    } else {
      MicroTileImpl<true, false, false, false>(arows, pb, ldb, c, ldc, mb_pad,
                                               nb, kb, live, bias, scale);
    }
  } else if (bias != nullptr) {
    MicroTileImpl<false, true, false, false>(arows, pb, ldb, c, ldc, mb_pad,
                                             nb, kb, live, bias, scale);
  } else {
    MicroTileImpl<false, false, false, false>(arows, pb, ldb, c, ldc, mb_pad,
                                              nb, kb, live, bias, scale);
  }
}

struct PackScratch {
  std::vector<float> a;
  std::vector<float> b;
  std::vector<float> zero;  // kKc zeros: the A row of every padding row
};

PackScratch& Scratch() {
  thread_local PackScratch s;
  return s;
}

/// How a GEMM treats C: accumulate into it, or overwrite it (the first
/// k-block seeds zero) and add `bias` (n floats, or null) in the last.
struct GemmEpilogue {
  bool overwrite = false;
  const float* bias = nullptr;
};

/// GemmAcc and Gemm over dense row-major operands: A stored (m, k), or
/// (k, m) if trans_a; B stored (k, n), or (n, k) if trans_b; C (m, n).
void GemmBlocked(const float* a, const float* b, float* c, int64_t m,
                 int64_t n, int64_t k, bool trans_a, bool trans_b,
                 GemmEpilogue ep) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // The sum over p is empty: C keeps its value, or becomes the bias.
    if (!ep.overwrite) return;
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      if (ep.bias != nullptr) {
        std::copy(ep.bias, ep.bias + n, crow);
      } else {
        std::fill(crow, crow + n, 0.0f);
      }
    }
    return;
  }
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  PackScratch& s = Scratch();
  if (trans_a) s.a.resize(static_cast<size_t>(kMc * kKc));
  s.b.resize(static_cast<size_t>(kKc * kNc));
  s.zero.resize(static_cast<size_t>(kKc));
  const float* arows[kMc];
  for (int64_t j0 = 0; j0 < n; j0 += kNc) {
    const int64_t nb = std::min(kNc, n - j0);
    const int64_t nb_pad = (nb + kNr - 1) / kNr * kNr;
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t kb = std::min(kKc, k - p0);
      // A non-transposed B whose live columns are whole tiles already is
      // the panel, with row stride ldb; anything else is packed.
      const float* panel = b + p0 * ldb + j0;
      int64_t ld_panel = ldb;
      if (trans_b || nb != nb_pad) {
        PackB(s.b.data(), b, ldb, p0, kb, j0, nb, nb_pad, trans_b);
        panel = s.b.data();
        ld_panel = nb_pad;
      }
      const bool seed_from_c = !ep.overwrite || p0 > 0;
      const float* bias =
          ep.bias != nullptr && p0 + kb == k ? ep.bias + j0 : nullptr;
      for (int64_t i0 = 0; i0 < m; i0 += kMc) {
        const int64_t mb = std::min(kMc, m - i0);
        const int64_t mb_pad = (mb + kMr - 1) / kMr * kMr;
        if (trans_a) {
          PackTransposedA(s.a.data(), a, lda, i0, mb, p0, kb);
          for (int64_t r = 0; r < mb; ++r) arows[r] = s.a.data() + r * kb;
        } else {
          for (int64_t r = 0; r < mb; ++r) arows[r] = a + (i0 + r) * lda + p0;
        }
        // Padding rows read zeros; their (discarded) products are exact
        // zeros, and no read goes past A's last live row.
        for (int64_t r = mb; r < mb_pad; ++r) arows[r] = s.zero.data();
        MicroTile(arows, panel, ld_panel, c + i0 * n + j0, n, mb_pad, nb, kb,
                  mb, TileMode{seed_from_c, bias});
      }
    }
  }
}

struct AttentionScratch {
  std::vector<float> k_mem, v_mem;  // the block's packed memory panels
  std::vector<float> k_own, v_own;  // every span's packed own panels
  std::vector<float> scores;        // 2 kMr rows of ld_scores floats
  std::vector<float> ctx;           // 2 kMr rows of hd_pad floats
  std::vector<float> zero;          // the A row of every padding row
};

/// `buf` grown to at least n floats.
float* Grow(std::vector<float>& buf, int64_t n) {
  if (buf.size() < static_cast<size_t>(n)) buf.resize(static_cast<size_t>(n));
  return buf.data();
}

int64_t RoundUpToTile(int64_t n) { return (n + kNr - 1) / kNr * kNr; }

}  // namespace

void GemmAccRef(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool trans_a, bool trans_b) {
  if (!trans_a && !trans_b) {
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      const float* arow = a + i * k;
      for (int64_t p = 0; p < k; ++p) {
        float av = arow[p];
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!trans_a && trans_b) {
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] += acc;
      }
    }
  } else if (trans_a && !trans_b) {
    for (int64_t p = 0; p < k; ++p) {
      const float* arow = a + p * m;
      const float* brow = b + p * n;
      for (int64_t i = 0; i < m; ++i) {
        float av = arow[i];
        float* crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else {  // trans_a && trans_b
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += a[p * m + i] * brow[p];
        crow[j] += acc;
      }
    }
  }
}

void GemmAcc(const float* a, const float* b, float* c, int64_t m, int64_t n,
             int64_t k, bool trans_a, bool trans_b) {
  GemmBlocked(a, b, c, m, n, k, trans_a, trans_b, GemmEpilogue{});
}

void Gemm(const float* a, const float* b, const float* bias, float* c,
          int64_t m, int64_t n, int64_t k, bool trans_a, bool trans_b) {
  GemmBlocked(a, b, c, m, n, k, trans_a, trans_b, GemmEpilogue{true, bias});
}

#if defined(__AVX2__) && defined(__FMA__)

namespace {

/// Lane masks for a [0, 8) element tail: kTailMask + 8 - n yields n active
/// (all-ones) low lanes. Masked load/store keeps every active element on
/// the same instruction path as full vectors, so results cannot depend on
/// where a row's tail happens to fall, or on how many rows share the call.
alignas(32) constexpr int32_t kTailMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i TailMask(int64_t n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 8 - n));
}

/// exp(x), 8 lanes: clamp to [-87, 88] (well inside float range; softmax
/// feeds only x <= 0), base-2 range reduction with a Cody-Waite two-term
/// ln2, and the classic Cephes degree-5 polynomial — ~2 ulp over the
/// reduced range, exp(0) == 1 exactly (the softmax max lane). One shared
/// implementation: every exp in the process computes the same bits for the
/// same input, whatever op called it.
inline __m256 Exp256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.0f)),
                    _mm256_set1_ps(88.0f));
  const __m256 n = _mm256_floor_ps(_mm256_fmadd_ps(
      x, _mm256_set1_ps(1.44269504088896341f), _mm256_set1_ps(0.5f)));
  __m256 f = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  f = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), f);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 z = _mm256_mul_ps(f, f);
  __m256 y = _mm256_fmadd_ps(p, z, f);
  y = _mm256_add_ps(y, one);
  // 2^n via exponent bits; n is in [-125, 127] after the clamp, so the
  // biased exponent stays in (0, 255) — no overflow or denormal scales.
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(bits));
}

/// tanh(u) = 1 - 2 / (exp(2u) + 1); saturates cleanly at ±1 through the
/// exp clamp. Absolute error ~1e-7 — the GELU contract is the vectorized
/// approximation, not libm (tests compare against a 1e-6 band).
inline __m256 Tanh256(__m256 u) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp256(_mm256_add_ps(u, u));
  return _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_add_ps(one, one), _mm256_add_ps(e, one)));
}

#if defined(__AVX512F__)
// The AVX-512 code uses the zero-masked (maskz) form of the intrinsics that
// GCC 12 builds on an undefined source vector, which -Wmaybe-uninitialized
// flags; with an all-ones mask the result is the plain intrinsic's.
constexpr __mmask16 kAll16 = 0xFFFF;

/// Exp256 on 16 lanes, operation for operation, so every lane's bits are
/// Exp256's for the same input.
inline __m512 Exp512(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  x = _mm512_maskz_min_ps(
      kAll16, _mm512_maskz_max_ps(kAll16, x, _mm512_set1_ps(-87.0f)),
      _mm512_set1_ps(88.0f));
  const __m512 n = _mm512_maskz_roundscale_ps(
      kAll16,
      _mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504088896341f),
                      _mm512_set1_ps(0.5f)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  __m512 f = _mm512_fnmadd_ps(n, _mm512_set1_ps(0.693359375f), x);
  f = _mm512_fnmadd_ps(n, _mm512_set1_ps(-2.12194440e-4f), f);
  __m512 p = _mm512_set1_ps(1.9875691500e-4f);
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.3981999507e-3f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(8.3334519073e-3f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(4.1665795894e-2f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.6666665459e-1f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(5.0000001201e-1f));
  const __m512 z = _mm512_mul_ps(f, f);
  __m512 y = _mm512_fmadd_ps(p, z, f);
  y = _mm512_add_ps(y, one);
  const __m512i bits = _mm512_maskz_slli_epi32(
      kAll16,
      _mm512_add_epi32(_mm512_maskz_cvttps_epi32(kAll16, n),
                       _mm512_set1_epi32(127)),
      23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(bits));
}

/// The lower (half 0) or upper (half 1) 8 lanes of v.
template <int kHalf>
inline __m256 Half256(__m512 v) {
  return _mm256_castpd_ps(
      _mm512_maskz_extractf64x4_pd(0xF, _mm512_castps_pd(v), kHalf));
}
#endif  // __AVX512F__

inline float HorizontalMax(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_movehdup_ps(m));
  return _mm_cvtss_f32(m);
}

inline float HorizontalSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

/// y[0, h) = x[0, h) + mask[0, h) when mask is non-null (y may be x);
/// returns the max of the (masked) row, h >= 1. fp max is exact, so the
/// vector widths and the scalar tail cannot change it.
float MaskedRowMax(const float* x, const float* mask, float* y, int64_t h) {
  float mx = x[0] + (mask != nullptr ? mask[0] : 0.0f);
  int64_t j = 0;
#if defined(__AVX512F__)
  if (h >= 16) {
    __m512 vm = _mm512_set1_ps(mx);
    for (; j + 16 <= h; j += 16) {
      __m512 v = _mm512_loadu_ps(x + j);
      if (mask != nullptr) {
        v = _mm512_add_ps(v, _mm512_loadu_ps(mask + j));
        _mm512_storeu_ps(y + j, v);
      }
      vm = _mm512_maskz_max_ps(kAll16, vm, v);
    }
    mx = HorizontalMax(_mm256_max_ps(Half256<0>(vm), Half256<1>(vm)));
  }
#endif
  if (h - j >= 8) {
    __m256 vm = _mm256_set1_ps(mx);
    for (; j + 8 <= h; j += 8) {
      __m256 v = _mm256_loadu_ps(x + j);
      if (mask != nullptr) {
        v = _mm256_add_ps(v, _mm256_loadu_ps(mask + j));
        _mm256_storeu_ps(y + j, v);
      }
      vm = _mm256_max_ps(vm, v);
    }
    mx = HorizontalMax(vm);
  }
  for (; j < h; ++j) {
    float v = x[j];
    if (mask != nullptr) {
      v += mask[j];
      y[j] = v;
    }
    mx = std::max(mx, v);
  }
  return mx;
}

/// out[0, h) = softmax(row[0, h)) given the row's max (out may be row).
void SoftmaxRowWithMax(const float* row, float* out, int64_t h, float mx) {
  // exp and sum. Element j joins lane j mod 8 of the partial sum in
  // increasing j, then one horizontal reduction: the order is fixed by h
  // alone, so a row's sum depends only on that row's bytes.
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  int64_t j = 0;
#if defined(__AVX512F__)
  // Sixteen elements at a time; the halves join the sum in that order.
  const __m512 vmx16 = _mm512_set1_ps(mx);
  for (; j + 16 <= h; j += 16) {
    const __m512 e = Exp512(_mm512_sub_ps(_mm512_loadu_ps(row + j), vmx16));
    _mm512_storeu_ps(out + j, e);
    vsum = _mm256_add_ps(vsum, Half256<0>(e));
    vsum = _mm256_add_ps(vsum, Half256<1>(e));
  }
#endif
  for (; j + 8 <= h; j += 8) {
    const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(row + j), vmx));
    _mm256_storeu_ps(out + j, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  if (j < h) {
    const __m256i mask = TailMask(h - j);
    const __m256 v = _mm256_maskload_ps(row + j, mask);
    // Zero the inactive lanes (maskload fed them 0, exp made that 1).
    const __m256 e = _mm256_and_ps(Exp256(_mm256_sub_ps(v, vmx)),
                                   _mm256_castsi256_ps(mask));
    _mm256_maskstore_ps(out + j, mask, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  const float inv = 1.0f / HorizontalSum(vsum);
  j = 0;
#if defined(__AVX512F__)
  const __m512 vinv16 = _mm512_set1_ps(inv);
  for (; j + 16 <= h; j += 16) {
    _mm512_storeu_ps(out + j, _mm512_mul_ps(_mm512_loadu_ps(out + j), vinv16));
  }
#endif
  const __m256 vinv = _mm256_set1_ps(inv);
  for (; j + 8 <= h; j += 8) {
    _mm256_storeu_ps(out + j, _mm256_mul_ps(_mm256_loadu_ps(out + j), vinv));
  }
  for (; j < h; ++j) out[j] *= inv;
}

}  // namespace

#else  // !(__AVX2__ && __FMA__)

namespace {

float MaskedRowMax(const float* x, const float* mask, float* y, int64_t h) {
  float mx = x[0] + (mask != nullptr ? mask[0] : 0.0f);
  for (int64_t j = 0; j < h; ++j) {
    float v = x[j];
    if (mask != nullptr) {
      v += mask[j];
      y[j] = v;
    }
    mx = std::max(mx, v);
  }
  return mx;
}

void SoftmaxRowWithMax(const float* row, float* out, int64_t h, float mx) {
  float sum = 0;
  for (int64_t j = 0; j < h; ++j) {
    float e = std::exp(row[j] - mx);
    out[j] = e;
    sum += e;
  }
  float inv = 1.0f / sum;
  for (int64_t j = 0; j < h; ++j) out[j] *= inv;
}

}  // namespace

#endif  // __AVX2__ && __FMA__

void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t h) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * h;
    const float mx = MaskedRowMax(row, nullptr, nullptr, h);
    SoftmaxRowWithMax(row, y + r * h, h, mx);
  }
}

void SoftmaxGradRows(const float* y, const float* dy, float* dx,
                     int64_t rows, int64_t h) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* yr = y + r * h;
    const float* dyr = dy + r * h;
    float* dxr = dx + r * h;
    float dot = 0;
    for (int64_t j = 0; j < h; ++j) dot += dyr[j] * yr[j];
    for (int64_t j = 0; j < h; ++j) dxr[j] += yr[j] * (dyr[j] - dot);
  }
}

namespace {

/// `v` itself, opaque to the optimizer: a product passed through it is
/// rounded on its own and never contracted into an FMA with the add that
/// consumes it, whatever the build (-ffp-contract=fast, sanitizers).
inline float Rounded(float v) {
#if defined(__x86_64__) || defined(__i386__)
  asm("" : "+x"(v));
#else
  volatile float pinned = v;
  v = pinned;
#endif
  return v;
}

/// LayerNormRows one row at a time, rows [r0, rows): each row's mean and
/// variance are sequential sums over its h elements, each d * d rounded
/// before it is added, and y = fma(gamma, xhat, beta). Every step is
/// spelled out, so no compiler choice (vectorizing the products, or not
/// and contracting them) can move a bit.
void LayerNormRowLoop(const float* x, const float* gamma, const float* beta,
                      float eps, int64_t r0, int64_t rows, int64_t h,
                      float* y, float* xhat, float* inv_std) {
  for (int64_t r = r0; r < rows; ++r) {
    const float* row = x + r * h;
    float mean = 0;
    for (int64_t j = 0; j < h; ++j) mean += row[j];
    mean /= static_cast<float>(h);
    float var = 0;
    for (int64_t j = 0; j < h; ++j) {
      float d = row[j] - mean;
      var += Rounded(d * d);
    }
    var /= static_cast<float>(h);
    float inv = 1.0f / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std[r] = inv;
    for (int64_t j = 0; j < h; ++j) {
      float xh = (row[j] - mean) * inv;
      if (xhat != nullptr) xhat[r * h + j] = xh;
      y[r * h + j] = std::fma(gamma[j], xh, beta[j]);
    }
  }
}

#if defined(__AVX512F__)

/// Rows normalized side by side, one per zmm lane.
constexpr int64_t kLayerNormLanes = 16;

/// Transposes the 8 x 8 block rows[0..8) in place: afterwards rows[c]
/// holds column c. Data movement only.
inline void Transpose8x8(__m256 rows[8]) {
  __m256 t[8];
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm256_unpacklo_ps(rows[2 * i], rows[2 * i + 1]);
    t[2 * i + 1] = _mm256_unpackhi_ps(rows[2 * i], rows[2 * i + 1]);
  }
  __m256 u[8];
  for (int i = 0; i < 2; ++i) {
    u[4 * i] = _mm256_shuffle_ps(t[4 * i], t[4 * i + 2], 0x44);
    u[4 * i + 1] = _mm256_shuffle_ps(t[4 * i], t[4 * i + 2], 0xEE);
    u[4 * i + 2] = _mm256_shuffle_ps(t[4 * i + 1], t[4 * i + 3], 0x44);
    u[4 * i + 3] = _mm256_shuffle_ps(t[4 * i + 1], t[4 * i + 3], 0xEE);
  }
  for (int c = 0; c < 4; ++c) {
    rows[c] = _mm256_permute2f128_ps(u[c], u[c + 4], 0x20);
    rows[c + 4] = _mm256_permute2f128_ps(u[c], u[c + 4], 0x31);
  }
}

/// LayerNormRowLoop's arithmetic for rows [r0, r0 + 16) of an h % 8 == 0
/// matrix, lane i of each zmm computing row r0 + i. The rows are first
/// transposed into a scratch panel (column j of the 16 rows at
/// panel + 16 j), so each sum walks its row in the loop's order: lane i
/// adds row[0], row[1], ... to its own mean and its own variance chain,
/// with the same roundings. The product d * d is pinned as its own
/// rounding, as in the loop: an FMA contraction of the add would move the
/// bits. The output pass is the loop's, row by row: (x - mean) * inv,
/// then fma(gamma, xhat, beta).
void LayerNormSixteenRows(const float* x, const float* gamma,
                          const float* beta, float eps, int64_t r0, int64_t h,
                          float* y, float* xhat, float* inv_std) {
  thread_local std::vector<float> scratch;
  float* panel = Grow(scratch, kLayerNormLanes * h);
  const float* x0 = x + r0 * h;
  for (int64_t j = 0; j < h; j += 8) {
    for (int64_t half = 0; half < 2; ++half) {
      __m256 block[8];
      for (int64_t i = 0; i < 8; ++i) {
        block[i] = _mm256_loadu_ps(x0 + (half * 8 + i) * h + j);
      }
      Transpose8x8(block);
      for (int64_t c = 0; c < 8; ++c) {
        _mm256_storeu_ps(panel + (j + c) * kLayerNormLanes + half * 8,
                         block[c]);
      }
    }
  }
  const __m512 count = _mm512_set1_ps(static_cast<float>(h));
  __m512 mean = _mm512_setzero_ps();
  for (int64_t j = 0; j < h; ++j) {
    mean = _mm512_add_ps(mean, _mm512_loadu_ps(panel + j * kLayerNormLanes));
  }
  mean = _mm512_div_ps(mean, count);
  __m512 var = _mm512_setzero_ps();
  for (int64_t j = 0; j < h; ++j) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(panel + j * kLayerNormLanes), mean);
    __m512 square = _mm512_mul_ps(d, d);
    asm("" : "+v"(square));  // keeps d * d its own rounding (no FMA)
    var = _mm512_add_ps(var, square);
  }
  var = _mm512_div_ps(var, count);
  const __m512 inv = _mm512_div_ps(
      _mm512_set1_ps(1.0f),
      _mm512_maskz_sqrt_ps(kAll16,
                           _mm512_add_ps(var, _mm512_set1_ps(eps))));
  alignas(64) float means[kLayerNormLanes];
  alignas(64) float invs[kLayerNormLanes];
  _mm512_store_ps(means, mean);
  _mm512_store_ps(invs, inv);
  if (inv_std != nullptr) _mm512_storeu_ps(inv_std + r0, inv);
  for (int64_t i = 0; i < kLayerNormLanes; ++i) {
    const int64_t r = r0 + i;
    const __m256 m = _mm256_set1_ps(means[i]);
    const __m256 v = _mm256_set1_ps(invs[i]);
    for (int64_t j = 0; j < h; j += 8) {
      const __m256 xh =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + r * h + j), m), v);
      if (xhat != nullptr) _mm256_storeu_ps(xhat + r * h + j, xh);
      _mm256_storeu_ps(y + r * h + j,
                       _mm256_fmadd_ps(_mm256_loadu_ps(gamma + j), xh,
                                       _mm256_loadu_ps(beta + j)));
    }
  }
}

#endif  // __AVX512F__

}  // namespace

void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, int64_t rows, int64_t h, float* y, float* xhat,
                   float* inv_std) {
  int64_t r = 0;
#if defined(__AVX512F__)
  if (h % 8 == 0) {
    for (; r + kLayerNormLanes <= rows; r += kLayerNormLanes) {
      LayerNormSixteenRows(x, gamma, beta, eps, r, h, y, xhat, inv_std);
    }
  }
#endif
  LayerNormRowLoop(x, gamma, beta, eps, r, rows, h, y, xhat, inv_std);
}

void LayerNormGradRows(const float* gamma, const float* xhat,
                       const float* inv_std, const float* dy, int64_t rows,
                       int64_t h, float* dgamma, float* dbeta, float* dx) {
  if (dgamma != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t j = 0; j < h; ++j) {
        dgamma[j] += dy[r * h + j] * xhat[r * h + j];
      }
    }
  }
  if (dbeta != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t j = 0; j < h; ++j) dbeta[j] += dy[r * h + j];
    }
  }
  if (dx != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      float mean_dxhat = 0, mean_dxhat_xhat = 0;
      for (int64_t j = 0; j < h; ++j) {
        float dxh = dy[r * h + j] * gamma[j];
        mean_dxhat += dxh;
        mean_dxhat_xhat += dxh * xhat[r * h + j];
      }
      mean_dxhat /= static_cast<float>(h);
      mean_dxhat_xhat /= static_cast<float>(h);
      float inv = inv_std[r];
      for (int64_t j = 0; j < h; ++j) {
        float dxh = dy[r * h + j] * gamma[j];
        dx[r * h + j] +=
            inv * (dxh - mean_dxhat - xhat[r * h + j] * mean_dxhat_xhat);
      }
    }
  }
}

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

}  // namespace

#if defined(__AVX2__) && defined(__FMA__)

void GeluRows(const float* x, float* y, int64_t n) {
  const __m256 vc = _mm256_set1_ps(kGeluC);
  const __m256 va = _mm256_set1_ps(kGeluA);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 v2 = _mm256_mul_ps(v, v);
    const __m256 u =
        _mm256_mul_ps(vc, _mm256_fmadd_ps(va, _mm256_mul_ps(v2, v), v));
    const __m256 t = Tanh256(u);
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
  if (i < n) {
    const __m256i mask = TailMask(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, mask);
    const __m256 v2 = _mm256_mul_ps(v, v);
    const __m256 u =
        _mm256_mul_ps(vc, _mm256_fmadd_ps(va, _mm256_mul_ps(v2, v), v));
    const __m256 t = Tanh256(u);
    _mm256_maskstore_ps(
        y + i, mask,
        _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
}

#else  // !(__AVX2__ && __FMA__)

void GeluRows(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    float v = x[i];
    float u = kGeluC * (v + kGeluA * v * v * v);
    y[i] = 0.5f * v * (1.0f + std::tanh(u));
  }
}

#endif  // __AVX2__ && __FMA__

void GeluGradRows(const float* x, const float* dy, float* dx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    float v = x[i];
    float u = kGeluC * (v + kGeluA * v * v * v);
    float t = std::tanh(u);
    float du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
    dx[i] += (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du) * dy[i];
  }
}

void AddSpan(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

void SubSpan(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] - b[i];
}

void MulSpan(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
}

void ScaleSpan(const float* x, float s, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] * s;
}

void AccumulateSpan(const float* src, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void AxpySpan(float alpha, const float* src, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void MulAccumulateSpan(const float* a, const float* b, float* dst,
                       int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

void AttentionBlockForward(const AttentionBlock& block, const float* q,
                           const float* k, const float* v, float* probs,
                           float* out) {
  thread_local AttentionScratch s;
  const int64_t ld = block.ld;
  const int64_t hd = block.head_dim;
  const int64_t sm = block.sm;
  const int64_t width = block.width;
  const int64_t own = width - sm;
  const int64_t hd_pad = RoundUpToTile(hd);
  const int64_t sm_pad = RoundUpToTile(sm);
  const int64_t own_pad = RoundUpToTile(own);
  // Keys are the scores' op(B) (hd x keys, packed from (keys, hd) rows),
  // values the context's (keys x hd): the panels GemmAcc would pack.
  float* k_mem = Grow(s.k_mem, hd * sm_pad);
  float* v_mem = Grow(s.v_mem, sm * hd_pad);
  PackB(k_mem, k + block.mem_begin * ld, ld, 0, hd, 0, sm, sm_pad, true);
  PackB(v_mem, v + block.mem_begin * ld, ld, 0, sm, 0, hd, hd_pad, false);
  const int64_t k_own_size = hd * own_pad;
  const int64_t v_own_size = own * hd_pad;
  float* k_own = Grow(s.k_own, block.num_spans * k_own_size);
  float* v_own = Grow(s.v_own, block.num_spans * v_own_size);
  int64_t rows = 0;
  for (int64_t i = 0; i < block.num_spans; ++i) {
    const AttentionBlockSpan& sp = block.spans[i];
    rows += sp.rows;
    if (sp.rows == 0 || own == 0) continue;
    PackB(k_own + i * k_own_size, k + sp.own_begin * ld, ld, 0, hd, 0, own,
          own_pad, true);
    PackB(v_own + i * v_own_size, v + sp.own_begin * ld, ld, 0, own, 0, hd,
          hd_pad, false);
  }
  // The band's scores and context live in scratch tiles wide enough for
  // whole register tiles: a score row holds the memory tiles, then the own
  // tiles from column sm (overwriting the memory tail's zero padding), so
  // its first `width` floats are the scores. Both have 2 kMr rows because
  // a span's share of a band may start at any band row.
  const int64_t ld_scores = std::max(sm_pad, sm + own_pad);
  float* scores = Grow(s.scores, 2 * kMr * ld_scores);
  float* ctx = Grow(s.ctx, 2 * kMr * hd_pad);
  const float* zero = Grow(s.zero, std::max(hd, width));  // only ever zeros
  // Scores are stored scaled: the scale's rounding, then the mask's.
  const TileMode scored{false, nullptr, true, block.scale};
  const float* q0 = q + block.query_begin * ld;
  float* out0 = out + block.query_begin * ld;
  const float* arows[kMr];
  // The span holding band row b0, and the block row it starts at.
  int64_t first = 0;
  int64_t first_row = 0;
  for (int64_t b0 = 0; b0 < rows; b0 += kMr) {
    const int64_t live = std::min(kMr, rows - b0);
    while (first_row + block.spans[first].rows <= b0) {
      first_row += block.spans[first].rows;
      ++first;
    }
    // Calls fn(span, span index, first band row, rows, first span row) for
    // each span's share of the band, in row order.
    auto for_each_piece = [&](auto&& fn) {
      int64_t start = first_row;
      for (int64_t i = first; i < block.num_spans && start < b0 + live; ++i) {
        const AttentionBlockSpan& sp = block.spans[i];
        const int64_t lo = std::max(start, b0);
        const int64_t hi = std::min(start + sp.rows, b0 + live);
        if (hi > lo) fn(sp, i, lo - b0, hi - lo, lo - start);
        start += sp.rows;
      }
    };
    // Scores: every band row against the memory keys, then each span's
    // rows against its own keys, scaled as they are stored. A share's
    // whole-tile store also writes the band rows after it, which the next
    // share then overwrites.
    for (int64_t r = 0; r < kMr; ++r) {
      arows[r] = r < live ? q0 + (b0 + r) * ld : zero;
    }
    MicroTile(arows, k_mem, sm_pad, scores, ld_scores, kMr, sm_pad, hd, live,
              scored);
    if (own > 0) {
      for_each_piece([&](const AttentionBlockSpan&, int64_t i, int64_t r0,
                         int64_t n, int64_t) {
        for (int64_t r = 0; r < kMr; ++r) {
          arows[r] = r < n ? q0 + (b0 + r0 + r) * ld : zero;
        }
        MicroTile(arows, k_own + i * k_own_size, own_pad,
                  scores + r0 * ld_scores + sm, ld_scores, kMr, own_pad, hd, n,
                  scored);
      });
    }
    // Mask -> softmax, each its own rounding after the scale's, as the
    // unfused chain.
    for_each_piece([&](const AttentionBlockSpan& sp, int64_t, int64_t r0,
                       int64_t n, int64_t sr) {
      for (int64_t r = r0; r < r0 + n; ++r) {
        float* row = scores + r * ld_scores;
        const float* mask = sp.mask != nullptr
                                ? sp.mask + (sr + r - r0) * sp.mask_stride
                                : nullptr;
        SoftmaxRowWithMax(row, row, width, MaskedRowMax(row, mask, row, width));
        if (probs != nullptr) {
          std::copy(row, row + width, probs + (b0 + r) * width);
        }
      }
    });
    // Context: P[:, :sm] V_mem for the whole band (zero seed), then each
    // span's P[:, sm:] V_own continues every element's chain from the
    // exact partial sum stored in between.
    for (int64_t r = 0; r < kMr; ++r) {
      arows[r] = r < live ? scores + r * ld_scores : zero;
    }
    MicroTile(arows, v_mem, hd_pad, ctx, hd_pad, kMr, hd_pad, sm, live,
              TileMode{false, nullptr, true});
    if (own > 0) {
      for_each_piece([&](const AttentionBlockSpan&, int64_t i, int64_t r0,
                         int64_t n, int64_t) {
        for (int64_t r = 0; r < kMr; ++r) {
          arows[r] = r < n ? scores + (r0 + r) * ld_scores + sm : zero;
        }
        MicroTile(arows, v_own + i * v_own_size, hd_pad, ctx + r0 * hd_pad,
                  hd_pad, kMr, hd_pad, own, n, TileMode{true, nullptr, false});
      });
    }
    for (int64_t r = 0; r < live; ++r) {
      std::copy(ctx + r * hd_pad, ctx + r * hd_pad + hd, out0 + (b0 + r) * ld);
    }
  }
}

}  // namespace taste::tensor::kernels
