#include "tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/status.h"

#if defined(__AVX512BW__) || defined(__AVX2__) || defined(__SSE4_1__)
#include <immintrin.h>
#endif

namespace taste::tensor::quant {

namespace {

/// round(x) to nearest, ties away from zero — lrintf depends on the
/// process rounding mode, and the quantized grid must be identical on
/// every replica regardless of what a library set, so round half away
/// (std::nearbyint is mode-dependent too; floorf of |x|+0.5 is not).
inline int32_t RoundAway(float x) {
  // floor(|x| + 0.5) with the sign reapplied — the same value as
  // floor(x+0.5)/ceil(x-0.5) per branch (negation is exact), written in the
  // abs-magnitude form so it mirrors the SIMD quantizer instruction for
  // instruction; the fabs in the middle also keeps -ffp-contract from
  // fusing a caller's multiply into the +0.5, which could change rounding.
  const int32_t mag = static_cast<int32_t>(std::floor(std::fabs(x) + 0.5f));
  return x < 0.0f ? -mag : mag;
}

inline int8_t QuantizeValue(float v, float inv_scale) {
  int32_t q = RoundAway(v * inv_scale);
  q = std::max<int32_t>(-127, std::min<int32_t>(127, q));
  return static_cast<int8_t>(q);
}

/// The shared fp32 dequantization epilogue: one compiled instance called by
/// every kernel flavour, so identical int32 accumulators become identical
/// float bytes no matter which flavour produced them.
void DequantRow(const int32_t* acc, float a_scale, const float* w_scales,
                const float* bias, int64_t n, float* out) {
  if (bias != nullptr) {
    for (int64_t j = 0; j < n; ++j) {
      out[j] = static_cast<float>(acc[j]) * (a_scale * w_scales[j]) + bias[j];
    }
  } else {
    for (int64_t j = 0; j < n; ++j) {
      out[j] = static_cast<float>(acc[j]) * (a_scale * w_scales[j]);
    }
  }
}

// -- Kernel flavours ----------------------------------------------------------
//
// Each computes, for one activation row `a16` (k_pad int16s, int8-range)
// and all column blocks of `w`, the exact int32 accumulators
//   acc[j] = sum_p a16[2p]*B[2p,j] + a16[2p+1]*B[2p+1,j]
// into `acc` (col_blocks * kQuantNr int32s). Integer arithmetic is exact,
// so all flavours produce bitwise identical accumulators by construction.

void AccumulateRowPortable(const int16_t* a16, const PackedQuantWeight& w,
                           int32_t* acc) {
  const int64_t pairs = w.k_pad / 2;
  for (int64_t b = 0; b < w.col_blocks; ++b) {
    const int8_t* panel = w.packed.data() + b * pairs * 2 * kQuantNr;
    int32_t local[kQuantNr] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (int64_t p = 0; p < pairs; ++p) {
      const int8_t* bp = panel + p * 2 * kQuantNr;
      const int32_t a0 = a16[2 * p];
      const int32_t a1 = a16[2 * p + 1];
      for (int64_t j = 0; j < kQuantNr; ++j) {
        local[j] += a0 * bp[2 * j] + a1 * bp[2 * j + 1];
      }
    }
    for (int64_t j = 0; j < kQuantNr; ++j) acc[b * kQuantNr + j] = local[j];
  }
}

#if defined(__SSE4_1__)
void AccumulateRowSse41(const int16_t* a16, const PackedQuantWeight& w,
                        int32_t* acc) {
  const int64_t pairs = w.k_pad / 2;
  for (int64_t b = 0; b < w.col_blocks; ++b) {
    const int8_t* panel = w.packed.data() + b * pairs * 2 * kQuantNr;
    // Four xmm registers cover one 16-column block (4 int32 lanes each).
    __m128i c[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                    _mm_setzero_si128(), _mm_setzero_si128()};
    for (int64_t p = 0; p < pairs; ++p) {
      const int8_t* bp = panel + p * 2 * kQuantNr;
      // One activation k-pair broadcast into every 32-bit lane as two
      // int16s; madd multiplies against the interleaved weight pairs and
      // reduces each pair into an int32 lane — the int8×int8→int32 step.
      int32_t pair_bits;
      std::memcpy(&pair_bits, a16 + 2 * p, sizeof(pair_bits));
      const __m128i apair = _mm_set1_epi32(pair_bits);
      for (int t = 0; t < 4; ++t) {
        const __m128i bq = _mm_cvtepi8_epi16(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bp + 8 * t)));
        c[t] = _mm_add_epi32(c[t], _mm_madd_epi16(apair, bq));
      }
    }
    for (int t = 0; t < 4; ++t) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + b * kQuantNr + 4 * t),
                       c[t]);
    }
  }
}
#endif  // __SSE4_1__

#if defined(__AVX2__)
/// acc += pairwise-dot(a, b): one vpdpwssd when a VNNI flavour is compiled
/// in, else madd + add. Both compute the exact int32 value (the int16×int16
/// pair products sum to at most 2·127²·… well inside int32; vpdpwssd does
/// not saturate), so the fused and unfused forms are bitwise identical.
inline __m256i MaddAcc256(__m256i acc, __m256i a, __m256i b) {
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
  return _mm256_dpwssd_epi32(acc, a, b);
#elif defined(__AVXVNNI__)
  return _mm256_dpwssd_avx_epi32(acc, a, b);
#else
  return _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
#endif
}

/// ROWS activation rows against every column block; the widened weight
/// panel load is the expensive part of the inner loop, so it is amortized
/// across rows (each row's multiply-adds land in its own accumulators).
/// `acc` holds ROWS consecutive accumulator rows of col_blocks * kQuantNr.
template <int ROWS>
void AccumulateRowsAvx2(const int16_t* const* a, const PackedQuantWeight& w,
                        int32_t* acc) {
  const int64_t pairs = w.k_pad / 2;
  const int64_t stride = w.col_blocks * kQuantNr;
  for (int64_t b = 0; b < w.col_blocks; ++b) {
    const int8_t* panel = w.packed.data() + b * pairs * 2 * kQuantNr;
    __m256i c[ROWS][2];
    for (int r = 0; r < ROWS; ++r) {
      c[r][0] = _mm256_setzero_si256();
      c[r][1] = _mm256_setzero_si256();
    }
    for (int64_t p = 0; p < pairs; ++p) {
      const int8_t* bp = panel + p * 2 * kQuantNr;
      const __m256i b0 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp)));
      const __m256i b1 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + kQuantNr)));
      for (int r = 0; r < ROWS; ++r) {
        int32_t pair_bits;
        std::memcpy(&pair_bits, a[r] + 2 * p, sizeof(pair_bits));
        const __m256i av = _mm256_set1_epi32(pair_bits);
        c[r][0] = MaddAcc256(c[r][0], av, b0);
        c[r][1] = MaddAcc256(c[r][1], av, b1);
      }
    }
    for (int r = 0; r < ROWS; ++r) {
      int32_t* out = acc + r * stride + b * kQuantNr;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), c[r][0]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), c[r][1]);
    }
  }
}
#endif  // __AVX2__

#if defined(__AVX512BW__)
/// See MaddAcc256: exact either way, fused when VNNI is compiled in.
inline __m512i MaddAcc512(__m512i acc, __m512i a, __m512i b) {
#if defined(__AVX512VNNI__)
  return _mm512_dpwssd_epi32(acc, a, b);
#else
  return _mm512_add_epi32(acc, _mm512_madd_epi16(a, b));
#endif
}

/// One zmm accumulator per (row, block): a whole 16-column block is one
/// 256-bit panel load, one widen, and ROWS multiply-adds per k-pair.
template <int ROWS>
void AccumulateRowsAvx512(const int16_t* const* a, const PackedQuantWeight& w,
                          int32_t* acc) {
  const int64_t pairs = w.k_pad / 2;
  const int64_t stride = w.col_blocks * kQuantNr;
  for (int64_t b = 0; b < w.col_blocks; ++b) {
    const int8_t* panel = w.packed.data() + b * pairs * 2 * kQuantNr;
    __m512i c[ROWS];
    for (int r = 0; r < ROWS; ++r) c[r] = _mm512_setzero_si512();
    for (int64_t p = 0; p < pairs; ++p) {
      const int8_t* bp = panel + p * 2 * kQuantNr;
      const __m512i bv = _mm512_cvtepi8_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp)));
      for (int r = 0; r < ROWS; ++r) {
        int32_t pair_bits;
        std::memcpy(&pair_bits, a[r] + 2 * p, sizeof(pair_bits));
        c[r] = MaddAcc512(c[r], _mm512_set1_epi32(pair_bits), bv);
      }
    }
    for (int r = 0; r < ROWS; ++r) {
      _mm512_storeu_si512(acc + r * stride + b * kQuantNr, c[r]);
    }
  }
}
#endif  // __AVX512BW__

/// Per-thread scratch for the fused quantize+GEMM path and the per-row
/// int32 accumulators. Exactly the PackScratch pattern of kernels.cc.
struct QuantScratch {
  std::vector<int16_t> a16;
  std::vector<float> a_scales;
  std::vector<int32_t> acc;
};

QuantScratch& Scratch() {
  thread_local QuantScratch scratch;
  return scratch;
}

#if defined(__AVX512BW__) || defined(__AVX2__)
/// Runs a ROWS-at-a-time accumulator over [r, r1) while it fits, dequantizes
/// each produced row, and returns the first row not processed.
template <int ROWS, typename Fn>
int64_t RunRowBlocks(Fn accumulate, const int16_t* qa, const float* a_scales,
                     const PackedQuantWeight& w, const float* bias, float* c,
                     int64_t r, int64_t r1, int32_t* acc) {
  const int64_t acc_elems = w.col_blocks * kQuantNr;
  for (; r + ROWS <= r1; r += ROWS) {
    const int16_t* rows[ROWS];
    for (int i = 0; i < ROWS; ++i) rows[i] = qa + (r + i) * w.k_pad;
    accumulate(rows, w, acc);
    for (int64_t i = 0; i < ROWS; ++i) {
      DequantRow(acc + i * acc_elems, a_scales[r + i], w.scales.data(), bias,
                 w.cols, c + (r + i) * w.cols);
    }
  }
  return r;
}
#endif

}  // namespace

QuantKernel BestQuantKernel() {
#if defined(__AVX512BW__)
  return QuantKernel::kAvx512;
#elif defined(__AVX2__)
  return QuantKernel::kAvx2;
#elif defined(__SSE4_1__)
  return QuantKernel::kSse41;
#else
  return QuantKernel::kPortable;
#endif
}

bool QuantKernelAvailable(QuantKernel k) {
  switch (k) {
    case QuantKernel::kPortable:
      return true;
    case QuantKernel::kSse41:
#if defined(__SSE4_1__)
      return true;
#else
      return false;
#endif
    case QuantKernel::kAvx2:
#if defined(__AVX2__)
      return true;
#else
      return false;
#endif
    case QuantKernel::kAvx512:
#if defined(__AVX512BW__)
      return true;
#else
      return false;
#endif
    case QuantKernel::kAuto:
      return false;
  }
  return false;
}

const char* QuantKernelName(QuantKernel k) {
  switch (k) {
    case QuantKernel::kAuto:
      return "auto";
    case QuantKernel::kPortable:
      return "portable";
    case QuantKernel::kSse41:
      return "sse4_1";
    case QuantKernel::kAvx2:
      return "avx2";
    case QuantKernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

PackedQuantWeight PackWeightPerChannel(const float* w, int64_t rows,
                                       int64_t cols) {
  TASTE_CHECK(rows > 0 && cols > 0);
  PackedQuantWeight out;
  out.rows = rows;
  out.cols = cols;
  out.k_pad = PaddedK(rows);
  out.col_blocks = (cols + kQuantNr - 1) / kQuantNr;
  out.scales.resize(static_cast<size_t>(cols));

  std::vector<float> inv(static_cast<size_t>(cols), 0.0f);
  for (int64_t j = 0; j < cols; ++j) {
    float amax = 0.0f;
    for (int64_t i = 0; i < rows; ++i) {
      amax = std::max(amax, std::fabs(w[i * cols + j]));
    }
    // An all-zero channel quantizes to all zeros; scale 0 keeps its
    // dequantized output exactly 0.0f without a divide-by-zero.
    out.scales[static_cast<size_t>(j)] = amax > 0.0f ? amax / 127.0f : 0.0f;
    inv[static_cast<size_t>(j)] = amax > 0.0f ? 127.0f / amax : 0.0f;
  }

  const int64_t pairs = out.k_pad / 2;
  out.packed.assign(
      static_cast<size_t>(out.col_blocks * pairs * 2 * kQuantNr), 0);
  for (int64_t b = 0; b < out.col_blocks; ++b) {
    int8_t* panel = out.packed.data() + b * pairs * 2 * kQuantNr;
    for (int64_t p = 0; p < pairs; ++p) {
      for (int64_t jc = 0; jc < kQuantNr; ++jc) {
        const int64_t j = b * kQuantNr + jc;
        if (j >= cols) continue;  // zero-padded column
        const float is = inv[static_cast<size_t>(j)];
        const int64_t k0 = 2 * p;
        const int64_t k1 = 2 * p + 1;
        int8_t* slot = panel + p * 2 * kQuantNr + 2 * jc;
        slot[0] = QuantizeValue(w[k0 * cols + j], is);
        slot[1] = k1 < rows ? QuantizeValue(w[k1 * cols + j], is)
                            : static_cast<int8_t>(0);
      }
    }
  }
  return out;
}

namespace {

/// |max| over a row. The SIMD body computes the same value as the scalar
/// loop — fabs and max are exact and order-independent for non-NaN input.
float RowAbsMax(const float* row, int64_t k) {
  int64_t j = 0;
  float amax = 0.0f;
#if defined(__AVX2__)
  if (k >= 8) {
    const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 vm = _mm256_setzero_ps();
    for (; j + 8 <= k; j += 8) {
      vm = _mm256_max_ps(vm, _mm256_and_ps(_mm256_loadu_ps(row + j), mask));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vm);
    for (float v : lanes) amax = std::max(amax, v);
  }
#endif
  for (; j < k; ++j) amax = std::max(amax, std::fabs(row[j]));
  return amax;
}

/// Quantizes one row into int16s. The SIMD body is the elementwise
/// round-half-away formula of QuantizeValue with every operation a single
/// correctly-rounded IEEE instruction (mul, abs, +0.5, floor, convert,
/// clamp, copysign), so its bytes match the scalar tail exactly.
void QuantizeRow(const float* row, int64_t k, float inv, int16_t* qrow) {
  int64_t j = 0;
#if defined(__AVX2__)
  if (k >= 8) {
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256 vhalf = _mm256_set1_ps(0.5f);
    const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256i vmax = _mm256_set1_epi32(127);
    for (; j + 8 <= k; j += 8) {
      const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(row + j), vinv);
      const __m256 mag = _mm256_floor_ps(
          _mm256_add_ps(_mm256_and_ps(t, mask), vhalf));
      __m256i qi = _mm256_min_epi32(_mm256_cvttps_epi32(mag), vmax);
      // sign_epi32 negates where t's float bits read as a negative int32 —
      // exactly the rows where the scalar path took the ceil(x-0.5) branch
      // with a nonzero result (a magnitude of 0 stays 0 either way).
      qi = _mm256_sign_epi32(qi, _mm256_castps_si256(t));
      const __m128i packed = _mm_packs_epi32(
          _mm256_castsi256_si128(qi), _mm256_extracti128_si256(qi, 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(qrow + j), packed);
    }
  }
#endif
  for (; j < k; ++j) {
    qrow[j] = static_cast<int16_t>(QuantizeValue(row[j], inv));
  }
}

}  // namespace

void QuantizeActivationRows(const float* x, int64_t m, int64_t k, int16_t* q,
                            float* scales) {
  const int64_t k_pad = PaddedK(k);
  for (int64_t r = 0; r < m; ++r) {
    const float* row = x + r * k;
    const float amax = RowAbsMax(row, k);
    const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
    scales[r] = amax > 0.0f ? amax / 127.0f : 1.0f;
    int16_t* qrow = q + r * k_pad;
    QuantizeRow(row, k, inv, qrow);
    if (k_pad > k) qrow[k] = 0;
  }
}

void QuantGemm(const int16_t* qa, const float* a_scales,
               const PackedQuantWeight& w, const float* bias, float* c,
               int64_t m, QuantKernel kernel) {
  TASTE_CHECK(m > 0);
  if (kernel == QuantKernel::kAuto) kernel = BestQuantKernel();
  TASTE_CHECK_MSG(QuantKernelAvailable(kernel),
                  "requested quant kernel not compiled in");
  QuantScratch& s = Scratch();
  const size_t acc_elems = static_cast<size_t>(w.col_blocks * kQuantNr);
  if (s.acc.size() < 8 * acc_elems) s.acc.resize(8 * acc_elems);
  int64_t r = 0;
#if defined(__AVX512BW__)
  if (kernel == QuantKernel::kAvx512) {
    // Eight-row main blocks, then a four-row block for the tail: the panel
    // walk is the bandwidth cost, so amortize it over as many rows as the
    // remainder allows before falling to the single-row loop below.
    r = RunRowBlocks<8>(AccumulateRowsAvx512<8>, qa, a_scales, w, bias, c, r,
                        m, s.acc.data());
    r = RunRowBlocks<4>(AccumulateRowsAvx512<4>, qa, a_scales, w, bias, c, r,
                        m, s.acc.data());
  }
#endif
#if defined(__AVX2__)
  if (kernel == QuantKernel::kAvx2) {
    r = RunRowBlocks<4>(AccumulateRowsAvx2<4>, qa, a_scales, w, bias, c, r,
                        m, s.acc.data());
  }
#endif
  for (; r < m; ++r) {
    const int16_t* row = qa + r * w.k_pad;
    switch (kernel) {
#if defined(__AVX512BW__)
      case QuantKernel::kAvx512: {
        const int16_t* rows[1] = {row};
        AccumulateRowsAvx512<1>(rows, w, s.acc.data());
        break;
      }
#endif
#if defined(__AVX2__)
      case QuantKernel::kAvx2: {
        const int16_t* rows[1] = {row};
        AccumulateRowsAvx2<1>(rows, w, s.acc.data());
        break;
      }
#endif
#if defined(__SSE4_1__)
      case QuantKernel::kSse41:
        AccumulateRowSse41(row, w, s.acc.data());
        break;
#endif
      default:
        AccumulateRowPortable(row, w, s.acc.data());
        break;
    }
    DequantRow(s.acc.data(), a_scales[r], w.scales.data(), bias, w.cols,
               c + r * w.cols);
  }
}

void QuantLinearForward(const float* x, int64_t m, const PackedQuantWeight& w,
                        const float* bias, float* c, QuantKernel kernel) {
  QuantScratch& s = Scratch();
  const size_t need_a = static_cast<size_t>(m * w.k_pad);
  if (s.a16.size() < need_a) s.a16.resize(need_a);
  if (s.a_scales.size() < static_cast<size_t>(m)) {
    s.a_scales.resize(static_cast<size_t>(m));
  }
  QuantizeActivationRows(x, m, w.rows, s.a16.data(), s.a_scales.data());
  QuantGemm(s.a16.data(), s.a_scales.data(), w, bias, c, m, kernel);
}

}  // namespace taste::tensor::quant
