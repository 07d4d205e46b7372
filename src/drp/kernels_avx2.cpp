// AVX2 arm of best_add_read_pass (kernels_avx2.hpp).  Compiled with -mavx2
// and -ffp-contract=off only when AGTRAM_SIMD=ON on an x86-64 target;
// dispatch in kernels.cpp guarantees the CPU supports AVX2 before any call
// lands here.
//
// Bit-identity rules (kernels.hpp, DESIGN.md §10): no FMA intrinsics —
// separate _mm256_mul_pd / _mm256_add_pd match the -ffp-contract=off scalar
// code exactly — and an exact u32 -> f64 conversion.
#include "drp/kernels_avx2.hpp"

#include <immintrin.h>

#include <algorithm>

namespace agtram::drp::kernels::avx2 {
namespace {

// Exact u32 -> f64 for all 2^32 values (including net::kUnreachable, which a
// signed cvt would wreck): zero-extend to u64 lanes, OR in the exponent bits
// of 2^52 so the integer occupies the mantissa exactly, subtract 2^52.
inline __m256d u32x4_to_f64(__m128i v) noexcept {
  const __m256i wide = _mm256_cvtepu32_epi64(v);
  const __m256i magic_i = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d magic_d = _mm256_set1_pd(0x1p52);
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(wide, magic_i)),
                       magic_d);
}

}  // namespace

void best_add_read_pass(double ro, net::Cost current, const net::Cost* a_row,
                        std::size_t first, std::size_t last,
                        double* benefit) noexcept {
  // benefit[i] are independent accumulators: lanes add straight into memory
  // without any cross-lane reassociation.
  const __m256i cur8 = _mm256_set1_epi32(static_cast<int>(current));
  const __m256d cur_d = _mm256_set1_pd(static_cast<double>(current));
  const __m256d ro_v = _mm256_set1_pd(ro);
  std::size_t i = first;
  for (; i + 8 <= last; i += 8) {
    const __m256i row8 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a_row + i));
    const __m256i with8 = _mm256_min_epu32(cur8, row8);
    // Most candidates don't beat the reader's current NN: when no lane
    // improves, every addend is ro * 0.0 = +0.0, and x + (+0.0) == x
    // bitwise for every x except -0.0 — which the benefit array never
    // holds here (kernels.hpp precondition).  Skip the whole block.
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(with8, cur8)) == -1) {
      continue;
    }
    const __m256d with_lo = u32x4_to_f64(_mm256_castsi256_si128(with8));
    const __m256d with_hi = u32x4_to_f64(_mm256_extracti128_si256(with8, 1));
    const __m256d add_lo =
        _mm256_mul_pd(ro_v, _mm256_sub_pd(cur_d, with_lo));
    const __m256d add_hi =
        _mm256_mul_pd(ro_v, _mm256_sub_pd(cur_d, with_hi));
    _mm256_storeu_pd(benefit + i,
                     _mm256_add_pd(_mm256_loadu_pd(benefit + i), add_lo));
    _mm256_storeu_pd(
        benefit + i + 4,
        _mm256_add_pd(_mm256_loadu_pd(benefit + i + 4), add_hi));
  }
  for (; i < last; ++i) {
    const net::Cost with_i = std::min(current, a_row[i]);
    benefit[i] += ro * (static_cast<double>(current) -
                        static_cast<double>(with_i));
  }
}

}  // namespace agtram::drp::kernels::avx2
