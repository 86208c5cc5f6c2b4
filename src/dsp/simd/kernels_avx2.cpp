// AVX2 twin of the radix-2 FFT stage. Compiled with -mavx2 and NOTHING else
// — in particular never -mfma: with FMA unavailable the compiler cannot
// contract the explicit _mm256_mul_pd/_mm256_add_pd pairs below, so every
// operation rounds exactly like the scalar reference (kernels.cpp).
//
// Layout: Complex is std::complex<double>, interleaved [re, im], so a
// 256-bit vector holds two complex values. addsub(a, b) = [a0-b0, a1+b1,
// a2-b2, a3+b3] implements one complex multiply with the same two products
// and one add/sub per element as the scalar spec (IEEE a - b === a + (-b),
// and sign flips via XOR are exact, so the bit patterns match).
#include "dsp/simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace itb::dsp::simd {
namespace {

using std::size_t;

inline const double* dptr(const Complex* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* dptr(Complex* p) { return reinterpret_cast<double*>(p); }

// Negates the imaginary (odd) lanes. XOR of the sign bit is an exact IEEE
// negation.
inline __m256d neg_odd_mask() {
  return _mm256_castsi256_pd(_mm256_set_epi64x(
      static_cast<long long>(0x8000000000000000ULL), 0,
      static_cast<long long>(0x8000000000000000ULL), 0));
}

// [xr, xi] per complex -> [xi, xr].
inline __m256d swap_pairs(__m256d v) { return _mm256_permute_pd(v, 0x5); }

void fft_radix2_stage(Complex* a, size_t n, const Complex* tw, size_t half,
                      bool inverse) {
  const __m256d conj_mask = neg_odd_mask();
  for (size_t i = 0; i < n; i += 2 * half) {
    Complex* const lo = a + i;
    Complex* const hi = lo + half;
    for (size_t k = 0; k + 2 <= half; k += 2) {
      __m256d w = _mm256_loadu_pd(dptr(tw + k));
      if (inverse) w = _mm256_xor_pd(w, conj_mask);
      const __m256d wr = _mm256_movedup_pd(w);
      const __m256d wi = _mm256_permute_pd(w, 0xF);
      const __m256d h = _mm256_loadu_pd(dptr(hi + k));
      // addsub([hr*wr, hi*wr], [hi*wi, hr*wi])
      //   = [hr*wr - hi*wi, hi*wr + hr*wi] per complex.
      const __m256d v = _mm256_addsub_pd(_mm256_mul_pd(h, wr),
                                         _mm256_mul_pd(swap_pairs(h), wi));
      const __m256d l = _mm256_loadu_pd(dptr(lo + k));
      _mm256_storeu_pd(dptr(hi + k), _mm256_sub_pd(l, v));
      _mm256_storeu_pd(dptr(lo + k), _mm256_add_pd(l, v));
    }
  }
}

}  // namespace

Radix2Stage fft_radix2_stage_avx2() { return fft_radix2_stage; }

}  // namespace itb::dsp::simd

#else  // !defined(__AVX2__)

namespace itb::dsp::simd {
Radix2Stage fft_radix2_stage_avx2() { return nullptr; }
}  // namespace itb::dsp::simd

#endif
