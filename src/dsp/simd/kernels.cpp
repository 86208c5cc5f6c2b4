// Scalar reference for the radix-2 stage — this loop IS the numeric
// specification the AVX2 twin must reproduce (see kernels.h). Reordering an
// operation here silently breaks the dispatch-invariance contract.
#include "dsp/simd/kernels.h"

#include "dsp/simd/dispatch.h"

namespace itb::dsp::simd {

void fft_radix2_stage_scalar(Complex* a, std::size_t n, const Complex* tw,
                             std::size_t half, bool inverse) {
  for (std::size_t i = 0; i < n; i += 2 * half) {
    Complex* const lo = a + i;
    Complex* const hi = lo + half;
    for (std::size_t k = 0; k < half; ++k) {
      const Real wr = tw[k].real();
      const Real wi = inverse ? -tw[k].imag() : tw[k].imag();
      const Real hr = hi[k].real();
      const Real hi_im = hi[k].imag();
      const Real vr = hr * wr - hi_im * wi;
      const Real vi = hr * wi + hi_im * wr;
      const Complex l = lo[k];
      hi[k] = Complex(l.real() - vr, l.imag() - vi);
      lo[k] = Complex(l.real() + vr, l.imag() + vi);
    }
  }
}

Radix2Stage fft_radix2_stage() {
  if (active_level() == Level::kAvx2) return fft_radix2_stage_avx2();
  return fft_radix2_stage_scalar;
}

}  // namespace itb::dsp::simd
