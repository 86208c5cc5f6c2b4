#include "dsp/mixer.h"

namespace itb::dsp {

CVec tone(Real freq_hz, Real sample_rate_hz, std::size_t n, Real amplitude,
          Real initial_phase_rad) {
  Nco nco(freq_hz, sample_rate_hz, initial_phase_rad);
  CVec out(n);
  for (auto& v : out) v = amplitude * nco.next();
  return out;
}

}  // namespace itb::dsp
