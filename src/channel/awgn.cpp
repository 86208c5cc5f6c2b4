#include "channel/awgn.h"

#include <cmath>

#include "dsp/units.h"

namespace itb::channel {

Real thermal_noise_dbm(Real bandwidth_hz, Real noise_figure_db) {
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

CVec add_noise_variance(const CVec& x, Real noise_variance,
                        itb::dsp::Xoshiro256& rng) {
  CVec out(x.size());
  itb::dsp::fill_complex_gaussian(out, noise_variance, rng);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] + out[i];
  return out;
}

CVec add_noise_snr(const CVec& x, Real snr_db, itb::dsp::Xoshiro256& rng) {
  const Real signal_power = itb::dsp::mean_power(x);
  const Real noise_power = signal_power / itb::dsp::db_to_ratio(snr_db);
  return add_noise_variance(x, noise_power, rng);
}

CVec apply_cfo(const CVec& x, Real cfo_hz, Real sample_rate_hz,
               Real initial_phase_rad) {
  CVec out(x.size());
  const Real step = itb::dsp::kTwoPi * cfo_hz / sample_rate_hz;
  Real phase = initial_phase_rad;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] * Complex{std::cos(phase), std::sin(phase)};
    phase += step;
  }
  return out;
}

CVec apply_cfo(const CVec& x, FrequencyOffset offset, Real sample_rate_hz,
               Real initial_phase_rad) {
  return apply_cfo(x, offset.hz(), sample_rate_hz, initial_phase_rad);
}

CVec apply_gain_db(const CVec& x, Real gain_db) {
  const Real a = itb::dsp::db_to_amplitude(gain_db);
  CVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * a;
  return out;
}

}  // namespace itb::channel
