#include "channel/awgn.h"

#include <cmath>
#include <stdexcept>
#include <utility>

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

namespace {

// Longest period the exact path takes: cfo/fs = p/q with q <= kMaxPeriod.
constexpr long kMaxPeriod = 64;

/// x * j^k: a quarter turn is a swap and a negate, so it is exact.
Complex rotate_quarter(Complex x, unsigned k) {
  switch (k & 3u) {
    case 0:
      return x;
    case 1:
      return {-x.imag(), x.real()};
    case 2:
      return {-x.real(), -x.imag()};
    default:
      return {x.imag(), -x.real()};
  }
}

/// sin and cos of a in [0, pi/4] from IEEE basic operations only: the
/// Taylor series in nested (Horner) form, ten terms each, so the first
/// dropped term is below 1e-19.
void sin_cos_taylor(Real a, Real& s, Real& c) {
  const Real a2 = a * a;
  s = 1.0;
  c = 1.0;
  for (int k = 10; k >= 1; --k) {
    const Real two_k = 2.0 * k;
    s = 1.0 - a2 / (two_k * (two_k + 1.0)) * s;
    c = 1.0 - a2 / ((two_k - 1.0) * two_k) * c;
  }
  s *= a;
}

/// e^{j 2 pi m / q} for 0 <= m < q, without libm. Quarter turns are exact;
/// any other angle is folded into [0, pi/4] within its quadrant.
Complex unit_phasor(long m, long q) {
  const long quadrant = 4 * m / q;
  long rem = 4 * m - quadrant * q;  // angle in the quadrant: (pi/2) rem / q
  Real c = 1.0;
  Real s = 0.0;
  if (rem != 0) {
    const bool fold = 2 * rem > q;
    if (fold) rem = q - rem;
    sin_cos_taylor(0.5 * itb::dsp::kPi * static_cast<Real>(rem) /
                       static_cast<Real>(q),
                   s, c);
    if (fold) std::swap(s, c);
  }
  return rotate_quarter({c, s}, static_cast<unsigned>(quadrant));
}

/// The smallest q <= kMaxPeriod for which r * q is an integer, or 0 if there
/// is none. |r| > 1 (and NaN) also gives 0, which keeps p = r * q small.
long period_of(Real r) {
  if (!(std::fabs(r) <= 1.0)) return 0;
  for (long q = 1; q <= kMaxPeriod; ++q) {
    const Real rq = r * static_cast<Real>(q);
    if (rq == std::nearbyint(rq)) return q;
  }
  return 0;
}

}  // namespace

CVec apply_cfo(const CVec& x, Real cfo_hz, Real sample_rate_hz,
               Real initial_phase_rad) {
  if (!std::isfinite(sample_rate_hz) || sample_rate_hz <= 0.0) {
    throw std::invalid_argument(
        "apply_cfo: sample_rate_hz must be finite and positive");
  }
  if (!std::isfinite(cfo_hz) || !std::isfinite(initial_phase_rad)) {
    throw std::invalid_argument(
        "apply_cfo: cfo_hz and initial_phase_rad must be finite");
  }
  CVec out(x.size());
  // Exact periodic path: cfo/fs = p/q cycles per sample with a small q, as
  // every tag down-shift (f_clk/(4k)) is. Sample n turns by n*p mod q
  // q-ths of a cycle, so q phasors built once cover the whole signal and
  // no phase accumulates. A non-zero initial phase takes the general path.
  const Real r = cfo_hz / sample_rate_hz;
  const long q = initial_phase_rad == 0.0 ? period_of(r) : 0;
  if (q != 0) {
    const long p = (static_cast<long>(r * static_cast<Real>(q)) % q + q) % q;
    if (4 % q == 0) {
      const auto step = static_cast<unsigned>(p * (4 / q));
      unsigned k = 0;
      for (std::size_t i = 0; i < x.size(); ++i, k += step) {
        out[i] = rotate_quarter(x[i], k);
      }
      return out;
    }
    CVec period(static_cast<std::size_t>(q));
    for (std::size_t n = 0; n < period.size(); ++n) {
      period[n] = unit_phasor(static_cast<long>(n) * p % q, q);
    }
    for (std::size_t i = 0, n = 0; i < x.size(); ++i) {
      const Real xr = x[i].real();
      const Real xi = x[i].imag();
      const Real wr = period[n].real();
      const Real wi = period[n].imag();
      out[i] = {xr * wr - xi * wi, xr * wi + xi * wr};
      if (++n == period.size()) n = 0;
    }
    return out;
  }
  // General path (true CFO impairments): libm cos/sin of an accumulated
  // phase.
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
