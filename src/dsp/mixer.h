// Numerically-controlled oscillator and tone generator.
#pragma once

#include "dsp/types.h"

namespace itb::dsp {

/// Complex exponential generator with phase continuity across calls.
/// Models a local oscillator at `freq_hz` sampled at `sample_rate_hz`.
class Nco {
 public:
  Nco(Real freq_hz, Real sample_rate_hz, Real initial_phase_rad = 0.0)
      : phase_(initial_phase_rad),
        phase_step_(kTwoPi * freq_hz / sample_rate_hz) {}

  /// Next oscillator sample e^{j phase}.
  Complex next() {
    const Complex out{std::cos(phase_), std::sin(phase_)};
    advance(1);
    return out;
  }

  /// Advances the phase by n samples without producing output.
  void advance(std::size_t n) {
    phase_ += phase_step_ * static_cast<Real>(n);
    // Keep the accumulator bounded to preserve precision on long runs.
    if (phase_ > 1e6 || phase_ < -1e6) phase_ = std::fmod(phase_, kTwoPi);
  }

  Real phase() const { return phase_; }

 private:
  Real phase_;
  Real phase_step_;
};

/// Generates a pure tone at freq_hz with the given amplitude.
CVec tone(Real freq_hz, Real sample_rate_hz, std::size_t n, Real amplitude = 1.0,
          Real initial_phase_rad = 0.0);

}  // namespace itb::dsp
