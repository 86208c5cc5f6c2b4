#include "backscatter/impedance.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace itb::backscatter {

std::complex<Real> Load::impedance(Real freq_hz) const {
  const Real w = itb::dsp::kTwoPi * freq_hz;
  switch (kind) {
    case LoadKind::kCapacitor:
      // Zc = 1 / (j w C) = -j / (w C)
      return {0.0, -1.0 / (w * value)};
    case LoadKind::kInductor:
      return {0.0, w * value};
    case LoadKind::kOpen:
      return {1e12, 0.0};
  }
  return {0.0, 0.0};
}

std::complex<Real> reflection_coefficient(std::complex<Real> za,
                                          std::complex<Real> zc) {
  return (za - zc) / (za + zc);
}

std::complex<Real> ImpedanceNetwork::gamma(std::size_t state) const {
  assert(state < 4);
  return reflection_coefficient(antenna_impedance, loads[state].impedance(freq_hz));
}

std::array<std::complex<Real>, 4> ImpedanceNetwork::gammas() const {
  return {gamma(0), gamma(1), gamma(2), gamma(3)};
}

Real ImpedanceNetwork::constellation_error_rad() const {
  // Ideal spacing: the sorted state angles should be 90 degrees apart.
  std::array<Real, 4> ang;
  for (std::size_t i = 0; i < 4; ++i) ang[i] = std::arg(gamma(i));
  std::sort(ang.begin(), ang.end());
  Real worst = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const Real next = i + 1 < 4 ? ang[i + 1] : ang[0] + itb::dsp::kTwoPi;
    const Real gap = next - ang[i];
    worst = std::max(worst, std::abs(gap - itb::dsp::kPi / 2.0));
  }
  return worst;
}

ImpedanceNetwork paper_network() {
  ImpedanceNetwork n;
  n.loads[0] = {LoadKind::kCapacitor, 3e-12};
  n.loads[1] = {LoadKind::kOpen, 0.0};
  n.loads[2] = {LoadKind::kCapacitor, 1e-12};
  n.loads[3] = {LoadKind::kInductor, 2e-9};
  return n;
}

ImpedanceNetwork ideal_network() {
  // Loads chosen so Gamma = exactly {e^{j pi/4}, e^{j 3pi/4}, e^{-j 3pi/4},
  // e^{-j pi/4}}: purely reactive loads give |Gamma| = 1; solving
  // (Za - jX)/(Za + jX) = e^{j theta} for X with Za = 50 gives
  // X = -Za tan(theta/2).
  ImpedanceNetwork n;
  const Real za = 50.0;
  const auto reactance_for = [&](Real theta) {
    return -za * std::tan(theta / 2.0);
  };
  const std::array<Real, 4> thetas = {itb::dsp::kPi / 4.0, 3.0 * itb::dsp::kPi / 4.0,
                                      -3.0 * itb::dsp::kPi / 4.0,
                                      -itb::dsp::kPi / 4.0};
  const Real w = itb::dsp::kTwoPi * n.freq_hz;
  for (std::size_t i = 0; i < 4; ++i) {
    const Real x = reactance_for(thetas[i]);
    if (x >= 0.0) {
      n.loads[i] = {LoadKind::kInductor, x / w};
    } else {
      n.loads[i] = {LoadKind::kCapacitor, -1.0 / (w * x)};
    }
  }
  return n;
}

}  // namespace itb::backscatter
