// IC power model (paper §3): the interscatter ASIC in TSMC 65 nm LP consumes
// 28 uW while generating 2 Mbps 802.11b — frequency synthesizer 9.69 uW,
// baseband processor 8.51 uW, backscatter modulator 9.79 uW. This module
// scales those fixed block figures to other 802.11b rates and shifts with
// first-order CMOS laws (dynamic power ~ activity * C * V^2 * f), and lists
// active-radio alternatives for comparison.
#pragma once

#include <string>
#include <vector>

#include "dsp/types.h"
#include "wifi/rates.h"

namespace itb::backscatter {

using itb::dsp::Real;

struct PowerBreakdown {
  Real synthesizer_uw;
  Real baseband_uw;
  Real modulator_uw;
  Real total_uw() const { return synthesizer_uw + baseband_uw + modulator_uw; }
};

/// Power while backscattering at the given Wi-Fi rate and shift.
PowerBreakdown active_power(itb::wifi::DsssRate rate, Real shift_hz);

/// Average power with duty cycling: the tag transmits `airtime_fraction`
/// of the time and sleeps (leakage only) otherwise.
Real average_power_uw(itb::wifi::DsssRate rate, Real shift_hz,
                      Real airtime_fraction);

/// Energy per transmitted payload bit (pJ/bit).
Real energy_per_bit_pj(itb::wifi::DsssRate rate, Real shift_hz);

/// Reference power draws of conventional radios for the comparison table
/// (typical datasheet numbers for 2.4 GHz transceivers).
struct RadioReference {
  std::string name;
  Real tx_power_uw;
};
std::vector<RadioReference> active_radio_references();

}  // namespace itb::backscatter
