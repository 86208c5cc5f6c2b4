// Differential BPSK / QPSK phase encoding used by 802.11b (and by the
// interscatter tag, which maps the phase states onto its four impedances).
#pragma once

#include <cstdint>
#include <span>

#include "dsp/types.h"
#include "phycommon/bits.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;

/// DBPSK phase increment for one bit: 0 -> 0, 1 -> pi
/// (IEEE 802.11-2016 Table 15-2).
Real dbpsk_phase_increment(std::uint8_t bit);

/// DQPSK phase increment for a dibit (d0 first in time):
/// 00 -> 0, 01 -> pi/2, 11 -> pi, 10 -> 3pi/2 (Table 15-3).
Real dqpsk_phase_increment(std::uint8_t d0, std::uint8_t d1);

/// Differential encoder state machine producing unit-magnitude symbols.
class DifferentialEncoder {
 public:
  explicit DifferentialEncoder(Real initial_phase_rad = 0.0)
      : phase_(initial_phase_rad) {}

  Complex encode_increment(Real dphi) {
    phase_ += dphi;
    return Complex{std::cos(phase_), std::sin(phase_)};
  }

  Real phase() const { return phase_; }

 private:
  Real phase_;
};

/// DBPSK-encodes a bit stream into symbols, continuing from `enc`'s phase
/// and leaving `enc` at the last symbol's phase.
CVec dbpsk_encode(const Bits& bits, DifferentialEncoder& enc);

/// DQPSK-encodes a bit stream (even length) into symbols, continuing from
/// `enc`'s phase and leaving `enc` at the last symbol's phase.
CVec dqpsk_encode(const Bits& bits, DifferentialEncoder& enc);

/// Differential decode: recovers bits from received symbols given the symbol
/// preceding the first one (reference).
Bits dbpsk_decode(std::span<const Complex> symbols, Complex reference);
Bits dqpsk_decode(std::span<const Complex> symbols, Complex reference);

/// Quantizes a phase to the nearest multiple of pi/2, returned as 0..3.
unsigned quantize_quarter(Real phase_rad);

}  // namespace itb::wifi
