#include "wifi/dpsk.h"

#include <cassert>
#include <cmath>

namespace itb::wifi {

using itb::dsp::kPi;
using itb::dsp::kTwoPi;

Real dbpsk_phase_increment(std::uint8_t bit) { return bit ? kPi : 0.0; }

Real dqpsk_phase_increment(std::uint8_t d0, std::uint8_t d1) {
  const unsigned dibit = static_cast<unsigned>((d0 & 1u) << 1 | (d1 & 1u));
  switch (dibit) {
    case 0b00:
      return 0.0;
    case 0b01:
      return kPi / 2.0;
    case 0b11:
      return kPi;
    case 0b10:
      return 3.0 * kPi / 2.0;
  }
  return 0.0;
}

CVec dbpsk_encode(const Bits& bits, DifferentialEncoder& enc) {
  CVec out;
  out.reserve(bits.size());
  for (std::uint8_t b : bits) out.push_back(enc.encode_increment(dbpsk_phase_increment(b)));
  return out;
}

CVec dqpsk_encode(const Bits& bits, DifferentialEncoder& enc) {
  assert(bits.size() % 2 == 0);
  CVec out;
  out.reserve(bits.size() / 2);
  for (std::size_t i = 0; i + 1 < bits.size(); i += 2) {
    out.push_back(enc.encode_increment(dqpsk_phase_increment(bits[i], bits[i + 1])));
  }
  return out;
}

unsigned quantize_quarter(Real phase_rad) {
  Real p = std::fmod(phase_rad, kTwoPi);
  if (p < 0) p += kTwoPi;
  return static_cast<unsigned>(std::lround(p / (kPi / 2.0))) % 4;
}

Bits dbpsk_decode(std::span<const Complex> symbols, Complex reference) {
  Bits out;
  out.reserve(symbols.size());
  Complex prev = reference;
  for (const Complex& s : symbols) {
    const Real dphi = std::arg(s * std::conj(prev));
    out.push_back(std::abs(dphi) > kPi / 2.0 ? 1 : 0);
    prev = s;
  }
  return out;
}

Bits dqpsk_decode(std::span<const Complex> symbols, Complex reference) {
  Bits out;
  out.reserve(symbols.size() * 2);
  Complex prev = reference;
  for (const Complex& s : symbols) {
    const Real dphi = std::arg(s * std::conj(prev));
    switch (quantize_quarter(dphi)) {
      case 0:
        out.push_back(0);
        out.push_back(0);
        break;
      case 1:
        out.push_back(0);
        out.push_back(1);
        break;
      case 2:
        out.push_back(1);
        out.push_back(1);
        break;
      case 3:
        out.push_back(1);
        out.push_back(0);
        break;
    }
    prev = s;
  }
  return out;
}

}  // namespace itb::wifi
