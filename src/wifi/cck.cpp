#include "wifi/cck.h"

#include <cassert>
#include <cmath>

#include "dsp/correlate.h"
#include "wifi/dpsk.h"

namespace itb::wifi {

using itb::dsp::kPi;

std::array<Complex, kCckChipsPerSymbol> cck_codeword(Real p1, Real p2, Real p3,
                                                     Real p4) {
  const auto e = [](Real p) { return Complex{std::cos(p), std::sin(p)}; };
  return {
      e(p1 + p2 + p3 + p4),
      e(p1 + p3 + p4),
      e(p1 + p2 + p4),
      -e(p1 + p4),
      e(p1 + p2 + p3),
      e(p1 + p3),
      -e(p1 + p2),
      e(p1),
  };
}

Real cck_qpsk_phase(std::uint8_t d0, std::uint8_t d1) {
  const unsigned dibit = static_cast<unsigned>((d0 & 1u) << 1 | (d1 & 1u));
  switch (dibit) {
    case 0b00:
      return 0.0;
    case 0b01:
      return kPi / 2.0;
    case 0b10:
      return kPi;
    case 0b11:
      return 3.0 * kPi / 2.0;
  }
  return 0.0;
}

CckModulator::CckModulator(DsssRate rate) : rate_(rate) {
  assert(rate == DsssRate::k5_5Mbps || rate == DsssRate::k11Mbps);
  bits_per_symbol_ = rate == DsssRate::k5_5Mbps ? 4 : 8;
}

void CckModulator::reset(Real initial_phase_rad) {
  phase_ref_ = initial_phase_rad;
  symbol_index_ = 0;
}

std::array<Real, 3> CckModulator::data_phases(
    std::span<const std::uint8_t> data) const {
  if (rate_ == DsssRate::k11Mbps) {
    assert(data.size() == 6);
    return {cck_qpsk_phase(data[0], data[1]), cck_qpsk_phase(data[2], data[3]),
            cck_qpsk_phase(data[4], data[5])};
  }
  // 5.5 Mbps (16.4.6.5): p2 = d2*pi + pi/2, p3 = 0, p4 = d3*pi.
  assert(data.size() == 2);
  return {static_cast<Real>(data[0]) * kPi + kPi / 2.0, 0.0,
          static_cast<Real>(data[1]) * kPi};
}

CVec CckModulator::modulate(const Bits& bits) {
  assert(bits.size() % bits_per_symbol_ == 0);
  CVec out;
  out.reserve(bits.size() / bits_per_symbol_ * kCckChipsPerSymbol);
  for (std::size_t i = 0; i < bits.size(); i += bits_per_symbol_) {
    // p1: DQPSK on (d0, d1) with an extra pi on odd-numbered symbols.
    Real dphi = dqpsk_phase_increment(bits[i], bits[i + 1]);
    if (symbol_index_ % 2 == 1) dphi += kPi;
    phase_ref_ += dphi;

    const std::span<const std::uint8_t> data(&bits[i + 2], bits_per_symbol_ - 2);
    const std::array<Real, 3> p = data_phases(data);
    const auto cw = cck_codeword(phase_ref_, p[0], p[1], p[2]);
    out.insert(out.end(), cw.begin(), cw.end());
    ++symbol_index_;
  }
  return out;
}

CckDemodulator::CckDemodulator(DsssRate rate) : rate_(rate) {
  assert(rate == DsssRate::k5_5Mbps || rate == DsssRate::k11Mbps);
  bits_per_symbol_ = rate == DsssRate::k5_5Mbps ? 4 : 8;

  // Enumerate all (p2,p3,p4) candidates with p1 = 0.
  const std::size_t data_bits = bits_per_symbol_ - 2;
  const std::size_t n = 1u << data_bits;
  CckModulator helper(rate);
  for (std::size_t v = 0; v < n; ++v) {
    Candidate c;
    c.data_bits.resize(data_bits);
    for (std::size_t b = 0; b < data_bits; ++b) c.data_bits[b] = (v >> b) & 1;
    c.phases = helper.data_phases(c.data_bits);
    c.base_codeword = cck_codeword(0.0, c.phases[0], c.phases[1], c.phases[2]);
    candidates_.push_back(std::move(c));
  }
  for (std::size_t k = 0; k < kCckChipsPerSymbol; ++k) {
    columns_[k].resize(candidates_.size());
    for (std::size_t v = 0; v < candidates_.size(); ++v) {
      columns_[k][v] = candidates_[v].base_codeword[k];
    }
  }
}

void CckDemodulator::reset(Real reference_phase_rad) {
  phase_ref_ = reference_phase_rad;
  symbol_index_ = 0;
}

Bits CckDemodulator::demodulate(std::span<const Complex> chips,
                                Real reference_phase_rad) {
  reset(reference_phase_rad);
  assert(chips.size() % kCckChipsPerSymbol == 0);
  Bits out;
  for (std::size_t s = 0; s * kCckChipsPerSymbol < chips.size(); ++s) {
    const std::span<const Complex> block =
        chips.subspan(s * kCckChipsPerSymbol, kCckChipsPerSymbol);

    // Correlate against every base codeword; the strongest match gives the
    // data phases, and its complex correlation carries e^{j p1}. The search
    // runs chip-major across the (up to 64) candidates; each candidate's
    // correlation still accumulates chips in ascending order.
    std::array<Complex, 64> acc{};
    const std::span<Complex> bank(acc.data(), candidates_.size());
    for (std::size_t k = 0; k < kCckChipsPerSymbol; ++k) {
      itb::dsp::accumulate_scaled_conj(bank, columns_[k], block[k]);
    }
    const Candidate* best = nullptr;
    Complex best_corr{0.0, 0.0};
    Real best_mag = -1.0;
    for (std::size_t v = 0; v < candidates_.size(); ++v) {
      const Real mag = std::norm(acc[v]);
      if (mag > best_mag) {
        best_mag = mag;
        best = &candidates_[v];
        best_corr = acc[v];
      }
    }
    assert(best != nullptr);

    // Differential recovery of p1: remove the odd-symbol pi, then quantize.
    const Real p1 = std::arg(best_corr);
    Real dphi = p1 - phase_ref_;
    if (symbol_index_ % 2 == 1) dphi -= kPi;
    const unsigned q = quantize_quarter(dphi);
    // Inverse of dqpsk_phase_increment's mapping 00,01,11,10 -> 0..3.
    switch (q) {
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
    out.insert(out.end(), best->data_bits.begin(), best->data_bits.end());

    phase_ref_ = p1;
    ++symbol_index_;
  }
  return out;
}

}  // namespace itb::wifi
