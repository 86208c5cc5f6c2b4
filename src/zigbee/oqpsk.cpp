#include "zigbee/oqpsk.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "dsp/fir.h"
#include "dsp/correlate.h"
#include "obs/prof.h"
#include "phycommon/bits.h"

namespace itb::zigbee {

const std::array<std::uint32_t, 16>& chip_table() {
  // IEEE 802.15.4-2011 Table 73, packed chip0-first into bit 0.
  // Symbols 1..7 are 4-chip left-rotations of symbol 0; symbols 8..15 are
  // the same sequences with odd-indexed (Q) chips inverted. Generating them
  // from the base sequence keeps the table auditable against the spec text.
  static const std::array<std::uint32_t, 16> table = [] {
    // Base PN sequence for symbol 0, chip 0 first.
    constexpr std::array<std::uint8_t, kChipsPerSymbol> base = {
        1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
        0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0};
    std::array<std::uint32_t, 16> t{};
    for (unsigned sym = 0; sym < 8; ++sym) {
      std::uint32_t packed = 0;
      for (std::size_t c = 0; c < kChipsPerSymbol; ++c) {
        // Right-rotate by 4 chips per symbol step.
        const std::size_t src = (c + kChipsPerSymbol - 4 * sym) % kChipsPerSymbol;
        if (base[src]) packed |= (1u << c);
      }
      t[sym] = packed;
    }
    for (unsigned sym = 8; sym < 16; ++sym) {
      // Invert odd (Q-branch) chips of the corresponding 0..7 sequence.
      std::uint32_t odd_mask = 0;
      for (std::size_t c = 1; c < kChipsPerSymbol; c += 2) odd_mask |= (1u << c);
      t[sym] = t[sym - 8] ^ odd_mask;
    }
    return t;
  }();
  return table;
}

Bits symbol_chips(unsigned symbol) {
  assert(symbol < 16);
  const std::uint32_t packed = chip_table()[symbol];
  Bits out(kChipsPerSymbol);
  for (std::size_t c = 0; c < kChipsPerSymbol; ++c) out[c] = (packed >> c) & 1;
  return out;
}

OqpskModulator::OqpskModulator(const OqpskConfig& cfg) : cfg_(cfg) {
  pulse_ = itb::dsp::half_sine_pulse(2 * cfg_.samples_per_chip);
}

CVec OqpskModulator::modulate_chips(const Bits& chips) const {
  assert(chips.size() % 2 == 0);
  const std::size_t spc = cfg_.samples_per_chip;
  // Each chip occupies 2*spc samples on its branch (chips alternate I/Q at
  // 2 Mchip/s aggregate; each branch runs at 1 Mchip/s). Q is offset by one
  // chip period (spc samples at the aggregate rate).
  const std::size_t n = chips.size() * spc + spc;
  itb::dsp::RVec ich(n, 0.0);
  itb::dsp::RVec qch(n, 0.0);
  for (std::size_t k = 0; k < chips.size(); ++k) {
    const Real v = chips[k] ? 1.0 : -1.0;
    const bool is_q = (k % 2) == 1;
    // Branch-chip index: k/2. Start sample on the aggregate grid:
    const std::size_t start = (k / 2) * 2 * spc + (is_q ? spc : 0);
    for (std::size_t s = 0; s < pulse_.size() && start + s < n; ++s) {
      if (is_q) {
        qch[start + s] += v * pulse_[s];
      } else {
        ich[start + s] += v * pulse_[s];
      }
    }
  }
  CVec out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = Complex{ich[i], qch[i]};
  return out;
}

CVec OqpskModulator::modulate_bytes(const Bytes& bytes) const {
  Bits chips;
  chips.reserve(bytes.size() * 2 * kChipsPerSymbol);
  for (std::uint8_t b : bytes) {
    for (unsigned nib = 0; nib < 2; ++nib) {
      const unsigned sym = nib == 0 ? (b & 0x0F) : (b >> 4);
      const Bits sc = symbol_chips(sym);
      chips.insert(chips.end(), sc.begin(), sc.end());
    }
  }
  return modulate_chips(chips);
}

OqpskDemodulator::OqpskDemodulator(const OqpskConfig& cfg) : cfg_(cfg) {}

CVec OqpskDemodulator::soft_chips(const CVec& samples,
                                  std::size_t offset_samples) const {
  const std::size_t spc = cfg_.samples_per_chip;
  CVec chips;
  // Sample each branch at its pulse peak: I chips peak at start + spc, Q
  // chips at start + 2*spc (centre of the half-sine). Keep the full complex
  // sample: at a branch peak the other branch's half-sine crosses zero, so
  // the sample is the chip value rotated by whatever the carrier did.
  for (std::size_t k = 0;; ++k) {
    const bool is_q = (k % 2) == 1;
    const std::size_t centre =
        offset_samples + (k / 2) * 2 * spc + (is_q ? spc : 0) + spc;
    if (centre >= samples.size()) break;
    chips.push_back(samples[centre]);
  }
  return chips;
}

Bytes OqpskDemodulator::soft_chips_to_bytes(const CVec& soft,
                                            std::size_t block_chips) const {
  static const std::size_t kZone = obs::prof_zone("phy.soft_despread");
  const obs::ProfZone prof(kZone);
  if (block_chips == 0) block_chips = kChipsPerSymbol;
  // Complex PN patterns, stored chip-major (one 16-candidate column per
  // chip): chip bit -> +-1 on the I axis (even chips) or the Q axis (odd
  // chips). The despread runs chip-major across the 16 candidate symbols;
  // each candidate's accumulator still sees its chips in ascending order.
  static const std::array<std::array<Complex, 16>, kChipsPerSymbol> columns =
      [] {
        std::array<std::array<Complex, 16>, kChipsPerSymbol> p{};
        for (unsigned sym = 0; sym < 16; ++sym) {
          const std::uint32_t packed = chip_table()[sym];
          for (std::size_t c = 0; c < kChipsPerSymbol; ++c) {
            const Real v = ((packed >> c) & 1) ? 1.0 : -1.0;
            p[c][sym] = (c % 2 == 0) ? Complex{v, 0.0} : Complex{0.0, v};
          }
        }
        return p;
      }();

  const std::size_t nsym = soft.size() / kChipsPerSymbol;
  Bytes out;
  for (std::size_t s = 0; s < nsym; s += 2) {
    std::uint8_t byte = 0;
    for (unsigned nib = 0; nib < 2; ++nib) {
      if (s + nib >= nsym) break;
      const std::size_t at = (s + nib) * kChipsPerSymbol;
      // Differential post-detection integration: correlate per sub-block,
      // then combine adjacent blocks through Re(acc_b * conj(acc_{b-1})).
      // A common rotation cancels in the product and a slow CFO only costs
      // cos(delta) per block step, but a phase jump mid-symbol (corrupted
      // chips, genuine symbol boundary mismatch) turns its contribution
      // negative — unlike a magnitude sum, which is blind to block-aligned
      // inversions.
      std::array<Real, 16> metric{};
      std::array<Complex, 16> prev{};
      bool have_prev = false;
      for (std::size_t b0 = 0; b0 < kChipsPerSymbol; b0 += block_chips) {
        std::array<Complex, 16> acc{};
        const std::size_t bend = std::min(b0 + block_chips, kChipsPerSymbol);
        for (std::size_t c = b0; c < bend; ++c) {
          dsp::accumulate_scaled_conj(acc, columns[c], soft[at + c]);
        }
        if (have_prev) {
          for (unsigned cand = 0; cand < 16; ++cand) {
            metric[cand] += (acc[cand] * std::conj(prev[cand])).real();
          }
        }
        prev = acc;
        have_prev = true;
      }
      unsigned best_sym = 0;
      Real best_metric = -std::numeric_limits<Real>::infinity();
      for (unsigned cand = 0; cand < 16; ++cand) {
        if (metric[cand] > best_metric) {
          best_metric = metric[cand];
          best_sym = cand;
        }
      }
      byte |= static_cast<std::uint8_t>(nib == 0 ? best_sym : best_sym << 4);
    }
    out.push_back(byte);
  }
  return out;
}

}  // namespace itb::zigbee
