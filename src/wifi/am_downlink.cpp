#include "wifi/am_downlink.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/units.h"
#include "phycommon/lfsr.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;

namespace {

/// Value every scrambled bit of a constant symbol takes (all-ones stream).
constexpr std::uint8_t kConstantFill = 1;
/// Minimum |last time sample| of a random symbol preceding a constant one,
/// relative to the symbol's RMS (CP-glitch avoidance), and how many draws
/// the re-roll makes before it keeps the last one.
constexpr Real kMinTailAmplitudeRatio = 1.0;
constexpr std::size_t kMaxRerollAttempts = 64;

}  // namespace

AmDownlinkEncoder::AmDownlinkEncoder(const AmDownlinkConfig& cfg,
                                     std::uint64_t rng_seed)
    // The raw seed is kept on purpose: Xoshiro256's constructor already
    // SplitMix64-expands it, and the filler bits drawn from rng_ shape the
    // AM symbol envelope itself — the peak-detector decode margin is part
    // of the golden behaviour pinned by core_test/full_loop_test.
    : cfg_(cfg), rng_(rng_seed) {
  assert((cfg_.scrambler_seed & 0x7F) != 0);
}

Bits AmDownlinkEncoder::constant_symbol_data_bits(std::size_t bit_offset,
                                                  std::size_t n_dbps) const {
  const Bits seq = itb::phy::OfdmScrambler::sequence(
      cfg_.scrambler_seed, bit_offset + n_dbps);
  Bits out(n_dbps);
  for (std::size_t i = 0; i < n_dbps; ++i) {
    // scrambled = data XOR seq; we need scrambled == fill everywhere.
    out[i] = (seq[bit_offset + i] ^ kConstantFill) & 1;
  }
  return out;
}

AmFrame AmDownlinkEncoder::encode(const Bits& message_bits) {
  const auto& p = ofdm_params(cfg_.rate);
  const std::size_t n_dbps = p.n_dbps;

  // Symbol plan: SERVICE+header bits ride in symbol 0 (always random), then
  // two symbols per message bit.
  // Symbol 0 carries the 16 SERVICE bits plus random payload.
  std::vector<bool> plan;  // true = constant
  plan.push_back(false);
  for (std::uint8_t b : message_bits) {
    plan.push_back(false);           // leading random symbol
    plan.push_back(b ? true : false);  // constant for 1, random for 0
  }

  const std::size_t num_symbols = plan.size();
  const Bits scramble_seq = itb::phy::OfdmScrambler::sequence(
      cfg_.scrambler_seed, num_symbols * n_dbps);

  Bits data(num_symbols * n_dbps, 0);
  std::vector<bool> is_constant(num_symbols, false);

  // Track which symbols need a high-amplitude tail sample (those directly
  // before a constant symbol).
  const auto needs_bright_tail = [&](std::size_t s) {
    return s + 1 < num_symbols && plan[s + 1];
  };

  OfdmTxConfig txcfg;
  txcfg.rate = cfg_.rate;
  txcfg.scrambler_seed = cfg_.scrambler_seed;
  txcfg.include_preamble = false;
  const OfdmTransmitter probe_tx(txcfg);

  for (std::size_t s = 0; s < num_symbols; ++s) {
    const std::size_t off = s * n_dbps;
    if (plan[s]) {
      is_constant[s] = true;
      const Bits cbits = constant_symbol_data_bits(off, n_dbps);
      std::copy(cbits.begin(), cbits.end(), data.begin() + static_cast<std::ptrdiff_t>(off));
      continue;
    }

    // Random symbol. SERVICE bits (first 16 of symbol 0) stay zero.
    const std::size_t rand_start = s == 0 ? 16 : 0;
    for (std::size_t attempt = 0; attempt < kMaxRerollAttempts; ++attempt) {
      for (std::size_t i = rand_start; i < n_dbps; ++i) {
        data[off + i] = rng_.bit() ? 1 : 0;
      }
      if (!needs_bright_tail(s)) break;
      // Constraint 2: force the last 6 *scrambled* bits to the fill value
      // when the next symbol is constant, so the convolutional encoder's
      // memory enters it in the right state.
      for (std::size_t i = n_dbps - 6; i < n_dbps; ++i) {
        data[off + i] = (scramble_seq[off + i] ^ kConstantFill) & 1;
      }

      // Constraint 3: check the last time-domain sample amplitude of this
      // symbol; re-roll until bright enough that the constant symbol's CP
      // (near zero) doesn't read as an early gap.
      Bits field(data.begin(), data.begin() + static_cast<std::ptrdiff_t>((s + 1) * n_dbps));
      const OfdmTxResult r = probe_tx.transmit_data_bits(field);
      const std::size_t sym_start = s * kSymbolSamples;
      const std::span<const Complex> sym(
          r.baseband.data() + sym_start, kSymbolSamples);
      const Real tail = std::abs(sym[kSymbolSamples - 1]);
      const Real avg = itb::dsp::rms(sym);
      if (tail >= kMinTailAmplitudeRatio * avg) break;
    }
  }

  AmFrame out;
  out.message_bits = message_bits;
  out.data_field_bits = data;
  out.symbol_is_constant = is_constant;

  OfdmTxConfig full = txcfg;
  full.include_preamble = true;
  const OfdmTransmitter tx(full);
  out.tx = tx.transmit_data_bits(data);
  return out;
}

}  // namespace itb::wifi
