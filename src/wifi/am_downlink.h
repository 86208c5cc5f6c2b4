// OFDM-as-AM downlink (paper §2.4): choosing 802.11g payload bits so that
// selected OFDM symbols become "constant OFDM" symbols — all 48 data
// subcarriers carry the same constellation point, concentrating time-domain
// energy in the first sample and leaving the rest near zero. A passive peak
// detector reads the resulting amplitude profile.
//
// Encoding: bit 1 = (random symbol, constant symbol); bit 0 = (random,
// random). Two 4 us symbols per bit -> 125 kbps.
//
// The construction must thread three needles the paper calls out:
//   1. The scrambler: data bits equal the scrambler sequence (-> all-zero
//      scrambled) or its complement (-> all-one), so the seed must be known
//      (chipset.h policies).
//   2. The convolutional encoder's 6-bit memory: the last 6 scrambled bits
//      entering a constant symbol must match its fill value, so the
//      preceding random symbol's tail data bits are forced.
//   3. The cyclic prefix: a constant symbol's CP is near-zero, so the
//      preceding random symbol is re-rolled until its last time sample has
//      high amplitude, avoiding a false "gap" at the symbol boundary.
#pragma once

#include <cstdint>

#include "dsp/rng.h"
#include "wifi/ofdm_tx.h"

namespace itb::wifi {

/// Constant symbols scramble to an all-ones stream; the tail-amplitude
/// re-roll rule (constraint 3) is a constant in am_downlink.cpp.
struct AmDownlinkConfig {
  OfdmRate rate = OfdmRate::k36;       ///< paper uses 36 Mbps (16-QAM 3/4)
  std::uint8_t scrambler_seed = 0x5D;  ///< must match the chipset's next seed
};

struct AmFrame {
  OfdmTxResult tx;                 ///< the on-air 802.11g frame
  itb::phy::Bits message_bits;     ///< the downlink bits carried
  itb::phy::Bits data_field_bits;  ///< unscrambled DATA bits handed to the TX
  std::vector<bool> symbol_is_constant;  ///< per OFDM data symbol
};

class AmDownlinkEncoder {
 public:
  AmDownlinkEncoder(const AmDownlinkConfig& cfg, std::uint64_t rng_seed);

  /// Builds a standards-compliant 802.11g frame whose amplitude profile
  /// encodes `message_bits` at 125 kbps.
  AmFrame encode(const itb::phy::Bits& message_bits);

  /// Data bits for one constant OFDM symbol at offset `bit_offset` within
  /// the scrambled stream: data = scramble_seq XOR fill.
  itb::phy::Bits constant_symbol_data_bits(std::size_t bit_offset,
                                           std::size_t n_dbps) const;

  const AmDownlinkConfig& config() const { return cfg_; }

 private:
  AmDownlinkConfig cfg_;
  itb::dsp::Xoshiro256 rng_;
};

}  // namespace itb::wifi
