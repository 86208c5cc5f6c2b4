#include "wifi/dsss_tx.h"

#include "dsp/resample.h"
#include "phycommon/lfsr.h"
#include "wifi/barker.h"
#include "wifi/cck.h"
#include "wifi/dpsk.h"

namespace itb::wifi {

using itb::phy::DsssScrambler;

DsssTransmitter::DsssTransmitter(const DsssTxConfig& cfg) : cfg_(cfg) {}

DsssFrame DsssTransmitter::modulate(const Bytes& psdu) const {
  DsssScrambler scrambler(kLongPreambleScramblerSeed);

  // --- PLCP preamble (SYNC + SFD) and header, all at 1 Mbps DBPSK ---------
  Bits sync_sfd;
  if (cfg_.short_tag_preamble) {
    // Tag mode: 32 scrambled ones + SFD. Enough for the receiver's
    // self-synchronizing descrambler (7 bits) plus AGC settling.
    sync_sfd.assign(32, 1);
  } else {
    sync_sfd.assign(kSyncBits, 1);
  }
  const Bits sfd = sfd_bits();
  sync_sfd.insert(sync_sfd.end(), sfd.begin(), sfd.end());

  PlcpHeader hdr;
  hdr.rate = cfg_.rate;
  hdr.service = PlcpHeader::service_for(cfg_.rate, psdu.size());
  hdr.length_us = length_field_us(cfg_.rate, psdu.size());
  const Bits header = build_plcp_header_bits(hdr);

  Bits low_rate_bits = sync_sfd;
  low_rate_bits.insert(low_rate_bits.end(), header.begin(), header.end());
  const Bits low_rate_scrambled = scrambler.scramble(low_rate_bits);

  // One encoder for the whole frame: the PSDU (and CCK) continue from the
  // header's last phase.
  DifferentialEncoder enc(0.0);
  CVec chips = spread(dbpsk_encode(low_rate_scrambled, enc));

  // --- PSDU at the data rate ----------------------------------------------
  const Bits psdu_bits = itb::phy::bytes_to_bits_lsb_first(psdu);
  const Bits psdu_scrambled = scrambler.scramble(psdu_bits);

  CVec psdu_chips;
  switch (cfg_.rate) {
    case DsssRate::k1Mbps:
      psdu_chips = spread(dbpsk_encode(psdu_scrambled, enc));
      break;
    case DsssRate::k2Mbps:
      psdu_chips = spread(dqpsk_encode(psdu_scrambled, enc));
      break;
    case DsssRate::k5_5Mbps:
    case DsssRate::k11Mbps: {
      CckModulator cck(cfg_.rate);
      cck.reset(enc.phase());
      psdu_chips = cck.modulate(psdu_scrambled);
      break;
    }
  }
  chips.insert(chips.end(), psdu_chips.begin(), psdu_chips.end());

  DsssFrame out;
  out.psdu_bits = psdu_bits.size();
  out.chips = chips;
  out.baseband = cfg_.samples_per_chip == 1
                     ? chips
                     : itb::dsp::hold_upsample(
                           std::span<const Complex>(chips), cfg_.samples_per_chip);
  out.duration_us = static_cast<double>(chips.size()) / 11.0;
  return out;
}

}  // namespace itb::wifi
