// 802.11b receiver chain: chip-timing acquisition, SFD search, PLCP header
// decode, rate switch, despread/CCK decode, descramble, FCS check, RSSI.
//
// This models the commodity receiver (Intel Link 5300 in the paper) that the
// tag's synthesized packets must satisfy — every PER data point in Fig. 10/11
// comes from running waveforms through this class.
#pragma once

#include <optional>

#include "dsp/types.h"
#include "wifi/dsss_tx.h"
#include "wifi/mac_frame.h"

namespace itb::wifi {

struct DsssRxConfig {
  std::size_t samples_per_chip = 1;
  /// Estimate the per-symbol carrier rotation from the preamble's
  /// differential symbols and derotate the chip stream before decoding.
  /// A +-40 ppm tag oscillator (~+-100 kHz at 2.4 GHz) rotates DQPSK by
  /// ~0.6 rad per symbol — most of the pi/4 decision margin — so the
  /// differential demodulator alone cannot absorb it at realistic SNR.
  /// Unambiguous up to +-250 kHz (a quarter turn per 1 us symbol).
  bool enable_cfo_correction = true;
};

struct DsssRxResult {
  Bytes psdu;
  PlcpHeader header;
  bool header_ok = false;
  bool fcs_ok = false;   ///< MAC-level CRC32 over the PSDU
  Real rssi_dbm = 0.0;   ///< measured from preamble sample power
  std::size_t sync_offset_samples = 0;
  /// Carrier offset estimated from the preamble (Hz at 11 Mchip/s),
  /// already corrected before decoding. 0 when correction is disabled.
  Real cfo_est_hz = 0.0;
};

class DsssReceiver {
 public:
  explicit DsssReceiver(const DsssRxConfig& cfg = {});

  /// Attempts to find and decode one frame in the sample stream.
  /// Returns nullopt when no preamble/SFD is found.
  std::optional<DsssRxResult> receive(const CVec& samples) const;

 private:
  DsssRxConfig cfg_;
};

}  // namespace itb::wifi
