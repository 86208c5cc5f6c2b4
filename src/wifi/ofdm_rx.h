// 802.11a/g OFDM receiver: preamble detection, LTF channel estimation,
// equalization, demapping, Viterbi decoding and descrambling.
//
// Besides closing the TX loop in tests, this class reproduces the paper's
// §4.4 methodology: it exposes the recovered scrambler seed of each frame
// (via the SERVICE field), which is how the authors tracked chipset seed
// policies with the gr-ieee802-11 GNURadio receiver.
#pragma once

#include <optional>

#include "wifi/ofdm_tx.h"

namespace itb::wifi {

struct OfdmRxResult {
  Bytes psdu;
  OfdmRate rate = OfdmRate::k6;
  std::uint8_t scrambler_seed = 0;  ///< recovered from the SERVICE field
  bool signal_ok = false;
  itb::dsp::Real rssi_dbm = 0.0;
  std::size_t frame_start = 0;      ///< sample index of the STF start
  /// Carrier offset estimated from the preamble (Hz at 20 Msps),
  /// already corrected before demodulation. 0 when correction is disabled.
  itb::dsp::Real cfo_est_hz = 0.0;
};

struct OfdmRxConfig {
  /// Two-stage preamble CFO synchronization: coarse from the STF's 16-sample
  /// periodicity (unambiguous to +-625 kHz at 20 Msps), fine from the LTF's
  /// 64-sample periodicity (+-156 kHz), combined by integer-ambiguity
  /// resolution. Needed for the tag's +-40 ppm oscillator (~+-100 kHz at
  /// 2.4 GHz), which is a third of a subcarrier spacing — fatal ICI if left
  /// uncorrected.
  bool enable_cfo_correction = true;
};

class OfdmReceiver {
 public:
  explicit OfdmReceiver(const OfdmRxConfig& cfg = {});

  /// Finds and decodes one frame. Returns nullopt when no preamble is found.
  std::optional<OfdmRxResult> receive(const CVec& samples) const;

 private:
  OfdmRxConfig cfg_;
};

}  // namespace itb::wifi
