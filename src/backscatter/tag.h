// The interscatter tag's end-to-end state machine (paper §2.2-2.3):
//
//   IDLE -> (envelope detector sees BLE preamble/AA/header energy, 56 us)
//        -> WAIT guard (timing uncertainty margin, 4 us)
//        -> BACKSCATTER (synthesize Wi-Fi/ZigBee inside the payload window)
//        -> IDLE before the BLE CRC starts
//
// The tag never decodes Bluetooth: it only sees energy, so its payload-start
// estimate carries jitter. Tests inject timing error beyond the guard
// interval to show the resulting truncation failures.
#pragma once

#include <optional>

#include "backscatter/detector.h"
#include "backscatter/wifi_synth.h"
#include "ble/packet.h"

namespace itb::backscatter {

/// The paper's guard interval between the estimated AdvData start and the
/// first backscattered sample.
inline constexpr Real kGuardUs = 4.0;

struct TagConfig {
  WifiSynthConfig wifi{};
  /// Extra timing error (us) injected on top of detection jitter; models the
  /// no-decode energy-detection uncertainty.
  Real timing_error_us = 0.0;
};

struct TagTransmission {
  WifiSynthResult synth;
  double backscatter_start_us = 0.0;  ///< relative to BLE packet start
  double window_us = 0.0;             ///< available payload window
  bool fits_window = false;           ///< frame duration <= window - guard
};

class InterscatterTag {
 public:
  explicit InterscatterTag(const TagConfig& cfg = {});

  /// Given the BLE packet's air timing (from ble::AdvPacket bookkeeping) and
  /// the PSDU the tag wants to send, plans and synthesizes the transmission.
  /// Returns nullopt when the Wi-Fi frame cannot fit in the window at all.
  std::optional<TagTransmission> plan(const itb::ble::AdvPacket& ble_packet,
                                      const itb::phy::Bytes& psdu) const;

  /// Detection front-end: runs a default envelope detector at
  /// `sample_rate_hz` on incident BLE baseband samples and returns the
  /// estimated AdvData start time (us), or nullopt if no trigger. The
  /// default offset is the paper's 56 us of preamble + access address + PDU
  /// header plus the fixed 48 us AdvA field that precedes the
  /// application-controlled AdvData.
  std::optional<double> detect_payload_start(
      const CVec& incident, Real sample_rate_hz,
      double header_duration_us = 56.0 + 48.0) const;

  const TagConfig& config() const { return cfg_; }

 private:
  TagConfig cfg_;
};

}  // namespace itb::backscatter
