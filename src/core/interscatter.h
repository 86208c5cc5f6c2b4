// Public API of the interscatter library.
//
// An InterscatterSystem wires the full paper pipeline together:
//
//   BLE advertiser (single-tone payload, §2.2)
//     -> incident tone at the tag (link budget / tissue medium)
//     -> tag: envelope detect, guard, SSB backscatter 802.11b/ZigBee (§2.3)
//     -> Wi-Fi / ZigBee receiver decode + RSSI
//   and the reverse direction:
//   802.11g AM frames (§2.4) -> peak detector at the tag -> downlink bits.
//
// Two fidelity levels coexist:
//   - waveform level: every block runs on complex baseband samples and the
//     receiver actually decodes (used by PER/BER experiments and tests);
//   - budget level: closed-form RSSI/PER from channel/link.h (used by the
//     long-range sweeps, cross-checked against waveform level in tests).
#pragma once

#include <optional>
#include <string>

#include "backscatter/tag.h"
#include "ble/single_tone.h"
#include "channel/awgn.h"
#include "channel/impairments.h"
#include "channel/link.h"
#include "wifi/dsss_rx.h"

namespace itb::core {

using itb::dsp::Real;

/// Scenario description shared by the uplink experiments.
struct UplinkScenario {
  // Geometry.
  Real ble_tag_distance_m = 0.3048;  ///< 1 ft
  Real tag_rx_distance_m = 3.048;    ///< 10 ft
  // Radios.
  Real ble_tx_power_dbm = 0.0;
  unsigned ble_channel = 38;
  unsigned wifi_channel = 11;
  itb::wifi::DsssRate rate = itb::wifi::DsssRate::k2Mbps;
  // Tag + medium.
  itb::channel::Antenna tag_antenna = itb::channel::monopole_2dbi();
  Real tag_medium_loss_db = 0.0;  ///< tissue/saline one-way extra loss
  // Environment.
  Real pathloss_exponent = 2.2;
  Real rx_noise_figure_db = 6.0;
  // Radio impairments applied to the received waveform (tag oscillator CFO,
  // multipath, receiver ADC...). The preset is resolved at the receiver's
  // chip rate and the Wi-Fi channel carrier; an explicit `impairments`
  // config overrides the preset.
  itb::channel::ImpairmentPreset impairment_preset =
      itb::channel::ImpairmentPreset::kNone;
  std::optional<itb::channel::ImpairmentConfig> impairments;
  std::uint64_t seed = 1;
};

/// Budget-level result for one geometry point.
struct UplinkBudget {
  Real rssi_dbm;
  Real snr_db;
  Real per;
  Real incident_at_tag_dbm;
};

/// Waveform-level result: the receiver actually decoded (or not).
struct UplinkDecodeResult {
  bool detected = false;
  bool payload_ok = false;  ///< decoded PSDU matches what the tag sent
  Real rssi_dbm = 0.0;
  itb::phy::Bytes decoded_psdu;
};

class InterscatterSystem {
 public:
  /// Throws std::invalid_argument on a BLE channel outside 0..39 or a Wi-Fi
  /// channel outside 1..13.
  explicit InterscatterSystem(const UplinkScenario& scenario);

  /// Closed-form link budget at the scenario geometry.
  UplinkBudget budget(std::size_t psdu_bytes) const;

  /// Full waveform simulation of one backscattered frame carrying `psdu`.
  /// The frequency shift is derived from the BLE/Wi-Fi channel pair.
  UplinkDecodeResult simulate_frame(const itb::phy::Bytes& psdu) const;

  /// The BLE single-tone advertisement driving the tag.
  const itb::ble::SingleToneResult& tone() const { return tone_; }

  /// Tag-side frequency shift (Hz) between the BLE tone and the Wi-Fi
  /// channel centre.
  Real shift_hz() const;

  /// The impairment configuration simulate_frame() will apply: the explicit
  /// scenario config if set, else the preset resolved at the receiver chip
  /// rate (11 Msps) and the Wi-Fi channel carrier. nullopt when ideal.
  std::optional<itb::channel::ImpairmentConfig> resolved_impairments() const;

  const UplinkScenario& scenario() const { return scenario_; }

 private:
  UplinkScenario scenario_;
  itb::ble::SingleToneResult tone_;
};

/// Library version string.
std::string version();

}  // namespace itb::core
