// Backscatter link-budget calculator.
//
// RSSI of a backscattered packet at the receiver:
//   P_rx = P_tx + G_tx + G_tag - PL(d1) - L_bs - L_extra(tag) - PL(d2) + G_rx
// where L_bs is the tag's modulation conversion loss (measured from the
// simulated SSB waveform: fundamental-harmonic share of the switching
// waveform plus |Gamma| < 1), and L_extra folds in antenna efficiency,
// tissue, immersion, etc. PER mapping uses DQPSK/DSSS closed forms, with a
// Monte-Carlo cross-check in tests.
#pragma once

#include "channel/antenna.h"
#include "channel/pathloss.h"
#include "channel/tissue.h"
#include "wifi/rates.h"

namespace itb::channel {

using itb::dsp::Real;

/// The BLE transmitter's 2 dBi monopole and the tag modulator's 6.2 dB
/// single-sideband conversion loss are constants in link.cpp.
struct BackscatterLinkConfig {
  Real ble_tx_power_dbm = 0.0;
  Antenna tag_antenna = monopole_2dbi();
  Antenna rx_antenna = monopole_2dbi();
  LogDistanceModel pathloss{};
  Real ble_tag_distance_m = 0.3048;  ///< 1 ft default
  /// Additional one-way loss between tag antenna and free space on the
  /// *backscatter* side (tissue, immersion); applied twice (in + out).
  Real tag_medium_loss_db = 0.0;
  Real rx_noise_figure_db = 6.0;
  Real rx_bandwidth_hz = 22e6;
};

/// Sentinel RSSI/SNR reported for a dead link: finite (so downstream
/// arithmetic stays well-defined) but far below any decodable level.
inline constexpr Real kLinkDownDb = -300.0;

struct LinkSample {
  Real rssi_dbm;
  Real snr_db;
  Real incident_at_tag_dbm;
  /// True when the budget inputs were degenerate (non-positive/NaN
  /// distance, NaN losses — e.g. a detuned pathloss model) and the sample
  /// carries the kLinkDownDb sentinel instead of silently propagating
  /// NaN into reservation math.
  bool link_down = false;
};

/// Computes the received backscatter RSSI for a tag->receiver distance.
/// Degenerate inputs yield link_down = true with kLinkDownDb fields, never
/// NaN/inf.
LinkSample backscatter_rssi(const BackscatterLinkConfig& cfg,
                            Real tag_rx_distance_m);

/// Theoretical BER for DBPSK / DQPSK over AWGN at the given Eb/N0 (dB).
Real ber_dbpsk(Real ebn0_db);
Real ber_dqpsk(Real ebn0_db);

/// SNR (dB, in the 22 MHz channel) -> packet error rate for an 802.11b
/// frame of `psdu_bytes`, including the DSSS processing gain at 1/2 Mbps.
/// A NaN or link-down SNR maps to PER 1 (the link_down outcome), never NaN.
Real per_80211b(itb::wifi::DsssRate rate, Real snr_db, std::size_t psdu_bytes);

/// Same mapping for an 802.15.4 O-QPSK frame at 250 kbps, taking the SNR in
/// the same 22 MHz reference bandwidth so it composes with the backscatter
/// budget above. The 32-chip spreading plus the narrow channel make this
/// the most SNR-robust rung of the rate-fallback ladder (~9 dB below
/// 1 Mbps 802.11b at equal channel SNR).
Real per_802154(Real snr_db, std::size_t psdu_bytes);

/// Direct (non-backscatter) link RSSI, for the plain Wi-Fi/BLE legs.
Real direct_rssi_dbm(Real tx_power_dbm, Real tx_gain_dbi, Real rx_gain_dbi,
                     const LogDistanceModel& model, Real distance_m);

}  // namespace itb::channel
