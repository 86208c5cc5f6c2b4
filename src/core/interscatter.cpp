#include "core/interscatter.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "ble/channel_map.h"
#include "ble/gfsk.h"
#include "dsp/units.h"
#include "obs/prof.h"

namespace itb::core {

InterscatterSystem::InterscatterSystem(const UplinkScenario& scenario)
    : scenario_(scenario) {
  if (scenario_.ble_channel >= itb::ble::ChannelMap::kNumChannels) {
    throw std::invalid_argument("UplinkScenario: BLE channel " +
                                std::to_string(scenario_.ble_channel) +
                                " is not in 0..39");
  }
  if (!itb::ble::is_wifi_channel(scenario_.wifi_channel)) {
    throw std::invalid_argument("UplinkScenario: Wi-Fi channel " +
                                std::to_string(scenario_.wifi_channel) +
                                " is not in 1..13");
  }
  itb::ble::SingleToneSpec spec;
  spec.channel_index = scenario_.ble_channel;
  spec.sign = itb::ble::ToneSign::kHigh;
  spec.payload_bytes = itb::ble::kMaxAdvDataBytes;
  tone_ = itb::ble::make_single_tone_packet(spec);
}

Real InterscatterSystem::shift_hz() const {
  const Real ble_hz = itb::ble::ChannelMap::frequency_hz(scenario_.ble_channel);
  const Real wifi_hz = itb::ble::wifi_channel_hz(scenario_.wifi_channel);
  return wifi_hz - ble_hz;
}

std::optional<itb::channel::ImpairmentConfig>
InterscatterSystem::resolved_impairments() const {
  if (scenario_.impairments) return scenario_.impairments;
  return itb::channel::make_impairment_preset(
      scenario_.impairment_preset, 11e6,
      itb::ble::wifi_channel_hz(scenario_.wifi_channel));
}

UplinkBudget InterscatterSystem::budget(std::size_t psdu_bytes) const {
  itb::channel::BackscatterLinkConfig link;
  link.ble_tx_power_dbm = scenario_.ble_tx_power_dbm;
  link.tag_antenna = scenario_.tag_antenna;
  link.ble_tag_distance_m = scenario_.ble_tag_distance_m;
  link.tag_medium_loss_db = scenario_.tag_medium_loss_db;
  link.rx_noise_figure_db = scenario_.rx_noise_figure_db;
  link.pathloss.exponent = scenario_.pathloss_exponent;

  const itb::channel::LinkSample s =
      itb::channel::backscatter_rssi(link, scenario_.tag_rx_distance_m);
  const Real per =
      itb::channel::per_80211b(scenario_.rate, s.snr_db, psdu_bytes);
  return {s.rssi_dbm, s.snr_db, per, s.incident_at_tag_dbm};
}

UplinkDecodeResult InterscatterSystem::simulate_frame(
    const itb::phy::Bytes& psdu) const {
  static const std::size_t kZone = obs::prof_zone("phy.simulate_frame");
  const obs::ProfZone prof(kZone);
  UplinkDecodeResult out;

  // --- Tag synthesis at 143 Msps relative to the BLE tone ------------------
  // The tag derives its shift from the 143 MHz PLL: only f_clk/(4k) shifts
  // give glitch-free quarter-phase clocks (paper §3 — this is why the
  // hardware shifts by exactly 35.75 MHz onto channel 11 and lets the
  // receiver's carrier lock absorb the ~250 kHz residual).
  itb::backscatter::WifiSynthConfig synth_cfg;
  synth_cfg.rate = scenario_.rate;
  synth_cfg.sample_rate_hz = 143e6;
  const Real wanted = shift_hz();
  const Real k = std::max(1.0, std::round(synth_cfg.sample_rate_hz /
                                          (4.0 * std::abs(wanted))));
  synth_cfg.shift_hz =
      std::copysign(synth_cfg.sample_rate_hz / (4.0 * k), wanted);
  const itb::backscatter::WifiSynthResult synth =
      itb::backscatter::synthesize_wifi(psdu, synth_cfg);

  // --- Link budget sets the receive SNR ------------------------------------
  const UplinkBudget b = budget(psdu.size());

  // --- Receiver-side baseband ----------------------------------------------
  // Down-convert to the Wi-Fi channel: multiply by e^{-j 2 pi shift t} and
  // decimate to 11 Msps (1 sample/chip). 143/13 = 11 exactly.
  // Domain-separated substream ("uplk"); see DESIGN.md determinism rules.
  itb::dsp::Xoshiro256 rng(
      itb::dsp::splitmix64(scenario_.seed ^ 0x75706C6BULL));
  const Real fs = synth_cfg.sample_rate_hz;
  itb::dsp::CVec shifted =
      itb::channel::apply_cfo(synth.waveform, -synth_cfg.shift_hz, fs);
  // Chip matched filter + decimate by 13.
  const std::size_t spc = 13;
  itb::dsp::CVec chips(shifted.size() / spc);
  for (std::size_t i = 0; i < chips.size(); ++i) {
    itb::dsp::Complex acc{0.0, 0.0};
    for (std::size_t k = 0; k < spc; ++k) acc += shifted[i * spc + k];
    chips[i] = acc / static_cast<Real>(spc);
  }

  // Scale to the budget RSSI and add thermal noise at the channel bandwidth.
  const Real target_watts = itb::dsp::dbm_to_watts(b.rssi_dbm);
  const Real cur = itb::dsp::mean_power(chips);
  if (cur > 0.0) {
    const Real g = std::sqrt(target_watts / cur);
    for (auto& c : chips) c *= g;
  }

  // Radio impairments: the channel-side stages (multipath, tag CFO, phase
  // noise, SRO, IQ) distort the signal before the receiver's thermal noise
  // is added; the ADC quantizes signal-plus-noise afterwards.
  const auto impairment_cfg = resolved_impairments();
  std::optional<itb::channel::ImpairmentChain> chain;
  if (impairment_cfg) {
    chain.emplace(*impairment_cfg);
    chips = chain->apply_channel(chips, scenario_.seed);
  }

  const Real noise_dbm = itb::channel::thermal_noise_dbm(
      11e6, scenario_.rx_noise_figure_db);  // post-despread equivalent BW
  itb::dsp::CVec noisy = itb::channel::add_noise_variance(
      chips, itb::dsp::dbm_to_watts(noise_dbm), rng);
  if (chain) noisy = chain->apply_frontend(noisy);

  // --- Decode ---------------------------------------------------------------
  itb::wifi::DsssRxConfig rxcfg;
  rxcfg.samples_per_chip = 1;
  const itb::wifi::DsssReceiver rx(rxcfg);
  const auto res = rx.receive(noisy);
  if (!res) return out;

  out.detected = true;
  out.rssi_dbm = b.rssi_dbm;
  out.decoded_psdu = res->psdu;
  out.payload_ok = res->header_ok && res->psdu == psdu;
  return out;
}

std::string version() { return "interscatter 1.0.0"; }

}  // namespace itb::core
