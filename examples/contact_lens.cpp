// Smart contact lens scenario (paper §5.1 / Fig. 2a).
//
// A glucose-sensing lens wakes on each advertisement from the user's watch,
// backscatters one 2 Mbps Wi-Fi packet with the latest readings to the
// phone, and sleeps. This example reports the end-to-end link at the
// paper's in-vitro geometry plus the battery-life arithmetic that motivates
// backscatter in the first place.
#include <cstdio>
#include <cstring>

#include "backscatter/ic_power.h"
#include "backscatter/tag.h"
#include "channel/tissue.h"
#include "core/interscatter.h"

namespace {

/// A glucose reading as the lens firmware would pack it.
struct GlucoseReading {
  std::uint32_t timestamp_s;
  std::uint16_t glucose_mg_dl_x10;
  std::uint16_t battery_mv;
};

itb::phy::Bytes pack(const GlucoseReading& r) {
  itb::phy::Bytes out(sizeof(r));
  std::memcpy(out.data(), &r, sizeof(r));
  return out;
}

}  // namespace

int main() {
  using namespace itb;
  using channel::kInchesToMeters;

  std::printf("=== smart contact lens -> watch(BLE) -> phone(Wi-Fi) ===\n\n");

  // The lens link: watch 12 in away, saline immersion, 1 cm loop antenna.
  const double saline_db =
      channel::tissue_loss_db(channel::saline_2g4(), 2.45e9, 0.002) +
      channel::interface_loss_db(channel::saline_2g4(), 2.45e9);

  core::UplinkScenario s;
  s.ble_tx_power_dbm = 10.0;  // Note 5 / iPhone 6 class (paper §4.2)
  s.ble_tag_distance_m = 12.0 * kInchesToMeters;
  s.tag_antenna = channel::contact_lens_loop();
  s.tag_medium_loss_db = saline_db;
  s.pathloss_exponent = 1.8;

  // Fresh reading every advertising interval (20 ms); report a burst.
  const GlucoseReading reading{.timestamp_s = 1700000000,
                               .glucose_mg_dl_x10 = 1042,  // 104.2 mg/dL
                               .battery_mv = 3012};
  const phy::Bytes psdu = pack(reading);

  std::printf("reading: %u.%u mg/dL at t=%u, packed to %zu bytes\n",
              reading.glucose_mg_dl_x10 / 10, reading.glucose_mg_dl_x10 % 10,
              reading.timestamp_s, psdu.size());

  for (const double d_in : {6.0, 12.0, 24.0, 36.0}) {
    s.tag_rx_distance_m = d_in * kInchesToMeters;
    const core::InterscatterSystem sys(s);
    const auto b = sys.budget(psdu.size());
    const auto r = sys.simulate_frame(psdu);
    std::printf("  phone at %4.0f in: RSSI %6.1f dBm, budget PER %.3f, "
                "waveform decode %s\n",
                d_in, b.rssi_dbm, b.per,
                r.payload_ok ? "OK" : (r.detected ? "corrupt" : "miss"));
  }

  // Power story: the paper's whole point.
  const double airtime_us = 224.0;  // short preamble + ~8 B at 2 Mbps
  const double duty = airtime_us / 20000.0;  // one packet per 20 ms event
  std::printf("\npower: %.1f uW while backscattering, %.2f uW averaged at a "
              "20 ms reporting interval\n",
              backscatter::active_power(wifi::DsssRate::k2Mbps, 35.75e6).total_uw(),
              backscatter::average_power_uw(wifi::DsssRate::k2Mbps, 35.75e6, duty));
  std::printf("a BLE radio TX at ~18 mW would be ~%0.f00x the power budget of "
              "this lens\n",
              18000.0 / backscatter::active_power(wifi::DsssRate::k2Mbps, 35.75e6)
                            .total_uw() / 100.0);
  return 0;
}
