// Integration tests for the public facade: end-to-end uplink (BLE tone ->
// tag -> Wi-Fi receiver), budget/waveform cross-checks, and the downlink
// pipeline (802.11g AM -> peak detector).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/downlink.h"
#include "core/interscatter.h"

namespace itb::core {
namespace {

using itb::dsp::Real;

TEST(Interscatter, ToneIsReadyOnConstruction) {
  UplinkScenario s;
  const InterscatterSystem sys(s);
  EXPECT_GT(sys.tone().tone_duration_us(), 200.0);
}

TEST(Interscatter, ShiftMatchesChannelPlan) {
  UplinkScenario s;
  s.ble_channel = 38;
  s.wifi_channel = 11;
  const InterscatterSystem sys(s);
  EXPECT_NEAR(sys.shift_hz(), 36e6, 1.0);
}

TEST(Interscatter, RejectsChannelsOffThePlan) {
  for (const unsigned wifi : {0u, 14u}) {
    UplinkScenario s;
    s.wifi_channel = wifi;
    EXPECT_THROW(InterscatterSystem{s}, std::invalid_argument)
        << "wifi channel " << wifi;
  }
  UplinkScenario ble;
  ble.ble_channel = 40;
  EXPECT_THROW(InterscatterSystem{ble}, std::invalid_argument);
  UplinkScenario edges;
  edges.ble_channel = 0;
  edges.wifi_channel = 13;
  EXPECT_NO_THROW(InterscatterSystem{edges});
}

TEST(Interscatter, BudgetSaneAtTypicalGeometry) {
  UplinkScenario s;  // 1 ft BLE->tag, 10 ft tag->RX, 0 dBm
  const InterscatterSystem sys(s);
  const UplinkBudget b = sys.budget(31);
  EXPECT_LT(b.rssi_dbm, -40.0);
  EXPECT_GT(b.rssi_dbm, -95.0);
  EXPECT_GT(b.incident_at_tag_dbm, b.rssi_dbm);
}

TEST(Interscatter, PerImprovesWithTxPower) {
  UplinkScenario lo;
  lo.tag_rx_distance_m = 12.0;
  UplinkScenario hi = lo;
  hi.ble_tx_power_dbm = 20.0;
  const UplinkBudget a = InterscatterSystem(lo).budget(31);
  const UplinkBudget b = InterscatterSystem(hi).budget(31);
  EXPECT_LE(b.per, a.per);
  EXPECT_NEAR(b.rssi_dbm - a.rssi_dbm, 20.0, 1e-9);
}

TEST(Interscatter, EndToEndFrameDecodesAtShortRange) {
  UplinkScenario s;
  s.ble_tx_power_dbm = 10.0;
  s.tag_rx_distance_m = 1.0;
  const InterscatterSystem sys(s);
  itb::phy::Bytes psdu(31);
  for (std::size_t i = 0; i < psdu.size(); ++i) {
    psdu[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const UplinkDecodeResult r = sys.simulate_frame(psdu);
  ASSERT_TRUE(r.detected);
  EXPECT_TRUE(r.payload_ok);
  EXPECT_EQ(r.decoded_psdu, psdu);
}

TEST(Interscatter, EndToEndFailsFarBeyondRange) {
  UplinkScenario s;
  s.ble_tx_power_dbm = 0.0;
  s.tag_rx_distance_m = 120.0;  // well past the paper's 0 dBm range
  const InterscatterSystem sys(s);
  const UplinkDecodeResult r = sys.simulate_frame(itb::phy::Bytes(31, 0x5A));
  EXPECT_FALSE(r.detected && r.payload_ok);
}

TEST(Interscatter, WaveformAgreesWithBudgetNearThreshold) {
  // Cross-check: where the budget says PER ~ 0, the waveform path decodes;
  // where it says PER ~ 1, it does not.
  UplinkScenario good;
  good.ble_tx_power_dbm = 20.0;
  good.tag_rx_distance_m = 2.0;
  EXPECT_LT(InterscatterSystem(good).budget(31).per, 0.05);
  EXPECT_TRUE(InterscatterSystem(good).simulate_frame(itb::phy::Bytes(31, 1)).payload_ok);

  UplinkScenario bad = good;
  bad.ble_tx_power_dbm = 0.0;
  bad.tag_rx_distance_m = 90.0;
  EXPECT_GT(InterscatterSystem(bad).budget(31).per, 0.5);
}

TEST(Interscatter, BudgetIsMonotoneInDistance) {
  UplinkScenario s;
  std::vector<UplinkBudget> pts;
  for (const Real d : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    s.tag_rx_distance_m = d;
    pts.push_back(InterscatterSystem(s).budget(31));
  }
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i].rssi_dbm, pts[i - 1].rssi_dbm);
    EXPECT_GE(pts[i].per, pts[i - 1].per - 1e-9);
  }
}

TEST(Interscatter, TissueLossShrinksRange) {
  UplinkScenario air;
  UplinkScenario implant = air;
  implant.tag_medium_loss_db = 10.0;
  implant.tag_antenna = itb::channel::neural_implant_loop();
  const auto a = InterscatterSystem(air).budget(31);
  const auto b = InterscatterSystem(implant).budget(31);
  EXPECT_GT(a.rssi_dbm, b.rssi_dbm + 15.0);
}

TEST(Interscatter, VersionString) {
  EXPECT_NE(version().find("interscatter"), std::string::npos);
}

// --- downlink ---------------------------------------------------------------------

TEST(Downlink, CleanAtShortRange) {
  DownlinkScenario s;
  s.distance_m = 2.0;
  s.wifi_tx_power_dbm = 15.0;
  const itb::phy::Bits msg = {1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1};
  const DownlinkResult r = simulate_downlink(s, msg);
  EXPECT_TRUE(r.above_sensitivity);
  EXPECT_EQ(r.received, msg);
  EXPECT_DOUBLE_EQ(r.ber, 0.0);
}

TEST(Downlink, FailsBelowSensitivity) {
  DownlinkScenario s;
  s.distance_m = 30.0;  // far outside the -32 dBm sensitivity radius
  s.wifi_tx_power_dbm = 15.0;
  const itb::phy::Bits msg(20, 1);
  const DownlinkResult r = simulate_downlink(s, msg);
  EXPECT_FALSE(r.above_sensitivity);
  EXPECT_GT(r.ber, 0.2);
}

TEST(Downlink, FixedSeedChipsetWorks) {
  DownlinkScenario s;
  s.chipset = itb::wifi::ath5k_fixed(0x2B);
  s.distance_m = 1.5;
  const itb::phy::Bits msg = {0, 1, 1, 0, 1};
  const DownlinkResult r = simulate_downlink(s, msg);
  EXPECT_EQ(r.received, msg);
}

TEST(Downlink, BerDegradesWithDistance) {
  const itb::phy::Bits msg(24, 1);
  Real prev_ber = -1.0;
  for (const Real d : {2.0, 6.0, 12.0, 25.0}) {
    DownlinkScenario s;
    s.distance_m = d;
    const DownlinkResult r = simulate_downlink(s, msg);
    EXPECT_GE(r.ber, prev_ber - 0.05) << "at " << d << " m";
    prev_ber = r.ber;
  }
}

}  // namespace
}  // namespace itb::core
