// Tests for the 802.11b DSSS/CCK stack: Barker, DPSK, CCK, PLCP, MAC frames
// and the full transmitter -> receiver loop at all four rates.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.h"
#include "dsp/rng.h"
#include "wifi/barker.h"
#include "wifi/cck.h"
#include "wifi/dpsk.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"
#include "wifi/mac_frame.h"
#include "wifi/plcp.h"

namespace itb::wifi {
namespace {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;
using itb::phy::Bytes;

// --- Barker -------------------------------------------------------------------

TEST(Barker, SpreadDespreadRoundTrip) {
  const CVec symbols = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  const CVec chips = spread(symbols);
  ASSERT_EQ(chips.size(), 44u);
  const CVec back = despread(chips);
  ASSERT_EQ(back.size(), symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_NEAR(std::abs(back[i] - symbols[i]), 0.0, 1e-12);
  }
}

TEST(Barker, AutocorrelationSidelobesAreLow) {
  // Classic Barker property: aperiodic autocorrelation sidelobes <= 1
  // against a mainlobe of 11.
  for (std::size_t shift = 1; shift < 11; ++shift) {
    int acc = 0;
    for (std::size_t i = 0; i + shift < 11; ++i) {
      acc += kBarker[i] * kBarker[i + shift];
    }
    EXPECT_LE(std::abs(acc), 1) << "shift " << shift;
  }
}

TEST(Barker, ProcessingGainAgainstNoise) {
  itb::dsp::Xoshiro256 rng(1);
  const CVec symbols(50, Complex{1.0, 0.0});
  CVec chips = spread(symbols);
  // 0 dB SNR at chip level.
  chips = itb::channel::add_noise_snr(chips, 0.0, rng);
  const CVec back = despread(chips);
  // Despreading should average the noise down by ~10.4 dB.
  std::size_t correct = 0;
  for (const auto& s : back) correct += (s.real() > 0.0);
  EXPECT_EQ(correct, back.size());
}

// --- DPSK ----------------------------------------------------------------------

TEST(Dpsk, DbpskRoundTrip) {
  const Bits bits = {0, 1, 1, 0, 1, 0, 0, 1};
  DifferentialEncoder enc;
  const CVec sym = dbpsk_encode(bits, enc);
  const Bits out = dbpsk_decode(sym, Complex{1.0, 0.0});
  EXPECT_EQ(out, bits);
}

TEST(Dpsk, DqpskRoundTrip) {
  const Bits bits = {0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1};
  DifferentialEncoder enc;
  const CVec sym = dqpsk_encode(bits, enc);
  const Bits out = dqpsk_decode(sym, Complex{1.0, 0.0});
  EXPECT_EQ(out, bits);
}

TEST(Dpsk, RotationInvariance) {
  // Differential decoding must ignore a common rotation.
  const Bits bits = {1, 0, 0, 1, 1, 1};
  DifferentialEncoder enc;
  CVec sym = dqpsk_encode(bits, enc);
  const Complex rot = std::polar(1.0, 1.234);
  for (auto& s : sym) s *= rot;
  const Bits out = dqpsk_decode(sym, rot);
  EXPECT_EQ(out, bits);
}

TEST(Dpsk, PhaseIncrements) {
  EXPECT_DOUBLE_EQ(dbpsk_phase_increment(0), 0.0);
  EXPECT_DOUBLE_EQ(dbpsk_phase_increment(1), itb::dsp::kPi);
  EXPECT_DOUBLE_EQ(dqpsk_phase_increment(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(dqpsk_phase_increment(0, 1), itb::dsp::kPi / 2);
  EXPECT_DOUBLE_EQ(dqpsk_phase_increment(1, 1), itb::dsp::kPi);
  EXPECT_DOUBLE_EQ(dqpsk_phase_increment(1, 0), 3 * itb::dsp::kPi / 2);
}

TEST(Dpsk, QuantizeQuarter) {
  EXPECT_EQ(quantize_quarter(0.01), 0u);
  EXPECT_EQ(quantize_quarter(itb::dsp::kPi / 2 - 0.01), 1u);
  EXPECT_EQ(quantize_quarter(-itb::dsp::kPi / 2), 3u);
  EXPECT_EQ(quantize_quarter(itb::dsp::kPi + 0.1), 2u);
}

// --- CCK -----------------------------------------------------------------------

TEST(Cck, CodewordsAreUnitMagnitude) {
  const auto cw = cck_codeword(0.3, 1.1, 2.2, 0.7);
  for (const auto& c : cw) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(Cck, Base64CodewordsAreDistinct) {
  // All 64 (p2,p3,p4) combinations at 11 Mbps must give distinct codewords.
  std::vector<std::array<Complex, 8>> words;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 4; ++c) {
        const Real q = itb::dsp::kPi / 2;
        words.push_back(cck_codeword(0.0, a * q, b * q, c * q));
      }
    }
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      Real dist = 0.0;
      for (int k = 0; k < 8; ++k) dist += std::abs(words[i][k] - words[j][k]);
      EXPECT_GT(dist, 0.5) << i << " vs " << j;
    }
  }
}

class CckRoundTrip : public ::testing::TestWithParam<DsssRate> {};

TEST_P(CckRoundTrip, CleanChannel) {
  const DsssRate rate = GetParam();
  CckModulator mod(rate);
  CckDemodulator demod(rate);
  itb::dsp::Xoshiro256 rng(2);
  Bits bits;
  const std::size_t n = rate == DsssRate::k5_5Mbps ? 4 * 50 : 8 * 50;
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.bit());
  const CVec chips = mod.modulate(bits);
  const Bits out = demod.demodulate(chips, 0.0);
  EXPECT_EQ(out, bits);
}

TEST_P(CckRoundTrip, NoisyChannel10Db) {
  const DsssRate rate = GetParam();
  CckModulator mod(rate);
  CckDemodulator demod(rate);
  itb::dsp::Xoshiro256 rng(3);
  Bits bits;
  const std::size_t n = rate == DsssRate::k5_5Mbps ? 4 * 100 : 8 * 100;
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.bit());
  CVec chips = mod.modulate(bits);
  chips = itb::channel::add_noise_snr(chips, 10.0, rng);
  const Bits out = demod.demodulate(chips, 0.0);
  EXPECT_EQ(itb::phy::hamming_distance(out, bits), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rates, CckRoundTrip,
                         ::testing::Values(DsssRate::k5_5Mbps, DsssRate::k11Mbps));

// --- PLCP ----------------------------------------------------------------------

TEST(Plcp, HeaderRoundTrip) {
  PlcpHeader hdr;
  hdr.rate = DsssRate::k5_5Mbps;
  hdr.service = PlcpHeader::service_for(hdr.rate, 100);
  hdr.length_us = length_field_us(hdr.rate, 100);
  const Bits bits = build_plcp_header_bits(hdr);
  ASSERT_EQ(bits.size(), 48u);
  const auto parsed = parse_plcp_header_bits(bits);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rate, hdr.rate);
  EXPECT_EQ(parsed->length_us, hdr.length_us);
}

TEST(Plcp, CorruptHeaderRejected) {
  PlcpHeader hdr;
  hdr.length_us = length_field_us(hdr.rate, 64);
  Bits bits = build_plcp_header_bits(hdr);
  bits[20] ^= 1;
  EXPECT_FALSE(parse_plcp_header_bits(bits).has_value());
}

TEST(Plcp, LengthFieldAndBack) {
  for (const DsssRate r : {DsssRate::k1Mbps, DsssRate::k2Mbps,
                           DsssRate::k5_5Mbps, DsssRate::k11Mbps}) {
    for (const std::size_t n : {14u, 31u, 77u, 209u, 1024u}) {
      const std::uint16_t len = length_field_us(r, n);
      const std::uint8_t service = PlcpHeader::service_for(r, n);
      EXPECT_EQ(psdu_bytes_from_length(r, len, (service & 0x80) != 0), n)
          << rate_name(r) << " " << n << " bytes";
    }
  }
}

TEST(Plcp, SfdBitsLength) { EXPECT_EQ(sfd_bits().size(), 16u); }

// --- MAC frames ------------------------------------------------------------------

TEST(MacFrame, DataRoundTrip) {
  MacFrame f;
  f.type = FrameType::kData;
  f.duration_us = 314;
  f.addr1 = {1, 2, 3, 4, 5, 6};
  f.addr2 = {7, 8, 9, 10, 11, 12};
  f.addr3 = {13, 14, 15, 16, 17, 18};
  f.sequence = 99;
  f.body = {0xCA, 0xFE, 0xBA, 0xBE};
  const Bytes psdu = serialize(f);
  EXPECT_EQ(psdu.size(), kDataHeaderBytes + 4 + kFcsBytes);
  const auto parsed = parse(psdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fcs_ok);
  EXPECT_EQ(parsed->frame.body, f.body);
  EXPECT_EQ(parsed->frame.addr2, f.addr2);
  EXPECT_EQ(parsed->frame.sequence, f.sequence);
}

TEST(MacFrame, ControlFrameSizes) {
  MacFrame rts;
  rts.type = FrameType::kRts;
  EXPECT_EQ(serialize(rts).size(), kRtsBytes);
  MacFrame cts;
  cts.type = FrameType::kCts;
  EXPECT_EQ(serialize(cts).size(), kCtsBytes);
  MacFrame ack;
  ack.type = FrameType::kAck;
  EXPECT_EQ(serialize(ack).size(), kAckBytes);
}

TEST(MacFrame, FcsCatchesCorruption) {
  MacFrame f;
  f.body = {1, 2, 3};
  Bytes psdu = serialize(f);
  psdu[25] ^= 0x10;
  const auto parsed = parse(psdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->fcs_ok);
}

TEST(MacFrame, CtsToSelfAddressedToSender) {
  MacFrame cts;
  cts.type = FrameType::kCtsToSelf;
  cts.addr1 = {9, 9, 9, 9, 9, 9};
  const Bytes psdu = serialize(cts);
  const auto parsed = parse(psdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frame.addr1, cts.addr1);
}

// --- full TX -> RX -----------------------------------------------------------------

class DsssLoopback : public ::testing::TestWithParam<DsssRate> {};

TEST_P(DsssLoopback, CleanDecode) {
  DsssTxConfig txcfg;
  txcfg.rate = GetParam();
  const DsssTransmitter tx(txcfg);

  itb::dsp::Xoshiro256 rng(7);
  Bytes psdu(64);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  const DsssFrame frame = tx.modulate(psdu);
  const DsssReceiver rx;
  const auto result = rx.receive(frame.baseband);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->header_ok);
  EXPECT_EQ(result->header.rate, GetParam());
  EXPECT_EQ(result->psdu, psdu);
}

TEST_P(DsssLoopback, DecodeAt12DbSnr) {
  DsssTxConfig txcfg;
  txcfg.rate = GetParam();
  const DsssTransmitter tx(txcfg);

  itb::dsp::Xoshiro256 rng(8);
  Bytes psdu(32);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  const DsssFrame frame = tx.modulate(psdu);
  const CVec noisy = itb::channel::add_noise_snr(frame.baseband, 12.0, rng);
  const DsssReceiver rx;
  const auto result = rx.receive(noisy);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->header_ok);
  EXPECT_EQ(result->psdu, psdu);
}

TEST_P(DsssLoopback, ShortTagPreambleDecodes) {
  DsssTxConfig txcfg;
  txcfg.rate = GetParam();
  txcfg.short_tag_preamble = true;
  const DsssTransmitter tx(txcfg);

  Bytes psdu = {0xAA, 0x55, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  const DsssFrame frame = tx.modulate(psdu);
  const DsssReceiver rx;
  const auto result = rx.receive(frame.baseband);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->psdu, psdu);
}

INSTANTIATE_TEST_SUITE_P(Rates, DsssLoopback,
                         ::testing::Values(DsssRate::k1Mbps, DsssRate::k2Mbps,
                                           DsssRate::k5_5Mbps, DsssRate::k11Mbps));

TEST(DsssLoopbackMisc, NoSignalNoDetection) {
  itb::dsp::Xoshiro256 rng(9);
  CVec noise(20000);
  for (auto& v : noise) v = rng.complex_gaussian(1.0);
  const DsssReceiver rx;
  EXPECT_FALSE(rx.receive(noise).has_value());
}

TEST(DsssLoopbackMisc, MultiSamplePerChipDecodes) {
  DsssTxConfig txcfg;
  txcfg.rate = DsssRate::k2Mbps;
  txcfg.samples_per_chip = 4;
  const DsssTransmitter tx(txcfg);
  Bytes psdu = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const DsssFrame frame = tx.modulate(psdu);
  DsssRxConfig rxcfg;
  rxcfg.samples_per_chip = 4;
  const DsssReceiver rx(rxcfg);
  const auto result = rx.receive(frame.baseband);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->psdu, psdu);
}

TEST(DsssLoopbackMisc, MacFrameOverDsssEndToEnd) {
  MacFrame f;
  f.type = FrameType::kData;
  f.body = {'h', 'e', 'l', 'l', 'o'};
  const Bytes psdu = serialize(f);

  DsssTxConfig txcfg;
  txcfg.rate = DsssRate::k2Mbps;
  const DsssTransmitter tx(txcfg);
  const DsssFrame frame = tx.modulate(psdu);
  const DsssReceiver rx;
  const auto result = rx.receive(frame.baseband);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->fcs_ok);
  const auto mac = parse(result->psdu);
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->frame.body, f.body);
}

TEST(DsssLoopbackMisc, TruncatedCaptureReportsHeaderOnly) {
  DsssTxConfig txcfg;
  txcfg.rate = DsssRate::k2Mbps;
  const DsssTransmitter tx(txcfg);
  Bytes psdu(100, 0x42);
  const DsssFrame frame = tx.modulate(psdu);
  // Cut the capture in the middle of the payload.
  const CVec cut(frame.baseband.begin(),
                 frame.baseband.begin() + frame.baseband.size() / 2);
  const DsssReceiver rx;
  const auto result = rx.receive(cut);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->header_ok);
  EXPECT_TRUE(result->psdu.empty());
}

// --- rates / payload budget (paper §2.3.3) -----------------------------------------

TEST(Rates, PaperPayloadBudget) {
  EXPECT_EQ(paper_payload_bytes(DsssRate::k2Mbps), 38u);
  EXPECT_EQ(paper_payload_bytes(DsssRate::k5_5Mbps), 104u);
  EXPECT_EQ(paper_payload_bytes(DsssRate::k11Mbps), 209u);
  // 1 Mbps does not fit a useful payload in a 248 us window.
  EXPECT_LT(paper_payload_bytes(DsssRate::k1Mbps), 20u);
}

TEST(Rates, BleDataPacketEnables1Mbps) {
  // Paper §7: 2 ms BLE data packets make 1 Mbps Wi-Fi feasible.
  EXPECT_GT(paper_payload_bytes(DsssRate::k1Mbps, 2000.0), 200u);
}

TEST(Rates, AirtimeArithmetic) {
  EXPECT_DOUBLE_EQ(psdu_airtime_us(DsssRate::k2Mbps, 250), 1000.0);
  EXPECT_DOUBLE_EQ(frame_airtime_us(DsssRate::k1Mbps, 125), 192.0 + 1000.0);
  EXPECT_EQ(max_psdu_bytes_in_window(DsssRate::k11Mbps, 192.0), 0u);
}

}  // namespace
}  // namespace itb::wifi
