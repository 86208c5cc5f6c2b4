// Output-bit goldens for the PHY inner loops: FNV-1a 64 digests of what each
// production entry point returns on fixed seeded inputs. The inner loops
// (correlators, despreaders, FIR, FFT butterflies, impairment stages) define
// their floating-point operation order exactly; any reordering, fused
// multiply-add or changed accumulator shape moves a digest here. The
// Monte-Carlo tests only compare thread counts against each other, so this
// suite is what pins the bits themselves.
//
// Inputs come from the libm-free Gaussian sampler. Where a path cannot avoid
// a libm transcendental (FFT twiddles, filter design, modulator phases, the
// impairment stages), the test says so; those sites are listed in DESIGN.md
// "Gaussian sampler", under "libm that remains on digest paths".
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "backscatter/detector.h"
#include "backscatter/ic_power.h"
#include "backscatter/tag.h"
#include "ble/gfsk.h"
#include "ble/packet.h"
#include "ble/single_tone.h"
#include "channel/awgn.h"
#include "channel/impairments.h"
#include "core/interscatter.h"
#include "core/monte_carlo.h"
#include "dsp/correlate.h"
#include "dsp/fft_plan.h"
#include "dsp/ola.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "dsp/spectrum.h"
#include "dsp/units.h"
#include "mac/dcf.h"
#include "mac/reservation.h"
#include "wifi/am_downlink.h"
#include "wifi/barker.h"
#include "wifi/cck.h"
#include "zigbee/oqpsk.h"

namespace itb {
namespace {

using dsp::Complex;
using dsp::CVec;
using dsp::Real;
using phy::Bits;

/// FNV-1a 64 over the object representation of `v` (doubles bit-exact).
template <typename T>
std::uint64_t fnv64(std::span<const T> v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size_bytes(); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv64(const std::vector<T>& v) {
  return fnv64(std::span<const T>(v));
}

CVec gaussian_cvec(std::size_t n, std::uint64_t seed) {
  dsp::Xoshiro256 rng(dsp::splitmix64(seed));
  CVec v(n);
  dsp::fill_complex_gaussian(v, 1.0, rng);
  return v;
}

/// Complex vector with real entries only (a real correlation pattern).
CVec gaussian_real_cvec(std::size_t n, std::uint64_t seed) {
  dsp::Xoshiro256 rng(dsp::splitmix64(seed));
  CVec v(n);
  for (auto& x : v) x = Complex{rng.gaussian(), 0.0};
  return v;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

#define EXPECT_DIGEST(expected, actual) \
  EXPECT_EQ(hex(expected), hex(actual))

TEST(PhyBitsGolden, CrossCorrelateDirectRealPattern) {
  const CVec x = gaussian_cvec(777, 101);
  const CVec p = gaussian_real_cvec(31, 102);
  const CVec y = dsp::cross_correlate_direct(x, p);
  ASSERT_EQ(y.size(), 777u - 31u + 1u);
  EXPECT_DIGEST(0x8bb3fdde5b1057d9ULL, fnv64(y));
}

TEST(PhyBitsGolden, CrossCorrelateDirectComplexPattern) {
  const CVec x = gaussian_cvec(777, 103);
  const CVec p = gaussian_cvec(31, 104);
  const CVec y = dsp::cross_correlate_direct(x, p);
  ASSERT_EQ(y.size(), 777u - 31u + 1u);
  EXPECT_DIGEST(0x3cc39c036f65711cULL, fnv64(y));
}

TEST(PhyBitsGolden, BarkerDespread) {
  const CVec chips = gaussian_cvec(11 * 37, 105);
  const CVec y = wifi::despread(chips);
  ASSERT_EQ(y.size(), 37u);
  EXPECT_DIGEST(0x72a8ca7c585de18aULL, fnv64(y));
}

// Random chips make every codeword decision a close call, so the argmax is
// as sensitive to the correlation bits as it can be. The differential phase
// goes through std::arg (libm atan2).
TEST(PhyBitsGolden, CckDemodulate) {
  const CVec chips = gaussian_cvec(wifi::kCckChipsPerSymbol * 64, 106);
  struct Golden {
    wifi::DsssRate rate;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {wifi::DsssRate::k5_5Mbps, 0x86f538965e36c61cULL},
      {wifi::DsssRate::k11Mbps, 0xf03d4ad725657036ULL},
  };
  for (const Golden& g : goldens) {
    wifi::CckDemodulator demod(g.rate);
    EXPECT_DIGEST(g.digest, fnv64(demod.demodulate(chips, 0.25)))
        << "rate " << static_cast<int>(g.rate);
  }
}

TEST(PhyBitsGolden, ZigbeeSoftDespread) {
  const zigbee::OqpskDemodulator demod;
  const CVec soft = gaussian_cvec(32 * 24, 107);
  EXPECT_DIGEST(0xe9110f5288154a0eULL,
                fnv64(demod.soft_chips_to_bytes(soft, 4)));
  EXPECT_DIGEST(0x332465103997d6dcULL,
                fnv64(demod.soft_chips_to_bytes(soft, 8)));
}

// FFT twiddles are std::polar (libm cos/sin), so the spectral paths below
// carry libm on their digest path.
TEST(PhyBitsGolden, OverlapSaveConvolve) {
  const CVec x = gaussian_cvec(3000, 108);
  const CVec h = gaussian_cvec(45, 109);
  const CVec y = dsp::overlap_save_convolve(x, h);
  ASSERT_EQ(y.size(), 3000u + 45u - 1u);
  EXPECT_DIGEST(0x780be797e4f92855ULL, fnv64(y));
}

// design_lowpass is a windowed sinc (libm sin/cos). decimate computes only
// the kept outputs, each summed in convolve_direct's order: factor 3 (25
// taps) matches what filter_same's direct path gave, factor 8 (65 taps)
// what it gives now that the spectral path is no longer taken.
TEST(PhyBitsGolden, Decimate) {
  const CVec x = gaussian_cvec(2048, 110);
  const CVec d3 = dsp::decimate(x, 3);
  const CVec d8 = dsp::decimate(x, 8);
  ASSERT_EQ(d3.size(), (2048u + 2u) / 3u);
  ASSERT_EQ(d8.size(), 2048u / 8u);
  EXPECT_DIGEST(0x3b3da9aca8c754f4ULL, fnv64(d3));
  EXPECT_DIGEST(0xd03dde7e3b49c081ULL, fnv64(d8));
}

// The exact periodic down-shift, libm-free: -1/4 cycle per sample (the
// Wi-Fi leg, swaps and negations) and +1/16 (the ZigBee leg, phasors from
// the in-repo polynomial).
TEST(PhyBitsGolden, PeriodicShift) {
  const CVec x = gaussian_cvec(1000, 113);
  EXPECT_DIGEST(0xc555b993679e5f08ULL,
                fnv64(channel::apply_cfo(x, -35.75e6, 143e6)));
  EXPECT_DIGEST(0xfb1bb12b31bfcc2cULL,
                fnv64(channel::apply_cfo(x, 6e6, 96e6)));
}

// Outcome of the whole 11 Mbps uplink frame (synthesis, periodic shift,
// chip filter, implant impairments, noise, receiver) at 2, 12, 16 and 20 m
// for one scenario seed. The far points decode with bit errors, so the
// decoded bytes depend on the waveform bits.
TEST(PhyBitsGolden, SimulateFrameImplant) {
  const phy::Bytes psdu = {0x49, 0x54, 0x42, 0x00, 0x5a, 0xa5, 0x3c, 0xc3,
                           0x01, 0x80, 0x7e, 0xe7, 0x10, 0x20, 0x40, 0x08};
  std::vector<unsigned char> outcome;
  for (const Real m : {2.0, 12.0, 16.0, 20.0}) {
    core::UplinkScenario sc;
    sc.rate = wifi::DsssRate::k11Mbps;
    sc.impairment_preset = channel::ImpairmentPreset::kImplantTissue;
    sc.tag_rx_distance_m = m;
    sc.seed = 1;
    const auto r = core::InterscatterSystem(sc).simulate_frame(psdu);
    outcome.push_back(r.detected ? 1 : 0);
    outcome.push_back(r.payload_ok ? 1 : 0);
    const auto* rssi = reinterpret_cast<const unsigned char*>(&r.rssi_dbm);
    outcome.insert(outcome.end(), rssi, rssi + sizeof r.rssi_dbm);
    outcome.insert(outcome.end(), r.decoded_psdu.begin(), r.decoded_psdu.end());
  }
  EXPECT_DIGEST(0x0d46c61b9f6477d6ULL, fnv64(outcome));
}

TEST(PhyBitsGolden, FftForwardInverse) {
  struct Golden {
    std::size_t n;
    std::uint64_t forward;
    std::uint64_t inverse;
  };
  const Golden goldens[] = {
      {8, 0xed9a830b31213db7ULL, 0x138f35a8e6527f41ULL},
      {64, 0x7101c6e3fff5728eULL, 0xdc95ad1fa6af2a25ULL},
      {1024, 0xe3c4482b9bf446ecULL, 0x2d20436267b15124ULL},
  };
  for (const Golden& g : goldens) {
    const dsp::FftPlan& plan = dsp::fft_plan(g.n);
    CVec x = gaussian_cvec(g.n, 111 + g.n);
    plan.forward(x);
    EXPECT_DIGEST(g.forward, fnv64(x)) << "n=" << g.n;
    plan.inverse(x);
    EXPECT_DIGEST(g.inverse, fnv64(x)) << "n=" << g.n;
  }
}

// Multipath (exp in the power profile, sqrt for the Rician LOS term), IQ
// imbalance (cos/sin of the skew) and the ADC (sqrt for the RMS) run libm.
// CFO, phase noise and SRO stay off; a 0 dB headroom and a gain-free IQ
// imbalance keep pow on exact values.
TEST(PhyBitsGolden, ImpairmentChainMultipathIqAdc) {
  channel::ImpairmentConfig cfg;
  cfg.sample_rate_hz = 11e6;
  cfg.iq_phase_deg = 3.0;
  cfg.adc_bits = 6;
  cfg.adc_headroom_db = 0.0;
  channel::MultipathConfig mp;
  mp.num_taps = 5;
  mp.delay_spread_s = 200e-9;
  mp.k_factor = 3.0;
  cfg.multipath = mp;
  const channel::ImpairmentChain chain(cfg);
  const CVec x = gaussian_cvec(2048, 112);
  const CVec y = chain.apply(x, 99, 3);
  ASSERT_EQ(y.size(), x.size());
  EXPECT_DIGEST(0x26fda0fd801bd564ULL, fnv64(y));
}

// The whole 802.11b chain: tone synthesis, DBPSK/DQPSK and CCK modulation,
// noise scaling from dB (libm pow) and the receiver.
TEST(PhyBitsGolden, PerVsSnrPoint) {
  core::MonteCarloConfig cfg;
  cfg.psdu_bytes = 16;
  cfg.trials_per_point = 48;
  cfg.seed = 4242;
  cfg.num_threads = 1;
  const std::vector<double> grid{2.0};

  cfg.rate = wifi::DsssRate::k2Mbps;
  const auto p2 = core::per_vs_snr(cfg, grid);
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_EQ(p2[0].per_monte_carlo, 0x1p-4) << std::hexfloat
                                           << p2[0].per_monte_carlo;

  cfg.rate = wifi::DsssRate::k11Mbps;
  cfg.impairments = channel::ward_mobility_preset(11e6);
  const auto p11 = core::per_vs_snr(cfg, std::vector<double>{6.0});
  ASSERT_EQ(p11.size(), 1u);
  EXPECT_EQ(p11[0].per_monte_carlo, 0x1.8p-1) << std::hexfloat
                                            << p11[0].per_monte_carlo;
}

// --- Model constants --------------------------------------------------------
// The paths below read values the paper fixes (IC block powers, 802.11g DCF
// timing, LE 1M GFSK, detector time constants, BLE addresses, AM downlink
// fill), kept as constants in their modules (DESIGN.md "Model constants").
// A changed constant, or a compiler folding one differently, moves a pin.

Bits pseudo_random_bits(std::size_t n, std::uint64_t seed) {
  dsp::Xoshiro256 rng(dsp::splitmix64(seed));
  Bits out(n);
  for (auto& b : out) b = rng.bit() ? 1 : 0;
  return out;
}

// The DCF loop draws backoffs and burst gaps from the seeded stream; only
// the burst gaps go through libm (log).
TEST(PhyBitsGolden, SimulateDcf) {
  std::vector<Real> out;
  for (const bool dsb : {false, true}) {
    mac::InterfererConfig tag;
    tag.packets_per_second = 650.0;
    tag.on_victim_channel = dsb;
    const mac::DcfResult r = mac::simulate_dcf(tag, 0.5, 7);
    out.insert(out.end(), {r.throughput_mbps, r.collision_rate,
                           r.airtime_busy_fraction,
                           static_cast<Real>(r.frames_ok),
                           static_cast<Real>(r.frames_lost)});
  }
  EXPECT_DIGEST(0x18e9685142cf5209ULL, fnv64(out));
}

// Gaussian taps (libm exp) and the phase accumulator (libm cos/sin); the
// discriminator goes through std::arg.
TEST(PhyBitsGolden, GfskModulateDemodulate) {
  const Bits bits = pseudo_random_bits(200, 120);
  const CVec tx = ble::GfskModulator().modulate(bits);
  ASSERT_EQ(tx.size(), 200u * 8u);
  EXPECT_DIGEST(0x0bab858bca6627f9ULL, fnv64(tx));
  CVec rx = tx;
  const CVec noise = gaussian_cvec(rx.size(), 121);
  for (std::size_t i = 0; i < rx.size(); ++i) rx[i] += 0.3 * noise[i];
  const ble::GfskDemodulator demod;
  EXPECT_DIGEST(0x8e6bcf72e25b4b48ULL, fnv64(demod.instantaneous_frequency_hz(rx)));
  EXPECT_DIGEST(0x063f009167a0c794ULL, fnv64(demod.demodulate(rx)));
}

// A -40 dBm GFSK burst between silences, over noise near the -55 dBm
// sensitivity floor. The RC coefficient and the dBm thresholds run libm exp,
// pow and sqrt.
TEST(PhyBitsGolden, EnvelopeDetector) {
  const CVec burst = ble::GfskModulator().modulate(pseudo_random_bits(100, 122));
  CVec signal(1000, Complex{0.0, 0.0});
  signal.insert(signal.end(), burst.begin(), burst.end());
  signal.insert(signal.end(), 1000, Complex{0.0, 0.0});
  const Real amp = std::sqrt(dsp::dbm_to_watts(-40.0));
  const Real noise_amp = std::sqrt(dsp::dbm_to_watts(-56.0));
  const CVec noise = gaussian_cvec(signal.size(), 123);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = signal[i] * amp + noise[i] * noise_amp;
  }
  backscatter::EnvelopeDetectorConfig cfg;
  cfg.sample_rate_hz = 8e6;
  const backscatter::EnvelopeDetector det(cfg);
  EXPECT_DIGEST(0x0e23d6d2f5f15bdbULL, fnv64(det.envelope(signal)));
  EXPECT_EQ(det.first_trigger(signal), 1011u);
  const auto start =
      backscatter::InterscatterTag().detect_payload_start(signal, 8e6);
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(*start, 0x1.d4cp+7) << std::hexfloat << *start;
}

// The AM downlink frame (OFDM IFFT twiddles are libm) and the peak
// detector's envelope and paired decision on it, with noise.
TEST(PhyBitsGolden, AmDownlinkPeakDetector) {
  wifi::AmDownlinkEncoder enc(wifi::AmDownlinkConfig{}, 9);
  const Bits message = {1, 0, 1, 1, 0, 0, 1, 0, 0, 1};
  const wifi::AmFrame frame = enc.encode(message);
  EXPECT_DIGEST(0x21db84875f2cab96ULL, fnv64(frame.tx.baseband));
  EXPECT_DIGEST(0x9397c24ecee02ec6ULL, fnv64(frame.data_field_bits));

  CVec rx = frame.tx.baseband;
  const CVec noise = gaussian_cvec(rx.size(), 124);
  for (std::size_t i = 0; i < rx.size(); ++i) rx[i] += 0.2 * noise[i];
  backscatter::PeakDetectorConfig pdc;
  pdc.sensitivity_dbm = -90.0;
  const backscatter::PeakDetector pd(pdc);
  EXPECT_DIGEST(0x8b5d3180fccb8f78ULL, fnv64(pd.envelope(rx)));
  EXPECT_DIGEST(0x4ad0dd4facf7ff68ULL,
                fnv64(pd.decode_am(rx, 400, wifi::kSymbolSamples,
                                   message.size())));
}

// Hann window (libm cos), FFT twiddles and the dB conversion (libm log10).
TEST(PhyBitsGolden, WelchPsd) {
  const CVec x = gaussian_cvec(5000, 125);
  const dsp::Psd psd = dsp::welch_psd(x, 1e6);
  EXPECT_DIGEST(0x863452f3717f574bULL, fnv64(psd.power_linear));
  EXPECT_DIGEST(0x13bae8e50994c6e8ULL, fnv64(psd.power_db));
  dsp::WelchConfig cfg;
  cfg.segment_size = 256;
  cfg.overlap = 64;
  EXPECT_DIGEST(0xc4809044f9f5e917ULL, fnv64(dsp::welch_psd(x, 1e6, cfg).power_linear));
}

// Integer-only: whitening, CRC-24 and the address fields.
TEST(PhyBitsGolden, BlePacketBits) {
  std::vector<std::uint64_t> tone;
  for (const unsigned ch : {37u, 38u, 39u}) {
    ble::SingleToneSpec spec;
    spec.channel_index = ch;
    spec.sign = ch == 37 ? ble::ToneSign::kLow : ble::ToneSign::kHigh;
    spec.android_api_constraint = ch == 39;
    const ble::SingleToneResult r = ble::make_single_tone_packet(spec);
    tone.insert(tone.end(), {fnv64(r.packet.air_bits), fnv64(r.payload),
                             r.tone_start_bit, r.tone_end_bit});
  }
  EXPECT_DIGEST(0x4fdbdf7d99c8667eULL, fnv64(tone));

  ble::DataPacketConfig data;
  data.channel_index = 5;
  for (std::uint8_t i = 0; i < 40; ++i) {
    data.payload.push_back(static_cast<std::uint8_t>(i * 37 + 11));
  }
  const ble::AdvPacket d = ble::build_data_packet(data);
  EXPECT_DIGEST(0x1b8ca7f9fdc8a34bULL, fnv64(d.air_bits));
  EXPECT_EQ(d.payload_start_bit, 56u);
  EXPECT_EQ(d.payload_end_bit, 56u + 40u * 8u);
}

TEST(PhyBitsGolden, IcPowerModel) {
  const backscatter::IcPowerModel model;
  std::vector<Real> out;
  for (const wifi::DsssRate rate :
       {wifi::DsssRate::k1Mbps, wifi::DsssRate::k2Mbps,
        wifi::DsssRate::k5_5Mbps, wifi::DsssRate::k11Mbps}) {
    for (const Real shift : {35.75e6, -22.75e6, 6e6}) {
      const backscatter::PowerBreakdown p = model.active_power(rate, shift);
      out.insert(out.end(),
                 {p.synthesizer_uw, p.baseband_uw, p.modulator_uw,
                  model.average_power_uw(rate, shift, 0.013),
                  model.energy_per_bit_pj(rate, shift)});
    }
  }
  EXPECT_DIGEST(0x30b796d54319ff14ULL, fnv64(out));
}

// Closed form and Monte Carlo for all four schemes; the RTS scheme's control
// airtime is the advertising packet duration.
TEST(PhyBitsGolden, ReservationOutcome) {
  std::vector<Real> out;
  for (const mac::ReservationScheme scheme :
       {mac::ReservationScheme::kNone, mac::ReservationScheme::kCtsToSelf,
        mac::ReservationScheme::kTagRts, mac::ReservationScheme::kDataAsRts}) {
    mac::ReservationConfig cfg;
    cfg.scheme = scheme;
    cfg.channel_busy_probability = 0.3;
    const mac::ReservationOutcome o = mac::reservation_outcome(cfg);
    const mac::ReservationResult r = mac::evaluate_reservation(cfg, 500, 13);
    out.insert(out.end(),
               {o.data_slots_per_event, o.p_clean, o.p_collision, o.p_silent,
                o.control_overhead_us, r.clean_transmissions_per_event,
                r.collision_fraction, r.control_overhead_us});
  }
  EXPECT_DIGEST(0xa01cc0c76175b4aeULL, fnv64(out));
}

}  // namespace
}  // namespace itb
