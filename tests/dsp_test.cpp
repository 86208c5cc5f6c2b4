// Unit tests for the DSP substrate: FFT, windows, FIR design, mixers,
// spectrum estimation, resampling, correlation, units and RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/fir.h"
#include "dsp/ola.h"
#include "dsp/mixer.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "dsp/spectrum.h"
#include "dsp/types.h"
#include "dsp/units.h"
#include "dsp/window.h"

namespace itb::dsp {
namespace {

TEST(Fft, MatchesReferenceDftOnRandomInput) {
  Xoshiro256 rng(42);
  CVec x(64);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const CVec fast = fft(x);
  const CVec slow = dft(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(fast[i].real(), slow[i].real(), 1e-9) << "bin " << i;
    EXPECT_NEAR(fast[i].imag(), slow[i].imag(), 1e-9) << "bin " << i;
  }
}

TEST(Fft, InverseRoundTrips) {
  Xoshiro256 rng(43);
  CVec x(256);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  const CVec back = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  CVec x(32, Complex{0, 0});
  x[0] = {1, 0};
  const CVec f = fft(x);
  for (const auto& v : f) {
    EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
  }
}

TEST(Fft, ToneLandsInSingleBin) {
  constexpr std::size_t n = 128;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Real ang = kTwoPi * 5.0 * static_cast<Real>(i) / n;
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec f = fft(x);
  EXPECT_NEAR(std::abs(f[5]), static_cast<Real>(n), 1e-9);
  EXPECT_NEAR(std::abs(f[6]), 0.0, 1e-9);
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_EQ(next_power_of_two(48), 64u);
  EXPECT_EQ(next_power_of_two(64), 64u);
  EXPECT_EQ(next_power_of_two(1), 1u);
}

TEST(Fft, FftShiftSwapsHalves) {
  RVec x = {0, 1, 2, 3};
  const RVec s = fftshift(std::span<const Real>(x));
  EXPECT_EQ(s, (RVec{2, 3, 0, 1}));
}

TEST(FftPlan, MatchesReferenceDftAcrossPlanCacheSizes) {
  Xoshiro256 rng(1234);
  for (std::size_t n : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    CVec x(n);
    for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const CVec fast = fft(x);  // goes through fft_plan(n)
    const CVec slow = dft(x);
    ASSERT_EQ(fast.size(), slow.size());
    // dft() itself accumulates O(n) rounding at these sizes; scale the
    // tolerance with sqrt(n) around the 1e-9 base.
    const Real tol = 1e-9 * std::sqrt(static_cast<Real>(n));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(fast[i].real(), slow[i].real(), tol) << "n=" << n << " bin " << i;
      ASSERT_NEAR(fast[i].imag(), slow[i].imag(), tol) << "n=" << n << " bin " << i;
    }
  }
}

TEST(FftPlan, CacheReturnsSameInstance) {
  const FftPlan& a = fft_plan(256);
  const FftPlan& b = fft_plan(256);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 256u);
}

TEST(FftPlan, InverseRoundTripsThroughPlan) {
  Xoshiro256 rng(99);
  CVec x(1024);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  CVec y = x;
  const FftPlan& plan = fft_plan(1024);
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

// A size-1 transform is the identity and touches nothing past its one
// element (the length-2 butterfly pass must not run).
TEST(FftPlan, SizeOneIsIdentityAndStaysInBounds) {
  CVec buf{{0.5, -0.25}, {7.0, 9.0}};
  const FftPlan& plan = fft_plan(1);
  plan.forward(std::span<Complex>(buf).first(1));
  plan.inverse(std::span<Complex>(buf).first(1));
  EXPECT_EQ(buf[0], (Complex{0.5, -0.25}));
  EXPECT_EQ(buf[1], (Complex{7.0, 9.0}));
}

TEST(FftPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(100), std::invalid_argument);
}

TEST(Fft, InplaceThrowsOnNonPowerOfTwoInAllBuildModes) {
  CVec x(100);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
  EXPECT_THROW(ifft_inplace(x), std::invalid_argument);
}

TEST(Fft, OutOfPlaceFallsBackToDftForNonPowerOfTwo) {
  Xoshiro256 rng(77);
  CVec x(100);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const CVec via_fft = fft(x);
  const CVec via_dft = dft(x);
  ASSERT_EQ(via_fft.size(), via_dft.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(via_fft[i].real(), via_dft[i].real(), 1e-12);
    EXPECT_NEAR(via_fft[i].imag(), via_dft[i].imag(), 1e-12);
  }
  const CVec back = ifft(via_fft);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(Window, HannEndpointsAreZero) {
  const RVec w = make_window(WindowKind::kHann, 64);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-2);
}

TEST(Window, AllKindsPositiveInterior) {
  for (auto kind : {WindowKind::kRectangular, WindowKind::kHann,
                    WindowKind::kHamming, WindowKind::kBlackman}) {
    const RVec w = make_window(kind, 33);
    for (std::size_t i = 1; i + 1 < w.size(); ++i) {
      EXPECT_GT(w[i], 0.0) << static_cast<int>(kind) << " at " << i;
    }
  }
}

TEST(Fir, LowpassHasUnityDcGain) {
  const RVec taps = design_lowpass(63, 0.2);
  Real sum = 0.0;
  for (Real t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Fir, LowpassIsSymmetric) {
  const RVec taps = design_lowpass(41, 0.1);
  for (std::size_t i = 0; i < taps.size() / 2; ++i) {
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-12);
  }
}

TEST(Fir, LowpassAttenuatesStopband) {
  const RVec taps = design_lowpass(101, 0.1);
  // Probe response at passband (0.02) and stopband (0.3) frequencies.
  const auto response = [&](Real f) {
    Complex acc{0, 0};
    for (std::size_t i = 0; i < taps.size(); ++i) {
      const Real ang = -kTwoPi * f * static_cast<Real>(i);
      acc += taps[i] * Complex{std::cos(ang), std::sin(ang)};
    }
    return std::abs(acc);
  };
  EXPECT_NEAR(response(0.02), 1.0, 0.05);
  EXPECT_LT(response(0.3), 0.01);
}

TEST(Fir, GaussianTapsNormalized) {
  const RVec taps = design_gaussian(0.5, 8, 3);
  Real sum = 0.0;
  for (Real t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Peak in the middle.
  const std::size_t mid = taps.size() / 2;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_LE(taps[i], taps[mid] + 1e-15);
  }
}

TEST(Fir, HalfSinePulseShape) {
  const RVec p = half_sine_pulse(8);
  EXPECT_NEAR(p[0], 0.0, 1e-12);
  EXPECT_NEAR(p[4], 1.0, 1e-12);
  EXPECT_GT(p[2], 0.5);
}

TEST(Fir, ConvolveLengthAndIdentity) {
  const CVec x = {{1, 0}, {2, 0}, {3, 0}};
  const RVec delta = {1.0};
  const CVec y = convolve(std::span<const Complex>(x), delta);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_NEAR(y[1].real(), 2.0, 1e-12);
}

TEST(Fir, FilterSamePreservesLength) {
  CVec x(100, Complex{1.0, 0.0});
  const RVec taps = design_lowpass(21, 0.2);
  const CVec y = filter_same(std::span<const Complex>(x), taps);
  EXPECT_EQ(y.size(), x.size());
  // Interior should be ~1 (DC gain 1).
  EXPECT_NEAR(y[50].real(), 1.0, 1e-9);
}

TEST(Fir, OverlapSaveMatchesDirectComplex) {
  Xoshiro256 rng(501);
  const std::vector<std::pair<std::size_t, std::size_t>> cases{
      {4096, 101}, {777, 33}, {2048, 129}, {300, 64}};
  for (const auto& [nx, ntaps] : cases) {
    CVec x(nx);
    for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    RVec taps(ntaps);
    for (auto& t : taps) t = rng.uniform(-1, 1);
    const CVec direct = convolve_direct(x, taps);
    const CVec spectral = convolve_fft(x, taps);
    ASSERT_EQ(direct.size(), spectral.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(direct[i].real(), spectral[i].real(), 1e-9)
          << "nx=" << nx << " ntaps=" << ntaps << " i=" << i;
      ASSERT_NEAR(direct[i].imag(), spectral[i].imag(), 1e-9);
    }
  }
}

TEST(Fir, OverlapSaveMatchesDirectReal) {
  Xoshiro256 rng(502);
  RVec x(3000);
  for (auto& v : x) v = rng.uniform(-1, 1);
  RVec taps(75);
  for (auto& t : taps) t = rng.uniform(-1, 1);
  const RVec direct = convolve_direct(x, taps);
  const RVec spectral = convolve_fft(x, taps);
  ASSERT_EQ(direct.size(), spectral.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    ASSERT_NEAR(direct[i], spectral[i], 1e-9) << "i=" << i;
  }
}

TEST(Fir, AutoConvolveAgreesWithDirectOnBothSidesOfCrossover) {
  Xoshiro256 rng(503);
  // One size below the spectral threshold, one above.
  const std::vector<std::pair<std::size_t, std::size_t>> cases{{100, 7},
                                                              {8192, 129}};
  for (const auto& [nx, ntaps] : cases) {
    CVec x(nx);
    for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    RVec taps(ntaps);
    for (auto& t : taps) t = rng.uniform(-1, 1);
    const CVec direct = convolve_direct(x, taps);
    const CVec any = convolve(x, taps);
    ASSERT_EQ(direct.size(), any.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(std::abs(direct[i] - any[i]), 0.0, 1e-9);
    }
  }
}

TEST(Fir, CrossoverHeuristicSanity) {
  EXPECT_FALSE(convolve_prefers_fft(1000, 7));    // tiny kernel: stay direct
  EXPECT_FALSE(convolve_prefers_fft(64, 33));     // tiny signal: stay direct
  EXPECT_TRUE(convolve_prefers_fft(8192, 129));   // long filter on long signal
  EXPECT_TRUE(correlate_prefers_fft(16384, 1024));
  EXPECT_FALSE(correlate_prefers_fft(200, 11));   // Barker-scale: direct
}

TEST(Ola, SingleBlockAndMultiBlockAgree) {
  Xoshiro256 rng(504);
  // Kernel long enough that an 8x block would exceed the single-transform
  // size: exercises the block-size collapse path.
  CVec x(500), h(400);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto& v : h) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const CVec y = overlap_save_convolve(x, h);
  ASSERT_EQ(y.size(), x.size() + h.size() - 1);
  // Reference: direct complex-kernel convolution.
  CVec ref(x.size() + h.size() - 1, Complex{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t k = 0; k < h.size(); ++k) ref[i + k] += x[i] * h[k];
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(std::abs(y[i] - ref[i]), 0.0, 1e-9) << "i=" << i;
  }
}

TEST(Mixer, NcoFrequencyAccuracy) {
  Nco nco(1000.0, 8000.0);
  CVec s(9);
  for (Complex& v : s) v = nco.next();
  // The first sample is at phase 0; each subsequent sample advances 1/8 turn.
  EXPECT_NEAR(s[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(s[1].real(), std::cos(kTwoPi / 8.0), 1e-12);
  EXPECT_NEAR(s[1].imag(), std::sin(kTwoPi / 8.0), 1e-12);
  // After 8 samples the phase has advanced exactly one cycle.
  EXPECT_NEAR(s[8].real(), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(s[7]), 1.0, 1e-12);
}

TEST(Spectrum, TonePowerMeasurement) {
  const Real fs = 1e6;
  const CVec x = tone(50e3, fs, 8192, /*amplitude=*/2.0);
  const Psd psd = welch_psd(x, fs);
  // Total power should be ~|A|^2 = 4.
  Real total = 0.0;
  for (Real p : psd.power_linear) total += p;
  EXPECT_NEAR(total, 4.0, 0.2);
  // Peak is at the tone frequency.
  EXPECT_NEAR(peak_frequency_hz(psd), 50e3, 2.0 * psd.bin_hz);
}

TEST(Spectrum, BandPowerSplitsTones) {
  const Real fs = 1e6;
  CVec x = tone(100e3, fs, 8192);
  const CVec x2 = tone(-200e3, fs, 8192, 0.5);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += x2[i];
  const Psd psd = welch_psd(x, fs);
  const Real p_hi = band_power(psd, 80e3, 120e3);
  const Real p_lo = band_power(psd, -220e3, -180e3);
  EXPECT_NEAR(p_hi, 1.0, 0.1);
  EXPECT_NEAR(p_lo, 0.25, 0.05);
}

TEST(Spectrum, SidebandRejectionOfCleanTone) {
  const Real fs = 1e6;
  const CVec x = tone(100e3, fs, 16384);
  const Psd psd = welch_psd(x, fs);
  const Real rej = sideband_rejection_db(psd, 90e3, 110e3, -110e3, -90e3);
  EXPECT_GT(rej, 40.0);
}

TEST(Spectrum, OccupiedBandwidthOfToneIsNarrow) {
  const Real fs = 1e6;
  const CVec x = tone(0.0, fs, 16384);
  const Psd psd = welch_psd(x, fs);
  EXPECT_LT(occupied_bandwidth_hz(psd, 0.99), 10e3);
}

TEST(Spectrum, NormalizePeakSetsMaxToZero) {
  const Real fs = 1e6;
  Psd psd = welch_psd(tone(0.0, fs, 4096), fs);
  normalize_peak(psd);
  Real mx = -1e9;
  for (Real v : psd.power_db) mx = std::max(mx, v);
  EXPECT_NEAR(mx, 0.0, 1e-12);
}

TEST(Spectrum, WelchRejectsOverlapAtOrPastSegment) {
  // overlap == segment_size would make the hop zero (an endless loop) and a
  // larger overlap would wrap it; both throw in every build mode.
  const CVec x = tone(0.0, 1e6, 4096);
  for (const std::size_t overlap : {std::size_t{256}, std::size_t{300}}) {
    WelchConfig cfg;
    cfg.segment_size = 256;
    cfg.overlap = overlap;
    EXPECT_THROW((void)welch_psd(x, 1e6, cfg), std::invalid_argument)
        << "overlap " << overlap;
  }
  WelchConfig ok;
  ok.segment_size = 256;
  ok.overlap = 255;
  EXPECT_NO_THROW((void)welch_psd(x, 1e6, ok));
}

TEST(Resample, HoldUpsampleRepeatsValues) {
  const CVec x = {{1, 0}, {2, 0}};
  const CVec y = hold_upsample(std::span<const Complex>(x), 3);
  ASSERT_EQ(y.size(), 6u);
  EXPECT_EQ(y[0], y[2]);
  EXPECT_EQ(y[3].real(), 2.0);
}

TEST(Resample, DecimateKeepsTrailingPartialStride) {
  // Regression: decimate used to size its output as n / factor, silently
  // dropping up to factor - 1 trailing samples whenever the input length was
  // not a multiple of the factor. The contract is ceil(n / factor): every
  // index i*factor < n contributes.
  const CVec x10(10, Complex{1.0, 0.0});
  EXPECT_EQ(decimate(x10, 3).size(), 4u);   // indices 0, 3, 6, 9
  EXPECT_EQ(decimate(x10, 4).size(), 3u);   // indices 0, 4, 8
  const CVec x9(9, Complex{1.0, 0.0});
  EXPECT_EQ(decimate(x9, 3).size(), 3u);    // exact division unchanged
  const CVec x1(1, Complex{1.0, 0.0});
  EXPECT_EQ(decimate(x1, 8).size(), 1u);    // a lone sample survives
}

TEST(Resample, DecimateKeepsPassbandTone) {
  const CVec x = tone(50e3, 1e6, 4096);
  const CVec down = decimate(x, 2);
  ASSERT_EQ(down.size(), x.size() / 2);
  // Away from the filter's edge transients the tone keeps unit amplitude.
  for (std::size_t i = 500; i < 1500; ++i) {
    EXPECT_NEAR(std::abs(down[i]), 1.0, 0.05);
  }
}

/// What decimate computed before it went polyphase: the whole anti-alias
/// filter through filter_same, then every factor-th sample.
CVec filter_then_pick(const CVec& x, std::size_t factor) {
  const RVec lp = design_lowpass(8 * factor + 1, 0.45 / static_cast<Real>(factor));
  const CVec filtered = filter_same(x, lp);
  CVec out((x.size() + factor - 1) / factor);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = filtered[i * factor];
  return out;
}

CVec gaussian_cvec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(splitmix64(seed));
  CVec x(n);
  fill_complex_gaussian(x, 1.0, rng);
  return x;
}

void expect_bit_identical(const CVec& want, const CVec& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i].real()),
              std::bit_cast<std::uint64_t>(got[i].real()))
        << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i].imag()),
              std::bit_cast<std::uint64_t>(got[i].imag()))
        << i;
  }
}

TEST(Resample, PolyphaseDecimateMatchesDirectFilterBitForBit) {
  // Wherever filter_same takes the direct path, the polyphase decimator
  // must reproduce it exactly: same taps, same per-output sum order. The
  // lengths cover inputs shorter than the filter, a lone sample, a factor
  // larger than the input, and lengths around the four-output blocks.
  struct Case {
    std::size_t n;
    std::size_t factor;
  };
  const Case cases[] = {{1, 2},    {1, 12},   {5, 12},   {10, 3},
                        {24, 3},   {40, 4},   {97, 12},  {100, 8},
                        {200, 6},  {300, 12}, {900, 4},  {1000, 2},
                        {1200, 3}, {1201, 3}, {2047, 3}};
  for (const Case& c : cases) {
    const std::size_t taps = 8 * c.factor + 1;
    ASSERT_FALSE(convolve_prefers_fft(c.n, taps)) << c.n << "x" << taps;
    const CVec x = gaussian_cvec(c.n, 31 + c.n);
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " factor=" << c.factor);
    expect_bit_identical(filter_then_pick(x, c.factor), decimate(x, c.factor));
  }
}

TEST(Resample, PolyphaseDecimateCloseToSpectralFilterOnZigbeeFrame) {
  // An 86k-sample frame through the 97-tap decimate-by-12 used to run the
  // spectral (overlap-save) filter; the direct sums agree with it to
  // rounding.
  const std::size_t n = 86'000;
  ASSERT_TRUE(convolve_prefers_fft(n, 97));
  const CVec x = gaussian_cvec(n, 86);
  const CVec want = filter_then_pick(x, 12);
  const CVec got = decimate(x, 12);
  ASSERT_EQ(got.size(), want.size());
  Real peak = 0.0;
  Real worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    peak = std::max(peak, std::abs(want[i]));
    worst = std::max(worst, std::abs(got[i] - want[i]));
  }
  EXPECT_LE(worst, 1e-12 * peak);
}

// A zero factor used to be guarded only by assert; with NDEBUG the ceil
// length (n + factor - 1) / factor divided by zero.
TEST(Resample, DecimateZeroFactorThrows) {
  const CVec x(16, Complex{1.0, 0.0});
  EXPECT_THROW(decimate(x, 0), std::invalid_argument);
  EXPECT_THROW(decimate(CVec{}, 0), std::invalid_argument);
}

TEST(Correlate, FindsEmbeddedPattern) {
  Xoshiro256 rng(7);
  CVec noise(500);
  for (auto& v : noise) v = rng.complex_gaussian(0.01);
  CVec pattern(31);
  for (auto& v : pattern) v = {rng.bit() ? 1.0 : -1.0, 0.0};
  // Embed at offset 200.
  for (std::size_t i = 0; i < pattern.size(); ++i) noise[200 + i] += pattern[i];
  const CVec corr = cross_correlate(noise, pattern);
  EXPECT_EQ(peak_lag(corr), 200u);
  EXPECT_GT(normalized_peak(noise, pattern, 200), 0.9);
}

TEST(Correlate, SpectralMatchesDirectLongPattern) {
  Xoshiro256 rng(601);
  CVec x(8192), p(1000);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto& v : p) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const CVec direct = cross_correlate_direct(x, p);
  const CVec spectral = cross_correlate_fft(x, p);
  ASSERT_EQ(direct.size(), spectral.size());
  ASSERT_EQ(direct.size(), x.size() - p.size() + 1);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    // Magnitudes here are O(sqrt(1000)); 1e-9 absolute still holds in double.
    ASSERT_NEAR(direct[i].real(), spectral[i].real(), 1e-9) << "lag " << i;
    ASSERT_NEAR(direct[i].imag(), spectral[i].imag(), 1e-9) << "lag " << i;
  }
}

TEST(Correlate, AutoDispatchFindsSamePeakAsDirect) {
  Xoshiro256 rng(602);
  CVec pattern(256);
  for (auto& v : pattern) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  CVec x(4096);
  for (auto& v : x) v = 0.05 * Complex{rng.gaussian(), rng.gaussian()};
  const std::size_t embed = 1777;
  for (std::size_t k = 0; k < pattern.size(); ++k) x[embed + k] += pattern[k];
  const CVec corr = cross_correlate(x, pattern);
  EXPECT_EQ(peak_lag(corr), embed);
  EXPECT_EQ(peak_lag(cross_correlate_direct(x, pattern)), embed);
}

TEST(Units, DbConversionsRoundTrip) {
  EXPECT_NEAR(ratio_to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(db_to_ratio(3.0), 1.995, 0.01);
  EXPECT_NEAR(watts_to_dbm(0.001), 0.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_amplitude(amplitude_to_db(3.7)), 3.7, 1e-9);
}

TEST(Units, PowerMeasures) {
  const CVec x = {{3, 4}, {3, 4}};
  EXPECT_NEAR(mean_power(std::span<const Complex>(x)), 25.0, 1e-12);
  EXPECT_NEAR(rms(std::span<const Complex>(x)), 5.0, 1e-12);
  EXPECT_NEAR(peak_magnitude(std::span<const Complex>(x)), 5.0, 1e-12);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Real v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, GaussianMomentsReasonable) {
  Xoshiro256 rng(6);
  Real sum = 0.0, sq = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Real v = rng.gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ComplexGaussianVariance) {
  Xoshiro256 rng(8);
  Real acc = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) acc += std::norm(rng.complex_gaussian(2.0));
  EXPECT_NEAR(acc / n, 2.0, 0.1);
}

}  // namespace
}  // namespace itb::dsp
