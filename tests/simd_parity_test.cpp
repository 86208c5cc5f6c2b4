// SIMD-vs-scalar parity for the one dispatched PHY kernel, the FFT's
// radix-2 stage (dsp/simd). The AVX2 twin is driven over several widths,
// misaligned spans and both directions, and compared BIT-FOR-BIT (memcmp)
// against the scalar reference — the determinism contract is exact
// equality, not tolerance. Whole transforms are compared with SIMD toggled
// at runtime, and the Monte-Carlo digest check pins bit-identical sweeps
// across 1/2/8 threads with and without SIMD.
//
// On hosts without a compiled/detected AVX2 backend the dispatched stage is
// the scalar reference and these tests degenerate to self-comparison —
// still useful as a harness smoke test, and the CI forced-scalar leg
// (ITB_DISABLE_SIMD=1) exercises that path deliberately.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "channel/impairments.h"
#include "core/monte_carlo.h"
#include "dsp/fft_plan.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/simd/kernels.h"

namespace itb::dsp::simd {
namespace {

/// Scoped runtime SIMD toggle; restores the default (enabled) on exit.
class SimdGuard {
 public:
  explicit SimdGuard(bool enabled) { set_simd_enabled(enabled); }
  ~SimdGuard() { set_simd_enabled(true); }
};

CVec random_cvec(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(splitmix64(seed));
  CVec v(n);
  for (auto& x : v) x = rng.complex_gaussian(1.0);
  return v;
}

::testing::AssertionResult BitsEqual(std::span<const Complex> a,
                                     std::span<const Complex> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0)
    return ::testing::AssertionSuccess();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(Complex)) != 0)
      return ::testing::AssertionFailure()
             << "first divergence at [" << i << "]: (" << a[i].real() << ","
             << a[i].imag() << ") vs (" << b[i].real() << "," << b[i].imag()
             << ")";
  }
  return ::testing::AssertionFailure() << "memcmp mismatch";
}

TEST(SimdParity, FftStages) {
  // Radix-2 butterfly stage over three blocks: half is always a multiple
  // of 4 in the plan (stages len >= 8); exercise several widths and both
  // directions. One leading element makes .data()+1 16-byte (not 32-byte)
  // aligned, so the AVX2 twin must go through unaligned loads.
  for (std::size_t half : {std::size_t{4}, std::size_t{8}, std::size_t{16},
                           std::size_t{32}}) {
    const std::size_t n = 3 * 2 * half;
    const CVec tw = random_cvec(half + 1, 14000 + half);
    for (bool inverse : {false, true}) {
      CVec a = random_cvec(n + 1, 14100 + half);
      CVec b = a;
      fft_radix2_stage()(a.data() + 1, n, tw.data() + 1, half, inverse);
      fft_radix2_stage_scalar(b.data() + 1, n, tw.data() + 1, half, inverse);
      EXPECT_TRUE(BitsEqual(a, b)) << "half=" << half;
    }
  }
}

TEST(SimdParity, WholeFftTransformMatchesScalarDispatch) {
  for (std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{1024}}) {
    const FftPlan& plan = fft_plan(n);
    const CVec x = random_cvec(n, 15000 + n);
    CVec with = x;
    CVec without = x;
    plan.forward(with);
    {
      SimdGuard off(false);
      plan.forward(without);
    }
    EXPECT_TRUE(BitsEqual(with, without)) << "forward n=" << n;
    plan.inverse(with);
    {
      SimdGuard off(false);
      plan.inverse(without);
    }
    EXPECT_TRUE(BitsEqual(with, without)) << "inverse n=" << n;
  }
}

// --- Monte-Carlo digest: threads x SIMD ---------------------------------

TEST(SimdParity, MonteCarloSweepBitIdenticalAcrossThreadsAndDispatch) {
  itb::core::MonteCarloConfig cfg;
  cfg.trials_per_point = 6;
  cfg.psdu_bytes = 16;
  cfg.seed = 7171;
  cfg.impairments = itb::channel::ward_mobility_preset(11e6);
  const std::vector<double> grid{0.0, 6.0};

  std::vector<std::vector<itb::core::PerPoint>> runs;
  for (bool simd_on : {true, false}) {
    SimdGuard guard(simd_on);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      cfg.num_threads = threads;
      runs.push_back(itb::core::per_vs_snr(cfg, grid));
    }
  }
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size()) << "run " << r;
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(std::memcmp(&runs[r][i].per_monte_carlo,
                            &runs[0][i].per_monte_carlo, sizeof(double)),
                0)
          << "run " << r << " point " << i;
      EXPECT_EQ(runs[r][i].trials, runs[0][i].trials);
    }
  }
}

// --- dispatch plumbing ---------------------------------------------------

TEST(SimdDispatch, RuntimeToggleSelectsScalarStage) {
  {
    SimdGuard off(false);
    EXPECT_EQ(active_level(), Level::kScalar);
    EXPECT_EQ(fft_radix2_stage(), &fft_radix2_stage_scalar);
  }
  // Restored default: active equals detected, and the AVX2 level is only
  // ever detected when its twin was compiled in.
  EXPECT_EQ(active_level(), detected_level());
  if (detected_level() == Level::kAvx2) {
    EXPECT_NE(fft_radix2_stage_avx2(), nullptr);
    EXPECT_EQ(fft_radix2_stage(), fft_radix2_stage_avx2());
  }
}

}  // namespace
}  // namespace itb::dsp::simd
