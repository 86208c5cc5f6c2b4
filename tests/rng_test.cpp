// Ziggurat Gaussian sampler: distribution tests, direct coverage of the
// wedge and tail branches, the libm-free elementary functions, and the
// golden stream that pins the sampler across platforms and libm versions.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dsp/rng.h"
#include "gtest/gtest.h"

namespace itb::dsp {
namespace {

constexpr Real kR = detail::kZigX[1];

Real phi_cdf(Real x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Distance in units in the last place between two finite doubles of the
/// same sign.
std::int64_t ulp_distance(Real a, Real b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

/// A raw draw with the given layer and signed uniform numerator s, i.e.
/// zig_uniform(draw) == s * 2^-52 for s in [-2^52, 2^52).
std::uint64_t raw_draw(unsigned layer, std::int64_t s) {
  return (static_cast<std::uint64_t>(s) << 11) | layer;
}

/// |binomial count - n p| within `sigmas` standard deviations.
void expect_binomial(std::int64_t count, std::int64_t n, Real p,
                     Real sigmas = 5.0) {
  const Real mean = static_cast<Real>(n) * p;
  const Real sd = std::sqrt(mean * (1.0 - p));
  EXPECT_NEAR(static_cast<Real>(count), mean, sigmas * sd)
      << "n=" << n << " p=" << p;
}

TEST(Ziggurat, GeneratorHoldsOnlyItsState) {
  static_assert(sizeof(Xoshiro256) == 4 * sizeof(std::uint64_t));
}

TEST(Ziggurat, TablesDescribeEqualAreaLayers) {
  const Real v = detail::kZigX[0] * std::exp(-0.5 * kR * kR);
  EXPECT_NEAR(v, 4.92867323399e-3, 1e-15);
  EXPECT_EQ(detail::kZigX[256], 0.0);
  for (int i = 0; i < 256; ++i) {
    EXPECT_GT(detail::kZigX[i], detail::kZigX[i + 1]) << i;
    EXPECT_LE(ulp_distance(detail::kZigR[i],
                           detail::kZigX[i + 1] / detail::kZigX[i]),
              2)
        << i;
  }
  for (int i = 1; i < 256; ++i) {
    const Real f_lo = std::exp(-0.5 * detail::kZigX[i] * detail::kZigX[i]);
    const Real f_hi =
        std::exp(-0.5 * detail::kZigX[i + 1] * detail::kZigX[i + 1]);
    // R and V close the top layer on f(0) = 1 to ~1e-9 relative.
    EXPECT_NEAR(detail::kZigX[i] * (f_hi - f_lo), v, 1e-11) << i;
  }
}

TEST(Ziggurat, DrawBitLayout) {
  EXPECT_EQ(detail::zig_layer(raw_draw(17, 5)), 17u);
  EXPECT_EQ(detail::zig_uniform(raw_draw(0, 0)), 0.0);
  EXPECT_EQ(detail::zig_uniform(raw_draw(255, -(std::int64_t{1} << 52))),
            -1.0);
  EXPECT_EQ(detail::zig_uniform(raw_draw(0, (std::int64_t{1} << 52) - 1)),
            1.0 - 0x1p-52);
  EXPECT_EQ(detail::zig_uniform(raw_draw(3, -3)), -3.0 * 0x1p-52);
}

// The cross-libm contract: the first 32 draws for seed 1, bit for bit.
TEST(Ziggurat, GoldenStreamSeed1) {
  const Real golden[32] = {
      -0x1.41f13ab33ae28p-1, -0x1.5e3d3deb00d14p-1, -0x1.1caa30e1231b3p+1,
      0x1.fe30ff7b85747p-1,  -0x1.f7c707b9da42p-1,  0x1.5be0fe9bd4124p-1,
      0x1.ba98ec4708dacp-4,  0x1.05aee1cf222fbp+0,  -0x1.43e0948098dbap-1,
      -0x1.bd7ba3919713dp-1, -0x1.09b4be40ad60bp-3, -0x1.c0997777749b8p-4,
      -0x1.53bdc15d27bf5p-4, -0x1.69a14a79424a4p+0, -0x1.74cb09983bd16p-1,
      -0x1.0484f6d02ce5p-1,  0x1.ea6735cca905fp-3,  0x1.14c3ca1bf43d1p+1,
      0x1.9b6eec5c2a7dp-4,   0x1.3e3267c6ff651p-3,  0x1.510eece6306a4p+0,
      0x1.926a75f6f4084p+0,  -0x1.b1df6e667ff8p-1,  0x1.67751f27a8329p+0,
      0x1.91013b301e65dp+0,  0x1.e894a5f42a6e1p-2,  0x1.f93177eda0786p-1,
      -0x1.21507c06e6a48p-2, -0x1.2826adf8c8625p+0, -0x1.62550eeef969p-5,
      0x1.46842efb3409fp-5,  -0x1.4e8a4d4068a75p-3,
  };
  Xoshiro256 rng(1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(rng.gaussian(), golden[i]) << i;
}

// The same contract for the slow paths, which run det_exp / det_log: the
// first twelve draws of seed 1 that miss the fast path, resolved in order.
TEST(Ziggurat, GoldenSlowPathSeed1) {
  struct Golden {
    unsigned layer;
    Real value;
  };
  const Golden golden[12] = {
      {0, 0x1.e39c90b32bdb9p+1},   {229, -0x1.0c64c989185ccp+0},
      {6, -0x1.d2b046a164711p-2},  {74, -0x1.ee1073bf8610ap+0},
      {254, 0x1.d1515d1856f2p-3},  {227, 0x1.914fa4add3ef1p-1},
      {255, -0x1.763b1b7ef3a11p+0}, {243, -0x1.28d6dfdd00374p-1},
      {202, -0x1.6ad9cb4d41eadp-1}, {255, -0x1.7d745d2e49d15p-5},
      {136, -0x1.7abc7c2abfb42p+0}, {1, 0x1.c6be7a61da778p+1},
  };
  Xoshiro256 rng(1);
  for (const Golden& g : golden) {
    std::uint64_t b = rng.next_u64();
    while (std::abs(detail::zig_uniform(b)) <
           detail::kZigR[detail::zig_layer(b)])
      b = rng.next_u64();
    EXPECT_EQ(detail::zig_layer(b), g.layer);
    EXPECT_EQ(detail::gaussian_slow(b, rng), g.value) << g.layer;
  }
}

constexpr int kMillion = 1000000;

/// One million draws at a fixed seed, shared by the KS and moment tests.
const std::vector<Real>& million_draws() {
  static const std::vector<Real> draws = [] {
    Xoshiro256 rng(20260417);
    std::vector<Real> v(kMillion);
    for (Real& x : v) x = rng.gaussian();
    return v;
  }();
  return draws;
}

TEST(Ziggurat, KolmogorovSmirnovAgainstPhi) {
  constexpr int kN = kMillion;
  std::vector<Real> x = million_draws();
  std::sort(x.begin(), x.end());
  Real d = 0.0;
  for (int i = 0; i < kN; ++i) {
    const Real f = phi_cdf(x[i]);
    d = std::max({d, (i + 1.0) / kN - f, f - static_cast<Real>(i) / kN});
  }
  // Critical value of the one-sample KS statistic at alpha = 0.001.
  EXPECT_LT(d, 1.949 / std::sqrt(static_cast<Real>(kN)));
}

TEST(Ziggurat, MomentsUpToFourth) {
  Real m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (Real v : million_draws()) {
    const Real v2 = v * v;
    m1 += v;
    m2 += v2;
    m3 += v2 * v;
    m4 += v2 * v2;
  }
  const Real n = kMillion;
  m1 /= n;
  m2 /= n;
  m3 /= n;
  m4 /= n;
  // Five standard errors of each raw moment of N(0, 1): sd of X^k is
  // sqrt(E[X^2k] - E[X^k]^2) = 1, sqrt(2), sqrt(15), sqrt(96).
  const Real se = 5.0 / std::sqrt(n);
  EXPECT_NEAR(m1, 0.0, se);
  EXPECT_NEAR(m2, 1.0, se * std::sqrt(2.0));
  EXPECT_NEAR(m3, 0.0, se * std::sqrt(15.0));
  EXPECT_NEAR(m4, 3.0, se * std::sqrt(96.0));
}

TEST(Ziggurat, TailMassWithinBinomialBounds) {
  constexpr std::int64_t n = 10'000'000;
  Xoshiro256 rng(31337);
  std::int64_t beyond_r = 0, beyond_4 = 0, positive_tail = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const Real v = rng.gaussian();
    if (std::abs(v) > kR) {
      ++beyond_r;
      positive_tail += v > 0.0;
    }
    beyond_4 += std::abs(v) > 4.0;
  }
  expect_binomial(beyond_r, n, 2.0 * phi_cdf(-kR));
  expect_binomial(beyond_4, n, 2.0 * phi_cdf(-4.0));
  expect_binomial(positive_tail, beyond_r, 0.5);
}

TEST(Ziggurat, TailBranchFromRawBits) {
  const std::uint64_t pos = raw_draw(0, (std::int64_t{1} << 52) - 1);
  const std::uint64_t neg = raw_draw(0, -(std::int64_t{1} << 52));
  // Both uniforms at 1: a = 0, accepted at exactly +-R.
  EXPECT_EQ(detail::ziggurat_tail(pos, ~0ULL, ~0ULL), kR);
  EXPECT_EQ(detail::ziggurat_tail(neg, ~0ULL, ~0ULL), -kR);
  // A tiny first uniform makes a large excursion that the second must pay
  // for: rejected when the second uniform is 1.
  EXPECT_FALSE(detail::ziggurat_tail(pos, 0, ~0ULL).has_value());

  // Accepted excursions follow the normal tail beyond R: compare the mean
  // excess E[X - R | X > R] = phi(R) / Q(R) - R and the acceptance rate
  // sqrt(2 pi) R e^{R^2/2} Q(R) of Marsaglia's method.
  Xoshiro256 rng(4242);
  constexpr int trials = 400000;
  int accepted = 0;
  Real sum = 0.0, sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t w1 = rng.next_u64(), w2 = rng.next_u64();
    if (const auto v = detail::ziggurat_tail(pos, w1, w2)) {
      ASSERT_GE(*v, kR);
      ++accepted;
      sum += *v - kR;
      sq += (*v - kR) * (*v - kR);
    }
  }
  const Real q = phi_cdf(-kR);
  const Real pdf = std::exp(-0.5 * kR * kR) / std::sqrt(2.0 * kPi);
  expect_binomial(accepted, trials,
                  std::sqrt(2.0 * kPi) * kR * std::exp(0.5 * kR * kR) * q);
  const Real mean = sum / accepted;
  const Real sd = std::sqrt(sq / accepted - mean * mean);
  EXPECT_NEAR(mean, pdf / q - kR, 5.0 * sd / std::sqrt(Real(accepted)));
}

TEST(Ziggurat, WedgeBranchFromRawBits) {
  // Layer 100's wedge spans |x| in [x_101, x_100): near x_101 the curve is
  // at the top of the layer, near x_100 at the bottom.
  constexpr unsigned kLayer = 100;
  const Real x_hi = detail::kZigX[kLayer], x_lo = detail::kZigX[kLayer + 1];
  const auto s_at = [&](Real x) {
    return static_cast<std::int64_t>(x / x_hi * 0x1p52);
  };
  const std::uint64_t inner = raw_draw(kLayer, s_at(x_lo * 1.0000001));
  const std::uint64_t outer = raw_draw(kLayer, -s_at(x_hi * 0.9999999));
  // Height 0 (the layer's floor) is under the curve anywhere in the layer.
  ASSERT_TRUE(detail::ziggurat_wedge(outer, 0).has_value());
  EXPECT_EQ(*detail::ziggurat_wedge(outer, 0),
            detail::zig_uniform(outer) * x_hi);
  // The top of the layer is above the curve anywhere in the wedge.
  EXPECT_FALSE(detail::ziggurat_wedge(inner, ~0ULL).has_value());
  EXPECT_FALSE(detail::ziggurat_wedge(outer, ~0ULL).has_value());

  // Over uniform points of the wedge, the acceptance rate is the area under
  // the curve over the wedge's rectangle (integral by erf).
  const auto f = [](Real x) { return std::exp(-0.5 * x * x); };
  const Real under = std::sqrt(kPi / 2.0) *
                         (std::erf(x_hi / std::sqrt(2.0)) -
                          std::erf(x_lo / std::sqrt(2.0))) -
                     (x_hi - x_lo) * f(x_hi);
  const Real rect = (x_hi - x_lo) * (f(x_lo) - f(x_hi));
  Xoshiro256 rng(777);
  constexpr int trials = 200000;
  int accepted = 0;
  for (int t = 0; t < trials; ++t) {
    const Real x = x_lo + rng.uniform() * (x_hi - x_lo);
    const std::uint64_t b = raw_draw(kLayer, s_at(x));
    accepted += detail::ziggurat_wedge(b, rng.next_u64()).has_value();
  }
  expect_binomial(accepted, trials, under / rect);
}

TEST(DetMath, ExpWithinTwoUlpOnSamplerRange) {
  Xoshiro256 rng(11);
  std::int64_t worst = 0;
  for (int t = 0; t < 200000; ++t) {
    // Wedge arguments are -x^2/2 for |x| <= R, i.e. [-6.68, 0].
    const Real x = -7.0 * rng.uniform();
    worst = std::max(worst, ulp_distance(detail::det_exp(x), std::exp(x)));
  }
  for (int t = 0; t < 100000; ++t) {
    const Real x = rng.uniform(-708.0, 709.0);
    worst = std::max(worst, ulp_distance(detail::det_exp(x), std::exp(x)));
  }
  EXPECT_LE(worst, 2);
  EXPECT_EQ(detail::det_exp(0.0), 1.0);
  EXPECT_EQ(detail::det_exp(-800.0), 0.0);
  EXPECT_EQ(detail::det_exp(800.0), std::numeric_limits<Real>::infinity());
  EXPECT_TRUE(std::isnan(detail::det_exp(std::nan(""))));
}

TEST(DetMath, LogWithinTwoUlpOnSamplerRange) {
  Xoshiro256 rng(12);
  std::int64_t worst = 0;
  for (int t = 0; t < 200000; ++t) {
    // Tail uniforms are k * 2^-53 for k in [1, 2^53].
    const Real u = static_cast<Real>((rng.next_u64() >> 11) + 1) * 0x1p-53;
    worst = std::max(worst, ulp_distance(detail::det_log(u), std::log(u)));
  }
  for (int e = -53; e <= 0; ++e) {  // small uniforms, one per binade
    const Real u = std::ldexp(1.0 + rng.uniform(), e - 1);
    worst = std::max(worst, ulp_distance(detail::det_log(u), std::log(u)));
  }
  for (int t = 0; t < 100000; ++t) {
    const Real u = std::exp(rng.uniform(-700.0, 700.0));
    worst = std::max(worst, ulp_distance(detail::det_log(u), std::log(u)));
  }
  EXPECT_LE(worst, 2);
  EXPECT_EQ(detail::det_log(1.0), 0.0);
  EXPECT_EQ(detail::det_log(0.0), -std::numeric_limits<Real>::infinity());
  EXPECT_TRUE(std::isnan(detail::det_log(-1.0)));
  EXPECT_LE(ulp_distance(detail::det_log(0x1p-1070), std::log(0x1p-1070)), 2);
}

TEST(DetMath, SqrtWithinOneUlp) {
  Xoshiro256 rng(13);
  std::int64_t worst = 0;
  for (int t = 0; t < 200000; ++t) {
    const Real x = std::exp(rng.uniform(-700.0, 700.0));
    worst = std::max(worst, ulp_distance(detail::det_sqrt(x), std::sqrt(x)));
  }
  EXPECT_LE(worst, 1);
  EXPECT_EQ(detail::det_sqrt(0.0), 0.0);
  EXPECT_EQ(detail::det_sqrt(4.0), 2.0);
  EXPECT_EQ(detail::det_sqrt(0.25), 0.5);
  EXPECT_LE(ulp_distance(detail::det_sqrt(0x1p-1071), std::sqrt(0x1p-1071)),
            1);
  EXPECT_TRUE(std::isnan(detail::det_sqrt(-1.0)));
}

TEST(FillComplexGaussian, MatchesOneSampleForm) {
  Xoshiro256 a(5), b(5);
  std::vector<Complex> block(257);
  fill_complex_gaussian(block, 0.3, a);
  for (const Complex& c : block) {
    const Complex one = b.complex_gaussian(0.3);
    EXPECT_EQ(c.real(), one.real());
    EXPECT_EQ(c.imag(), one.imag());
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(FillComplexGaussian, ScalesUnitDrawsBySqrtOfHalfVariance) {
  Xoshiro256 a(6), b(6);
  std::vector<Complex> block(64);
  fill_complex_gaussian(block, 8.0, a);
  for (const Complex& c : block) {
    EXPECT_EQ(c.real(), 2.0 * b.gaussian());
    EXPECT_EQ(c.imag(), 2.0 * b.gaussian());
  }
}

TEST(FillComplexGaussian, RejectsInvalidVariance) {
  Xoshiro256 rng(7);
  std::vector<Complex> block(4);
  EXPECT_THROW(fill_complex_gaussian(block, -1.0, rng), std::invalid_argument);
  EXPECT_THROW(fill_complex_gaussian(block, std::nan(""), rng),
               std::invalid_argument);
  EXPECT_THROW(fill_complex_gaussian(block,
                                     std::numeric_limits<Real>::infinity(),
                                     rng),
               std::invalid_argument);
  EXPECT_THROW(rng.complex_gaussian(-0.5), std::invalid_argument);
  fill_complex_gaussian(block, 0.0, rng);
  for (const Complex& c : block) EXPECT_EQ(std::abs(c), 0.0);
  fill_complex_gaussian(std::span<Complex>(), 1.0, rng);  // empty is fine
}

}  // namespace
}  // namespace itb::dsp
