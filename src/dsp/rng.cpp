// Slow paths of the ziggurat Gaussian sampler and the libm-free elementary
// functions they use.
//
// This translation unit is compiled with -ffp-contract=off (see the root
// CMakeLists.txt): the polynomial and range-reduction steps below are
// written as separate multiplies and adds, and an FMA-fused build would
// round them differently from one without FMA. Keeping them unfused, and
// using no libm calls, makes every value here identical on every IEEE-754
// platform. See DESIGN.md "Gaussian sampler".
#include "dsp/rng.h"

#include <bit>
#include <limits>
#include <stdexcept>

namespace itb::dsp {
namespace detail {
namespace {

constexpr std::uint64_t kExpMask = 0x7FF0000000000000ULL;
constexpr std::uint64_t kMantMask = 0x000FFFFFFFFFFFFFULL;
constexpr int kExpBias = 1023;

// ln 2 split so that k * kLn2Hi is exact for |k| < 2^20 (kLn2Hi has 32
// significant bits); kLn2Lo carries the remaining bits.
constexpr Real kLn2Hi = 0x1.62e42feep-1;
constexpr Real kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr Real kLog2e = 0x1.71547652b82fep+0;
constexpr Real kSqrt2 = 0x1.6a09e667f3bcdp+0;

/// 2^k for k in the normal exponent range, built from its bit pattern.
Real pow2(int k) {
  return std::bit_cast<Real>(static_cast<std::uint64_t>(k + kExpBias) << 52);
}

/// Splits a positive normal x into m * 2^e with m in [1, 2).
Real split_exponent(Real x, int* e) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  *e = static_cast<int>((bits & kExpMask) >> 52) - kExpBias;
  return std::bit_cast<Real>((bits & kMantMask) |
                             (static_cast<std::uint64_t>(kExpBias) << 52));
}

/// Uniform in [0, 1) from the top 53 bits of a word.
Real unit_open_top(std::uint64_t w) {
  return static_cast<Real>(w >> 11) * 0x1p-53;
}

/// Uniform in (0, 1] from the top 53 bits of a word (safe to take a log).
Real unit_open_bottom(std::uint64_t w) {
  return static_cast<Real>((w >> 11) + 1) * 0x1p-53;
}

/// The unnormalised density f(x) = exp(-x^2/2) the tables describe.
Real density(Real x) { return det_exp(-0.5 * x * x); }

}  // namespace

Real det_exp(Real x) {
  if (x != x) return x;
  if (x > 709.0) return std::numeric_limits<Real>::infinity();
  if (x < -708.0) return 0.0;
  // x = k ln2 + r with |r| <= ln2/2 (Cody-Waite reduction; k is x/ln2
  // rounded half away from zero by truncation).
  const Real kf = x * kLog2e;
  const int k = static_cast<int>(kf < 0.0 ? kf - 0.5 : kf + 0.5);
  const Real r = (x - k * kLn2Hi) - k * kLn2Lo;
  // Taylor series to r^13, in Horner form: the first omitted term is below
  // 2^-57 relative for |r| <= 0.35.
  Real p = 1.0 / 6227020800.0;  // 1/13!
  p = p * r + 1.0 / 479001600.0;
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r * r + r;  // e^r - 1, kept apart so the 1 is added last
  return (1.0 + p) * pow2(k);
}

Real det_log(Real x) {
  if (x != x || x < 0.0) return std::numeric_limits<Real>::quiet_NaN();
  if (x == 0.0) return -std::numeric_limits<Real>::infinity();
  if (x == std::numeric_limits<Real>::infinity()) return x;
  int k_adjust = 0;
  if (x < std::numeric_limits<Real>::min()) {  // subnormal: scale up exactly
    x *= 0x1p54;
    k_adjust = -54;
  }
  int k = 0;
  Real m = split_exponent(x, &k);
  k += k_adjust;
  if (m > kSqrt2) {
    m *= 0.5;
    ++k;
  }
  // log(1 + f) = 2 atanh(s) with s = f / (2 + f), |s| <= 0.1716, written as
  // f - f^2/2 + s (f^2/2 + R) where R = sum_{n=1..10} 2 s^(2n) / (2n + 1);
  // the first omitted term is below 2^-55 relative.
  const Real f = m - 1.0;  // exact
  const Real s = f / (2.0 + f);
  const Real z = s * s;
  Real q = 2.0 / 21.0;
  q = q * z + 2.0 / 19.0;
  q = q * z + 2.0 / 17.0;
  q = q * z + 2.0 / 15.0;
  q = q * z + 2.0 / 13.0;
  q = q * z + 2.0 / 11.0;
  q = q * z + 2.0 / 9.0;
  q = q * z + 2.0 / 7.0;
  q = q * z + 2.0 / 5.0;
  q = q * z + 2.0 / 3.0;
  const Real big_r = q * z;
  const Real hfsq = 0.5 * f * f;
  const Real kd = static_cast<Real>(k);
  return kd * kLn2Hi - ((hfsq - (s * (hfsq + big_r) + kd * kLn2Lo)) - f);
}

Real det_sqrt(Real x) {
  if (x == 0.0 || x != x || x == std::numeric_limits<Real>::infinity())
    return x;
  if (x < 0.0) return std::numeric_limits<Real>::quiet_NaN();
  int k_adjust = 0;
  if (x < std::numeric_limits<Real>::min()) {  // subnormal: scale up exactly
    x *= 0x1p54;
    k_adjust = -54;
  }
  int e = 0;
  Real m = split_exponent(x, &e);
  e += k_adjust;
  if (e % 2 != 0) {  // make the exponent even: m in [1, 4)
    m *= 2.0;
    --e;
  }
  // Newton's iteration from above converges quadratically; from the
  // start (m + 1) / 2 six steps reach the last bit for m in [1, 4).
  Real y = 0.5 * (m + 1.0);
  for (int it = 0; it < 6; ++it) y = 0.5 * (y + m / y);
  return y * pow2(e / 2);
}

std::optional<Real> ziggurat_wedge(std::uint64_t b, std::uint64_t w) {
  const unsigned i = zig_layer(b);
  const Real x = zig_uniform(b) * kZigX[i];
  // Layer i spans heights [f(x_i), f(x_{i+1})]; accept when a uniform
  // height falls under the curve.
  const Real f_lo = density(kZigX[i]);
  const Real f_hi = density(kZigX[i + 1]);
  const Real y = f_lo + unit_open_top(w) * (f_hi - f_lo);
  if (y < density(x)) return x;
  return std::nullopt;
}

std::optional<Real> ziggurat_tail(std::uint64_t b, std::uint64_t w1,
                                  std::uint64_t w2) {
  constexpr Real kR = kZigX[1];
  constexpr Real kInvR = 1.0 / kR;
  const Real a = -det_log(unit_open_bottom(w1)) * kInvR;
  const Real c = -det_log(unit_open_bottom(w2));
  if (c + c < a * a) return std::nullopt;
  return zig_uniform(b) < 0.0 ? -(kR + a) : kR + a;
}

Real gaussian_slow(std::uint64_t b, Xoshiro256& rng) {
  if (zig_layer(b) == 0) {
    for (;;) {
      const std::uint64_t w1 = rng.next_u64();
      const std::uint64_t w2 = rng.next_u64();
      if (const auto v = ziggurat_tail(b, w1, w2)) return *v;
    }
  }
  if (const auto v = ziggurat_wedge(b, rng.next_u64())) return *v;
  return rng.gaussian();  // rejected: start over with a fresh draw
}

}  // namespace detail

void fill_complex_gaussian(std::span<Complex> out, Real variance,
                           Xoshiro256& rng) {
  if (!(variance >= 0.0) ||
      variance == std::numeric_limits<Real>::infinity()) {
    throw std::invalid_argument(
        "fill_complex_gaussian: variance must be finite and >= 0");
  }
  const Real s = detail::det_sqrt(0.5 * variance);
  for (Complex& c : out) {
    const Real re = rng.gaussian();
    const Real im = rng.gaussian();
    c = {s * re, s * im};
  }
}

}  // namespace itb::dsp
