// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every bench and test seeds its own Xoshiro256** instance; no global RNG
// state exists anywhere in the library. The integer stream is the same on
// every platform. The Gaussian stream is too: gaussian() is a ziggurat whose
// tables are checked-in constants and whose slow paths use the in-repo
// det_exp/det_log below, so no draw depends on the platform's libm. Code
// that transforms the draws with libm (CFO rotation, phase noise, ...) is
// outside that promise; DESIGN.md "Gaussian sampler" lists those sites.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>

#include "dsp/types.h"
#include "dsp/ziggurat_tables.h"

namespace itb::dsp {

class Xoshiro256;

namespace detail {

// Libm-free elementary functions, built from IEEE-754 basic operations and
// exact power-of-two scaling only. They live in rng.cpp, which is compiled
// with -ffp-contract=off, so every platform rounds them identically.

/// e^x for results in the normal range (x in [-708, 709]); 0 below it,
/// +inf above it, NaN for NaN. Within 1 ulp of a correctly rounded exp.
Real det_exp(Real x);
/// Natural log for x > 0 (subnormals included); -inf at 0, NaN below 0.
/// Within 1 ulp of a correctly rounded log.
Real det_log(Real x);
/// Square root for finite x >= 0, by Newton's iteration; within 1 ulp.
Real det_sqrt(Real x);

/// Ziggurat layer of a raw 64-bit draw: its low 8 bits.
inline unsigned zig_layer(std::uint64_t b) {
  return static_cast<unsigned>(b & 0xFF);
}

/// Signed uniform of a raw draw: its top 53 bits as a two's-complement
/// integer times 2^-52, exactly, in [-1, 1).
inline Real zig_uniform(std::uint64_t b) {
  return static_cast<Real>(static_cast<std::int64_t>(b) >> 11) * 0x1p-52;
}

/// Wedge test for a draw `b` that missed the fast path in a layer other
/// than 0: `w` supplies the uniform height. Returns the variate on
/// acceptance, nullopt when the caller must start over with a new draw.
std::optional<Real> ziggurat_wedge(std::uint64_t b, std::uint64_t w);

/// One tail trial (Marsaglia's method) for a layer-0 draw `b` that missed
/// the fast path: `w1` and `w2` supply two uniforms in (0, 1]. Returns
/// +-(R + a) with the sign of b on acceptance, nullopt to retry with two
/// new words and the same `b`.
std::optional<Real> ziggurat_tail(std::uint64_t b, std::uint64_t w1,
                                  std::uint64_t w2);

/// Resolves a draw that missed the fast path (about 1.5% of draws),
/// pulling further words from `rng` as the wedge and tail need them.
Real gaussian_slow(std::uint64_t b, Xoshiro256& rng);

}  // namespace detail

/// Fills `out` with circularly-symmetric complex Gaussian samples of total
/// variance `variance` (variance/2 per real dimension; the real part draws
/// first). The square root is taken once per call. Throws
/// std::invalid_argument when `variance` is negative, NaN or infinite.
void fill_complex_gaussian(std::span<Complex> out, Real variance,
                           Xoshiro256& rng);

/// One SplitMix64 step (Steele/Lea/Flood): advances the input by the
/// golden-ratio increment and mixes. The single shared definition behind
/// every counter-based substream seed in the library (core::trial_seed,
/// channel::impairment_substream, Xoshiro256 seeding) — the cross-module
/// determinism contract in DESIGN.md depends on all of them using exactly
/// this function.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
/// Fast, high-quality, and — unlike std::mt19937 — guaranteed to produce the
/// same stream on every platform for a given seed.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      s = splitmix64(x);
      x += 0x9E3779B97F4A7C15ULL;
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  Real uniform() {
    return static_cast<Real>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  Real uniform(Real lo, Real hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) { return next_u64() % n; }

  /// Single random bit.
  bool bit() { return (next_u64() >> 63) != 0; }

  /// Standard normal variate: a 256-layer Marsaglia-Tsang ziggurat. One
  /// next_u64() per draw on the fast path (the low 8 bits pick the layer,
  /// the top 53 bits the signed uniform); accepting costs one compare and
  /// one multiply. The wedge and tail go to detail::gaussian_slow.
  Real gaussian() {
    const std::uint64_t b = next_u64();
    const unsigned i = detail::zig_layer(b);
    const Real u = detail::zig_uniform(b);
    if (std::abs(u) < detail::kZigR[i]) return u * detail::kZigX[i];
    return detail::gaussian_slow(b, *this);
  }

  /// One circularly-symmetric complex Gaussian of total variance `variance`:
  /// the one-sample form of fill_complex_gaussian().
  Complex complex_gaussian(Real variance) {
    Complex c;
    fill_complex_gaussian(std::span<Complex>(&c, 1), variance, *this);
    return c;
  }

 private:
  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace itb::dsp
