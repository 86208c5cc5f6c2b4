// Runtime SIMD dispatch for the vectorised FFT stage (see kernels.h).
//
// Two levels exist: the scalar reference and AVX2 (x86-64 only, compiled
// into its own translation unit with -mavx2). The level is chosen once at
// startup from (a) whether this binary has the AVX2 TU, (b) what the CPU
// reports at runtime, and (c) the ITB_DISABLE_SIMD environment variable;
// tests and the end-to-end benchmark can additionally flip dispatch at
// runtime with set_simd_enabled().
//
// The determinism contract (DESIGN.md "Dispatched FFT stage and
// floating-point determinism") requires bit-identical results under either
// level, so which one is active is a pure performance choice and never
// leaks into results, digests, or traces.
#pragma once

namespace itb::dsp::simd {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

/// Level usable on this machine: kAvx2 when the AVX2 TU was compiled in and
/// the CPU supports it, unless the ITB_DISABLE_SIMD environment variable
/// (any non-empty value other than "0") forces kScalar.
Level detected_level();

/// Level the dispatch is currently using. Equals detected_level() unless
/// set_simd_enabled(false) forced scalar.
Level active_level();

/// Runtime override for the parity suite, the forced-scalar CI leg and the
/// benchmark's SIMD A/B: set_simd_enabled(false) routes through the scalar
/// reference; set_simd_enabled(true) restores detected_level(). Thread-safe;
/// not intended to be flipped concurrently with in-flight transforms.
void set_simd_enabled(bool enabled);

}  // namespace itb::dsp::simd
