// The one runtime-dispatched PHY kernel: the FFT's radix-2 butterfly stage.
//
// The kernel is defined by a *numeric specification*: a fixed sequence of
// IEEE-754 double operations per output element. The scalar reference
// (kernels.cpp) implements the specification with a plain loop; the AVX2
// twin (kernels_avx2.cpp) implements the same specification with vector
// instructions whose per-element semantics are identical. No FMA and no
// reassociation: the AVX2 TU is compiled with the bare ISA flag (-mavx2,
// never -mfma) and uses explicit mul/add intrinsics, so every multiply and
// add rounds exactly like its scalar counterpart. Results are therefore
// bit-identical under either dispatch level.
//
// It is the only kernel with a vector twin because it is the only one whose
// vector path moved an end-to-end workload (DESIGN.md "Dispatched FFT stage
// and floating-point determinism"). Raw intrinsics are only permitted under
// src/dsp/simd/ (enforced by detlint's simd-intrinsics rule).
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace itb::dsp::simd {

/// One radix-2 stage of length len = 2 * half >= 8 over all n elements of
/// `a` (n a multiple of len; half a multiple of 4). For each block start
/// i = 0, len, 2 len, ... and k in [0, half), ascending: w = tw[k]
/// (conjugated when inverse); l = a[i+k]; h = a[i+k+half];
/// v = (h.re*w.re - h.im*w.im, h.re*w.im + h.im*w.re);
/// a[i+k+half] = l - v; a[i+k] = l + v.
using Radix2Stage = void (*)(Complex* a, std::size_t n, const Complex* tw,
                             std::size_t half, bool inverse);

/// The scalar reference (the specification).
void fft_radix2_stage_scalar(Complex* a, std::size_t n, const Complex* tw,
                             std::size_t half, bool inverse);

/// The AVX2 twin; nullptr when its TU was compiled without AVX2.
Radix2Stage fft_radix2_stage_avx2();

/// The stage for the current dispatch level (see dispatch.h).
Radix2Stage fft_radix2_stage();

}  // namespace itb::dsp::simd
