// Cross-correlation primitives used for packet synchronization (802.11b SFD,
// Barker despreading, ZigBee chip matching).
//
// Like dsp/fir.h, correlation has a direct path and an FFT overlap-save
// path (correlation is convolution with the conjugate-reversed pattern);
// cross_correlate() picks automatically, long preamble patterns go spectral.
#pragma once

#include <span>

#include "dsp/types.h"

namespace itb::dsp {

/// Sliding cross-correlation of x against pattern (conjugated): output[i] =
/// sum_k x[i+k] * conj(pattern[k]) for i in [0, x.size()-pattern.size()].
/// Auto-dispatches between the direct and spectral paths.
CVec cross_correlate(std::span<const Complex> x, std::span<const Complex> pattern);

/// Direct O(N*K) sliding correlation.
CVec cross_correlate_direct(std::span<const Complex> x,
                            std::span<const Complex> pattern);

/// FFT overlap-save correlation (always spectral).
CVec cross_correlate_fft(std::span<const Complex> x,
                         std::span<const Complex> pattern);

/// One chip step of a correlator bank: acc[j] += s * conj(p[j]) for every
/// candidate j (acc.size() == p.size()), with exactly the std::complex
/// product s * conj(p). Banks built chip-major (the CCK codeword search,
/// ZigBee soft despreading) call this once per received chip s, so each
/// candidate's correlation still accumulates its chips in ascending order.
void accumulate_scaled_conj(std::span<Complex> acc,
                            std::span<const Complex> p, Complex s);

/// True when the auto path would go spectral for these sizes.
bool correlate_prefers_fft(std::size_t signal_len, std::size_t pattern_len);

/// Index of the maximum-magnitude correlation lag.
std::size_t peak_lag(std::span<const Complex> corr);

/// Normalized correlation magnitude at a lag: |corr| / (||x_window|| *
/// ||pattern||), in [0, 1].
Real normalized_peak(std::span<const Complex> x, std::span<const Complex> pattern,
                     std::size_t lag);

}  // namespace itb::dsp
