// FIR filter design (windowed-sinc) and filtering, plus the Gaussian pulse
// shaping filter that defines BLE's GFSK spectral mask.
//
// Filtering has two execution paths: the naive O(N*K) direct form and an
// FFT-based overlap-save form (dsp/ola.h). convolve()/filter_same() pick
// automatically via a size-crossover heuristic; the _direct/_fft variants
// pin the path (tests use them to cross-validate, benches to compare).
#pragma once

#include <span>

#include "dsp/types.h"

namespace itb::dsp {

/// Designs an odd-length linear-phase low-pass FIR with the windowed-sinc
/// method. `cutoff_norm` is the -6 dB cutoff as a fraction of the sample rate
/// (0 < cutoff_norm < 0.5). Taps are normalized to unity DC gain.
RVec design_lowpass(std::size_t num_taps, Real cutoff_norm);

/// Gaussian filter taps for GFSK pulse shaping.
/// `bt` is the bandwidth-time product (0.5 for BLE), `sps` samples per symbol,
/// `span_symbols` the filter length in symbols. Taps normalized so their sum
/// is 1 (preserves the peak frequency deviation of a long run of same bits).
RVec design_gaussian(Real bt, std::size_t sps, std::size_t span_symbols);

/// Half-sine pulse of one chip length, used by 802.15.4 O-QPSK shaping.
RVec half_sine_pulse(std::size_t sps);

/// Full convolution: output length = x.size() + taps.size() - 1.
/// Auto-dispatches between the direct and overlap-save paths.
CVec convolve(std::span<const Complex> x, std::span<const Real> taps);
RVec convolve(std::span<const Real> x, std::span<const Real> taps);

/// Direct-form convolution (always O(N*K)).
CVec convolve_direct(std::span<const Complex> x, std::span<const Real> taps);
RVec convolve_direct(std::span<const Real> x, std::span<const Real> taps);

/// FFT overlap-save convolution (always spectral).
CVec convolve_fft(std::span<const Complex> x, std::span<const Real> taps);
RVec convolve_fft(std::span<const Real> x, std::span<const Real> taps);

/// True when the auto path would go spectral for these sizes (exposed so
/// benches and tests can probe the crossover).
bool convolve_prefers_fft(std::size_t signal_len, std::size_t kernel_len);

/// "Same"-length filtering: convolution cropped to x.size() samples with the
/// group delay compensated (taps must be odd-length for exact alignment).
CVec filter_same(std::span<const Complex> x, std::span<const Real> taps);
RVec filter_same(std::span<const Real> x, std::span<const Real> taps);

}  // namespace itb::dsp
