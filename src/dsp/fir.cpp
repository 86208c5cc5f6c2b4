#include "dsp/fir.h"

#include <cassert>
#include <cmath>

#include "dsp/ola.h"
#include "dsp/window.h"

namespace itb::dsp {

RVec design_lowpass(std::size_t num_taps, Real cutoff_norm) {
  assert(num_taps % 2 == 1 && "lowpass design requires odd tap count");
  assert(cutoff_norm > 0.0 && cutoff_norm < 0.5);
  const RVec w = make_window(WindowKind::kHamming, num_taps);
  RVec taps(num_taps);
  const auto mid = static_cast<std::ptrdiff_t>(num_taps / 2);
  Real sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const auto k = static_cast<std::ptrdiff_t>(i) - mid;
    Real v;
    if (k == 0) {
      v = 2.0 * cutoff_norm;
    } else {
      const Real x = kTwoPi * cutoff_norm * static_cast<Real>(k);
      v = std::sin(x) / (kPi * static_cast<Real>(k));
    }
    taps[i] = v * w[i];
    sum += taps[i];
  }
  for (Real& t : taps) t /= sum;
  return taps;
}

RVec design_gaussian(Real bt, std::size_t sps, std::size_t span_symbols) {
  assert(bt > 0.0 && sps > 0 && span_symbols > 0);
  const std::size_t n = sps * span_symbols + 1;
  RVec taps(n);
  // Standard GFSK Gaussian impulse response:
  //   h(t) = sqrt(2*pi/ln2) * B * exp(-2 * pi^2 * B^2 * t^2 / ln2)
  // with B = bt * symbol_rate; time normalized to symbols below.
  const Real ln2 = std::log(2.0);
  const auto mid = static_cast<std::ptrdiff_t>(n / 2);
  Real sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real t =
        static_cast<Real>(static_cast<std::ptrdiff_t>(i) - mid) / static_cast<Real>(sps);
    const Real a = kTwoPi * bt / std::sqrt(ln2 / 2.0);
    taps[i] = std::exp(-0.5 * a * a * t * t);
    sum += taps[i];
  }
  for (Real& t : taps) t /= sum;
  return taps;
}

RVec half_sine_pulse(std::size_t sps) {
  RVec p(sps);
  for (std::size_t i = 0; i < sps; ++i) {
    p[i] = std::sin(kPi * static_cast<Real>(i) / static_cast<Real>(sps));
  }
  return p;
}

namespace {

template <typename T>
std::vector<T> convolve_direct_impl(std::span<const T> x, std::span<const Real> taps) {
  if (x.empty() || taps.empty()) return {};
  std::vector<T> y(x.size() + taps.size() - 1, T{});
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t k = 0; k < taps.size(); ++k) {
      y[i + k] += x[i] * taps[k];
    }
  }
  return y;
}

CVec to_complex(std::span<const Real> x) {
  CVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = Complex{x[i], 0.0};
  return out;
}

template <typename T>
std::vector<T> filter_same_impl(std::span<const T> x, std::span<const Real> taps) {
  std::vector<T> full = convolve(x, taps);
  const std::size_t delay = taps.size() / 2;
  std::vector<T> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = full[i + delay];
  return y;
}

}  // namespace

bool convolve_prefers_fft(std::size_t signal_len, std::size_t kernel_len) {
  // Direct cost ~ signal_len * kernel_len multiply-adds; the spectral path
  // costs ~2 log2(block) complex multiplies per output regardless of kernel
  // length. Short kernels never win spectrally (FFT constant factor), and
  // tiny signals don't amortize the kernel-spectrum FFT.
  return kernel_len >= 32 && signal_len >= kernel_len &&
         signal_len * kernel_len >= 32768;
}

CVec convolve_direct(std::span<const Complex> x, std::span<const Real> taps) {
  if (x.empty() || taps.empty()) return {};
  // Scatter form y[i + k] += x[i] * taps[k] on re and im separately; the
  // per-output contribution order (i ascending) is identical to the loop in
  // convolve_direct_impl.
  CVec y(x.size() + taps.size() - 1, Complex{});
  Real* const yd = reinterpret_cast<Real*>(y.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Real xr = x[i].real();
    const Real xi = x[i].imag();
    for (std::size_t k = 0; k < taps.size(); ++k) {
      yd[2 * (i + k)] += xr * taps[k];
      yd[2 * (i + k) + 1] += xi * taps[k];
    }
  }
  return y;
}

RVec convolve_direct(std::span<const Real> x, std::span<const Real> taps) {
  return convolve_direct_impl(x, taps);
}

CVec convolve_fft(std::span<const Complex> x, std::span<const Real> taps) {
  if (x.empty() || taps.empty()) return {};
  return overlap_save_convolve(x, to_complex(taps));
}

RVec convolve_fft(std::span<const Real> x, std::span<const Real> taps) {
  if (x.empty() || taps.empty()) return {};
  const CVec y = overlap_save_convolve(to_complex(x), to_complex(taps));
  RVec out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = y[i].real();
  return out;
}

CVec convolve(std::span<const Complex> x, std::span<const Real> taps) {
  return convolve_prefers_fft(x.size(), taps.size()) ? convolve_fft(x, taps)
                                                     : convolve_direct(x, taps);
}

RVec convolve(std::span<const Real> x, std::span<const Real> taps) {
  return convolve_prefers_fft(x.size(), taps.size()) ? convolve_fft(x, taps)
                                                     : convolve_direct(x, taps);
}

CVec filter_same(std::span<const Complex> x, std::span<const Real> taps) {
  return filter_same_impl(x, taps);
}

RVec filter_same(std::span<const Real> x, std::span<const Real> taps) {
  return filter_same_impl(x, taps);
}

}  // namespace itb::dsp
