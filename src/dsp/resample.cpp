#include "dsp/resample.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/fir.h"

namespace itb::dsp {

namespace {

void require_factor(std::size_t factor, const char* what) {
  if (factor == 0) {
    throw std::invalid_argument(std::string(what) + ": factor must be >= 1");
  }
}

/// filter_same(x, taps)[o], summed as convolve_direct sums it: input index
/// ascending, real and imaginary parts apart, starting from +0.
Complex fir_output(std::span<const Complex> x, std::span<const Real> taps,
                   std::size_t o) {
  const std::size_t c = o + taps.size() / 2;  // index in the full convolution
  const std::size_t first = c + 1 > taps.size() ? c + 1 - taps.size() : 0;
  const std::size_t last = std::min(c, x.size() - 1);
  Real re = 0.0;
  Real im = 0.0;
  for (std::size_t j = first; j <= last; ++j) {
    re += x[j].real() * taps[c - j];
    im += x[j].imag() * taps[c - j];
  }
  return {re, im};
}

/// fir_output for four outputs `stride` apart whose support lies wholly in
/// the input: x0 points at the first output's oldest input and `reversed`
/// holds the taps last to first. The four sums run side by side so their
/// add chains overlap; each keeps fir_output's order.
void fir_outputs4(const Complex* x0, std::size_t stride,
                  std::span<const Real> reversed, Complex* out) {
  Real re[4] = {0.0, 0.0, 0.0, 0.0};
  Real im[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t t = 0; t < reversed.size(); ++t) {
    const Real h = reversed[t];
    for (std::size_t u = 0; u < 4; ++u) {
      re[u] += x0[u * stride + t].real() * h;
      im[u] += x0[u * stride + t].imag() * h;
    }
  }
  for (std::size_t u = 0; u < 4; ++u) out[u] = {re[u], im[u]};
}

}  // namespace

CVec upsample(std::span<const Complex> x, std::size_t factor) {
  require_factor(factor, "upsample");
  if (factor == 1) return CVec(x.begin(), x.end());
  CVec stuffed(x.size() * factor, Complex{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) {
    stuffed[i * factor] = x[i] * static_cast<Real>(factor);
  }
  const std::size_t taps = 8 * factor + 1;
  const RVec lp = design_lowpass(taps, 0.45 / static_cast<Real>(factor));
  return filter_same(stuffed, lp);
}

CVec decimate(std::span<const Complex> x, std::size_t factor) {
  require_factor(factor, "decimate");
  if (factor == 1) return CVec(x.begin(), x.end());
  const std::size_t taps = 8 * factor + 1;
  const RVec lp = design_lowpass(taps, 0.45 / static_cast<Real>(factor));
  const RVec reversed(lp.rbegin(), lp.rend());
  const std::size_t delay = taps / 2;
  // Ceil semantics: keep every sample at index i*factor < x.size(), so the
  // output has ceil(n / factor) samples; frame tails at non-divisible
  // lengths are never dropped. Polyphase: only the kept outputs of the
  // anti-alias filter are computed, each in convolve_direct's sum order.
  CVec out((x.size() + factor - 1) / factor);
  std::size_t i = 0;
  // Outputs whose support starts before x[0].
  for (; i < out.size() && i * factor < delay; ++i) {
    out[i] = fir_output(x, lp, i * factor);
  }
  // Four at a time while the fourth one's support ends inside x.
  for (; i + 4 <= out.size() && (i + 3) * factor + delay < x.size(); i += 4) {
    fir_outputs4(&x[i * factor - delay], factor, reversed, &out[i]);
  }
  for (; i < out.size(); ++i) out[i] = fir_output(x, lp, i * factor);
  return out;
}

CVec resample_linear(std::span<const Complex> x, Real in_rate_hz, Real out_rate_hz) {
  assert(in_rate_hz > 0 && out_rate_hz > 0);
  if (x.empty()) return {};
  const Real ratio = in_rate_hz / out_rate_hz;
  const auto out_len =
      static_cast<std::size_t>(std::floor(static_cast<Real>(x.size() - 1) / ratio)) + 1;
  CVec out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) {
    const Real pos = static_cast<Real>(i) * ratio;
    // out_len is derived from (x.size()-1)/ratio with two roundings, so for
    // the last i the product i*ratio can land past x.size()-1 and idx would
    // index one past the end. Clamp to the final sample (frac then blends a
    // sample with itself, which is exact).
    const auto idx =
        std::min(static_cast<std::size_t>(pos), x.size() - 1);
    const Real frac = pos - static_cast<Real>(idx);
    const Complex a = x[idx];
    const Complex b = idx + 1 < x.size() ? x[idx + 1] : x[idx];
    out[i] = a + (b - a) * frac;
  }
  return out;
}

CVec hold_upsample(std::span<const Complex> x, std::size_t factor) {
  CVec out(x.size() * factor);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t k = 0; k < factor; ++k) out[i * factor + k] = x[i];
  }
  return out;
}

RVec hold_upsample(std::span<const Real> x, std::size_t factor) {
  RVec out(x.size() * factor);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t k = 0; k < factor; ++k) out[i * factor + k] = x[i];
  }
  return out;
}

}  // namespace itb::dsp
