#include "wifi/barker.h"

#include <cassert>

namespace itb::wifi {

void spread_symbol(Complex symbol, CVec& out) {
  for (int c : kBarker) out.push_back(symbol * static_cast<Real>(c));
}

CVec spread(std::span<const Complex> symbols) {
  CVec out;
  out.reserve(symbols.size() * kBarker.size());
  for (const Complex& s : symbols) spread_symbol(s, out);
  return out;
}

CVec despread(std::span<const Complex> chips) {
  assert(chips.size() % kBarker.size() == 0);
  static const std::array<Real, 11> kBarkerReal = [] {
    std::array<Real, 11> b{};
    for (std::size_t k = 0; k < kBarker.size(); ++k) {
      b[k] = static_cast<Real>(kBarker[k]);
    }
    return b;
  }();
  const std::size_t n = chips.size() / kBarker.size();
  CVec out(n);
  // Each symbol's chips accumulate k ascending, then one divide per rail.
  const Real divisor = static_cast<Real>(kBarker.size());
  for (std::size_t s = 0; s < n; ++s) {
    const Complex* const block = chips.data() + s * kBarker.size();
    Real ar = 0.0;
    Real ai = 0.0;
    for (std::size_t k = 0; k < kBarker.size(); ++k) {
      ar += block[k].real() * kBarkerReal[k];
      ai += block[k].imag() * kBarkerReal[k];
    }
    out[s] = Complex(ar / divisor, ai / divisor);
  }
  return out;
}

}  // namespace itb::wifi
