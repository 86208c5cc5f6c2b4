// Fixture: the sampler's own libm-free functions, member calls that happen
// to share a libm name, and exact operations (abs, bit casts) are clean.
#include <bit>
#include <cmath>
#include <cstdint>

namespace detail {
double det_exp(double x);
double det_log(double x);
double det_sqrt(double x);
}  // namespace detail

struct Decimal {
  Decimal exp() const { return *this; }
};

double wedge_height(double x) { return detail::det_exp(-0.5 * x * x); }

double tail(double u, double r) { return -detail::det_log(u) / r; }

double scale(double variance) { return detail::det_sqrt(0.5 * variance); }

double magnitude(double x) { return std::abs(x); }

Decimal member(const Decimal& d) { return d.exp(); }

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
