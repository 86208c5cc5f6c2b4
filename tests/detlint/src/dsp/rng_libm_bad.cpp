// Fixture: libm elementary functions inside the Gaussian sampler
// (src/dsp/rng*, src/dsp/ziggurat*) must be flagged. libm is not correctly
// rounded everywhere, so each of these would tie the stream to one libm.
#include <cmath>

double box_muller(double u1, double u2, double* spare) {
  const double mag = std::sqrt(-2.0 * std::log(u1));  // EXPECT-DETLINT: libm-rng
  *spare = mag * std::sin(6.283185307179586 * u2);  // EXPECT-DETLINT: libm-rng
  return mag * cos(6.283185307179586 * u2);  // EXPECT-DETLINT: libm-rng
}

double wedge_height(double x) {
  return std::exp(-0.5 * x * x);  // EXPECT-DETLINT: libm-rng
}

float tail(float u, float r) {
  return -logf(u) / r + std::pow(r, 2.0f);  // EXPECT-DETLINT: libm-rng
}
