// Fixture: libm-rng is scoped to the Gaussian sampler's files. The rest of
// src/dsp/ may call libm (its determinism caveats are listed in DESIGN.md).
#include <cmath>

double rotate_phase(double phase) { return std::cos(phase) + std::sin(phase); }

double db_to_ratio(double db) { return std::pow(10.0, db / 10.0); }
