// Ablation — closed-form PER model vs waveform-level Monte Carlo.
//
// The range/PER figures (10, 11, 15, 16) use the closed-form DQPSK/CCK
// model for speed; this bench pins it against the real receive chain by
// decoding hundreds of noisy frames per SNR point at 2 and 11 Mbps. After
// each rate's rows it prints where each curve crosses 10% PER and the gap
// between the two (positive: the closed form is optimistic).
#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "core/monte_carlo.h"

namespace {

/// SNR (dB) where a PER curve first falls from >= `target` to below it,
/// interpolated linearly between the two grid points; nullopt when the
/// curve never crosses inside the grid.
std::optional<double> snr_at_per(const std::vector<itb::core::PerPoint>& pts,
                                 bool monte_carlo, double target) {
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    const auto per = [&](std::size_t k) {
      return monte_carlo ? pts[k].per_monte_carlo : pts[k].per_closed_form;
    };
    if (per(i) >= target && per(i + 1) < target) {
      const double f = (per(i) - target) / (per(i) - per(i + 1));
      return pts[i].snr_db + f * (pts[i + 1].snr_db - pts[i].snr_db);
    }
  }
  return std::nullopt;
}

void print_crossing(const char* name, const std::optional<double>& snr) {
  if (snr) {
    std::printf("# 10%% PER, %s: %.2f dB\n", name, *snr);
  } else {
    std::printf("# 10%% PER, %s: outside the grid\n", name);
  }
}

}  // namespace

int main() {
  using namespace itb;

  bench::header("Ablation.per", "closed-form PER vs waveform Monte Carlo",
                "the two waterfalls at 2 and 11 Mbps; each rate's 10%-PER "
                "SNRs and their gap are measured below its rows");

  const std::vector<double> grid = {-4, -2, 0, 2, 4, 6, 8, 10};
  for (const auto rate : {wifi::DsssRate::k2Mbps, wifi::DsssRate::k11Mbps}) {
    core::MonteCarloConfig cfg;
    cfg.rate = rate;
    cfg.psdu_bytes = rate == wifi::DsssRate::k2Mbps ? 31 : 77;
    cfg.trials_per_point = 60;
    const auto points = core::per_vs_snr(cfg, grid);
    std::printf("rate,%s\n", std::string(wifi::rate_name(rate)).c_str());
    std::printf("snr_db,per_monte_carlo,per_closed_form\n");
    for (const auto& p : points) {
      std::printf("%.1f,%.3f,%.3f\n", p.snr_db, p.per_monte_carlo,
                  p.per_closed_form);
    }
    const auto mc = snr_at_per(points, true, 0.1);
    const auto cf = snr_at_per(points, false, 0.1);
    print_crossing("monte carlo", mc);
    print_crossing("closed form", cf);
    if (mc && cf) {
      std::printf("# gap (monte carlo - closed form): %+.2f dB\n", *mc - *cf);
    }
  }
  return 0;
}
