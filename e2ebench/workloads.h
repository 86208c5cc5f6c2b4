// Entry points of the three benchmark workloads.
#pragma once

#include <cstdint>

#include "common.h"

namespace e2e {

/// per_dsss_2m and uplink_backscatter: untraced blocks, or (opt.trace) the
/// traced replay with the SIMD A/B.
void run_phy(const Options& opt, Tally& tally, Metrics& m);

/// Wall time from `t_main_ns` (process entry) to the end of the workload's
/// first item, at nominal machine speed: the one-off set-up a fresh process
/// pays.
double phy_probe_setup(const Options& opt, std::int64_t t_main_ns);

/// fleet_1m_faults.
void run_fleet(const Options& opt, Tally& tally, Metrics& m);

}  // namespace e2e
