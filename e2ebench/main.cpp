// End-to-end benchmark binary. run.py builds and drives it; see there for
// the workloads and the result contract.
//
//   itb_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>] [--smoke] [--inject <check>] [--probe-setup]
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a human-readable summary on stderr.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

// Every per-layer metric the benchmark defines. A traced run reports all of
// them; a layer the workload never calls reads 0.
constexpr const char* kPerLayer[][2] = {
    {"wifi.tx.share", "share"},
    {"channel.noise.share", "share"},
    {"channel.noise.ns_per_sample", "ns"},
    {"wifi.rx.share", "share"},
    {"wifi.rx.us_per_frame", "us"},
    {"wifi.rx.detect_ratio", "ratio"},
    {"wifi.rx.ok_ratio", "ratio"},
    {"core.unattributed_share", "share"},
    {"ble.tone.us_per_call", "us"},
    {"backscatter.synth.share", "share"},
    {"backscatter.synth.ns_per_sample", "ns"},
    {"channel.shift.share", "share"},
    {"channel.shift.ns_per_sample", "ns"},
    {"dsp.decimate.share", "share"},
    {"dsp.decimate.ns_per_sample", "ns"},
    {"channel.impair.share", "share"},
    {"zigbee.rx.share", "share"},
    {"zigbee.rx.ok_ratio", "ratio"},
    {"sim.faults.s", "s"},
    {"sim.topology.s", "s"},
    {"sim.build.s", "s"},
    {"sim.run.s", "s"},
    {"sim.build.scaling_eff", "ratio"},
    {"sim.run.scaling_eff", "ratio"},
    {"sim.reply_ratio", "ratio"},
    {"mac.attempts_per_poll", "ratio"},
    {"mac.retx_per_msg", "ratio"},
    {"mac.delivery_ratio", "ratio"},
    {"mac.failover_polls", "count"},
    {"mac.fallback_polls", "count"},
    {"obs.capture.overhead", "x"},
    {"trace.overhead", "ratio"},
    {"dsp.simd.speedup", "x"},
    {"proc.sys_share", "share"},
    {"proc.minflt_per_item", "count"},
};

bool parse(int argc, char** argv, e2e::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else if (a == "--inject" && has_value) {
      o.inject = argv[++i];
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--probe-setup") {
      o.probe_setup = true;
    } else {
      std::fprintf(stderr, "e2e: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  const bool known = o.workload == "per_dsss_2m" || o.workload == "uplink_backscatter" ||
                     o.workload == "fleet_1m_faults";
  if (!known) std::fprintf(stderr, "e2e: unknown workload '%s'\n", o.workload.c_str());
  const bool inject_ok = o.inject.empty() || o.inject == "replay_seed" ||
                         o.inject == "thread_digest" || o.inject == "conservation";
  if (!inject_ok) std::fprintf(stderr, "e2e: unknown --inject '%s'\n", o.inject.c_str());
  return known && inject_ok && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t t_main = e2e::wall_ns();
  e2e::Options opt;
  if (!parse(argc, argv, opt)) return 2;
  const bool fleet = opt.workload == "fleet_1m_faults";

  if (opt.probe_setup) {
    if (fleet) return 2;  // the fleet times its set-up in-process
    const double s = e2e::phy_probe_setup(opt, t_main);
    std::printf("{\"setup_s\": %.9g}\n", s);
    return 0;
  }

  e2e::Tally tally;
  e2e::Metrics metrics;
  if (opt.trace) {
    for (const auto& [name, unit] : kPerLayer) metrics[name] = {0.0, unit};
  }
  try {
    if (fleet) {
      e2e::run_fleet(opt, tally, metrics);
    } else {
      e2e::run_phy(opt, tally, metrics);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 1;
  }

  for (const auto& [name, vu] : metrics) {
    if (vu.second.empty()) {
      std::fprintf(stderr, "e2e: metric %s has no unit (not in kPerLayer)\n", name.c_str());
      return 1;
    }
  }

  const std::uint64_t attempted = tally.attempted();
  const std::uint64_t failed = tally.failed();
  std::fprintf(stderr, "e2e: %s seed %" PRIu64 " trace %d: %" PRIu64 " items, %" PRIu64
               " failed, error_rate %.6g\n",
               opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0, attempted, failed,
               e2e::ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  for (const auto& note : tally.notes()) std::fprintf(stderr, "e2e: check failed: %s\n", note.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, vu] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), vu.first,
                vu.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
