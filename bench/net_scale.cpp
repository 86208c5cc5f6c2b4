// Network-simulator scale benchmark: how many tags (and polls) per second
// the fleet simulator sustains at budget fidelity, single- and
// multi-threaded. Feeds the BENCH_net_scale.json trajectory; the seed
// baseline lives in bench/baselines/seed_net_scale.json.
//
// Usage:
//   net_scale            full sweep (to 1M tags), human-readable table
//   net_scale --quick    small sweep to 100k, one rep (CI smoke: seconds)
//   net_scale --json     machine-readable JSON records instead of the table
//   net_scale --prof     enable ProfZone wall-clock timing; prints the
//                        self/total zone table after the sweep
//   net_scale --trace-out <file.json>  rerun the largest point with trace
//                        capture and write Perfetto trace-event JSON
//   net_scale --metrics-out <file>     write that run's metrics snapshot
//                        (Prometheus text if the name ends in .prom)
//
// Points at and above 100k tags run with keep_per_tag=false: the streaming
// per-shard stats path, whose memory is O(shards), not O(tags). The three
// historical points (100/1000/5000) keep per-tag records so their digests
// stay comparable across the trajectory.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/capture.h"
#include "obs/prof.h"
#include "sim/network.h"

namespace {

/// Fleets at or past this size use the streaming stats path.
constexpr std::size_t kStreamingThreshold = 100000;

struct Point {
  std::size_t tags;
  std::size_t rounds;
  std::size_t threads;
  double build_ms;
  double run_ms;
  double tags_per_sec;
  double polls_per_sec;
  unsigned long long digest;
};

itb::sim::NetworkConfig make_config(std::size_t tags, std::size_t rounds,
                                    std::size_t threads) {
  using namespace itb;
  sim::NetworkConfig cfg;
  cfg.topology.kind = sim::TopologyKind::kHospitalWard;
  cfg.topology.num_tags = tags;
  cfg.topology.num_helpers = 0;
  cfg.topology.num_aps = std::max<std::size_t>(6, (tags + 3) / 16);
  cfg.detector_sensitivity_dbm = -49.0;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = rounds;
  cfg.seed = 2026;
  cfg.num_threads = threads;
  // digest covers per-tag state for the historical points; the big fleets
  // exercise the streaming aggregation instead.
  cfg.keep_per_tag = tags < kStreamingThreshold;
  return cfg;
}

Point measure(std::size_t tags, std::size_t rounds, std::size_t threads,
              std::size_t reps) {
  using namespace itb;
  const sim::NetworkConfig cfg = make_config(tags, rounds, threads);

  const auto b0 = std::chrono::steady_clock::now();
  const sim::NetworkCoordinator net(cfg);
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - b0)
                              .count();

  double best_ms = 1e300;
  unsigned long long digest = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const sim::NetworkStats s = net.run();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best_ms = std::min(best_ms, ms);
    digest = s.digest();
  }
  const double polls = static_cast<double>(tags * rounds);
  return {tags,
          rounds,
          threads,
          build_ms,
          best_ms,
          static_cast<double>(tags) / (best_ms / 1e3),
          polls / (best_ms / 1e3),
          digest};
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  bool prof = false;
  const char* trace_out = nullptr;
  const char* metrics_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--prof") == 0) prof = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    }
  }
  itb::obs::prof_enable(prof);

  const std::size_t reps = quick ? 1 : 5;
  std::vector<std::pair<std::size_t, std::size_t>> sweep;  // (tags, threads)
  if (quick) {
    // First three points match the seed baseline (by name), one rep each,
    // so tools/benchdiff can compare CI smoke output against
    // bench/baselines/seed_net_scale.json; 100k smokes the streaming path
    // and gates the spatial-hash build time.
    sweep = {{100, 1}, {1000, 1}, {5000, 1}, {100000, 1}};
  } else {
    sweep = {{100, 1},     {1000, 1},      {5000, 1}, {5000, 0 /* all hw */},
             {100000, 1},  {100000, 0},    {1000000, 0}};
  }

  std::vector<Point> points;
  points.reserve(sweep.size());
  for (const auto& [tags, threads] : sweep) {
    points.push_back(measure(tags, /*rounds=*/8, threads, reps));
  }

  // Optional observability artifacts: rerun the largest point once with
  // capture enabled (timings above stay capture-free). The per-shard trace
  // ring is kept small — the artifact shows the schedule's shape, not every
  // poll of a 100k fleet.
  if (trace_out != nullptr || metrics_out != nullptr) {
    using namespace itb;
    const auto& [tags, threads] = sweep.back();
    const sim::NetworkConfig cfg = make_config(tags, /*rounds=*/8, threads);
    obs::RunCapture capture;
    capture.collect_trace = trace_out != nullptr;
    capture.trace_events_per_shard = 128;
    (void)sim::NetworkCoordinator(cfg).run(&capture);
    if (trace_out != nullptr) {
      std::ofstream f(trace_out);
      capture.trace.write_perfetto_json(f);
    }
    if (metrics_out != nullptr) {
      std::ofstream f(metrics_out);
      const std::string name = metrics_out;
      if (name.size() >= 5 && name.rfind(".prom") == name.size() - 5) {
        capture.metrics.write_prometheus(f);
      } else {
        capture.metrics.write_json(f);
      }
    }
  }

  if (json) {
    std::printf("{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::printf(
          "    {\"name\": \"BM_NetScale/%zu/threads:%zu\", "
          "\"tags\": %zu, \"rounds\": %zu, \"build_ms\": %.3f, "
          "\"run_ms\": %.3f, \"tags_per_second\": %.1f, "
          "\"polls_per_second\": %.1f, \"digest\": \"%016llx\"}%s\n",
          p.tags, p.threads, p.tags, p.rounds, p.build_ms, p.run_ms,
          p.tags_per_sec, p.polls_per_sec, p.digest,
          i + 1 < points.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
  }

  itb::bench::header("net_scale",
                     "network simulator scale: tags simulated per second",
                     "budget-fidelity fleet sim must stay interactive to 1M "
                     "tags (build ~linear in tags via the spatial-hash grid)");
  std::printf("%8s %8s %8s %10s %10s %14s %14s  %s\n", "tags", "rounds",
              "threads", "build_ms", "run_ms", "tags/s", "polls/s", "digest");
  for (const Point& p : points) {
    std::printf("%8zu %8zu %8zu %10.2f %10.2f %14.0f %14.0f  %016llx\n",
                p.tags, p.rounds, p.threads, p.build_ms, p.run_ms,
                p.tags_per_sec, p.polls_per_sec, p.digest);
  }
  if (prof) {
    std::ostringstream table;
    itb::obs::prof_write_table(table, "sim.run");
    std::fputs(table.str().c_str(), stdout);
  }
  return 0;
}
