// Metrics snapshot: typed counters / gauges / fixed-bucket histograms in a
// fixed order, with JSON and Prometheus-text writers whose bytes depend only
// on the values (DESIGN.md "Observability and the determinism contract").
// The simulator fills one after its ordered merge, as an export of
// sim::NetworkStats, so the snapshot inherits the stats' thread-count
// invariance.
//
// Histogram bucket semantics match Prometheus: bucket i counts samples with
// value <= upper_edges[i] (non-cumulative storage; the text writer emits
// the cumulative `le` form), plus an implicit +Inf overflow bucket.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace itb::obs {

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* metric_kind_name(MetricKind k);

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< counter value / histogram sample count
  double value = 0.0;       ///< gauge value / histogram sample sum
  std::vector<double> edges;
  std::vector<std::uint64_t> buckets;  ///< size edges.size() + 1 (overflow)
};

class MetricsSnapshot {
 public:
  const MetricValue* find(std::string_view name) const;
  /// 0 when the metric is missing or of another kind.
  std::uint64_t counter_value(std::string_view name) const;

  void append_counter(std::string name, std::uint64_t value);
  void append_gauge(std::string name, double value);
  /// `buckets` holds one count per upper edge plus the +Inf overflow;
  /// edges must be strictly increasing (std::invalid_argument otherwise).
  void append_histogram(std::string name, std::vector<double> upper_edges,
                        std::vector<std::uint64_t> buckets, double sum);

  /// `{"metrics": [{"name": ..., "kind": ..., ...}]}`; field order and
  /// float formatting are fixed, so equal snapshots serialize to equal
  /// bytes.
  void write_json(std::ostream& os) const;
  /// Prometheus text exposition format; metric names are sanitized
  /// (`.`/`-` -> `_`).
  void write_prometheus(std::ostream& os) const;

  /// FNV-1a over every name, kind, and value bit pattern, in metric order.
  std::uint64_t digest() const;

 private:
  std::vector<MetricValue> metrics_;
};

}  // namespace itb::obs
