// Observability-layer suite (ctest -L obs): the metrics snapshot and trace
// log must be bit-identical at any thread count and byte-identical across
// repeat exports, the snapshot must equal the NetworkStats it exports, the
// trace JSON must actually parse, histogram buckets must follow the
// Prometheus `le` convention, and ProfZone must account self vs child time.
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "gtest/gtest.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/network.h"

namespace {

using namespace itb;

// --------------------------------------------------------------------------
// Minimal recursive-descent JSON parser: enough to round-trip the writers'
// output and prove well-formedness (objects, arrays, strings, numbers,
// bools, null; no escapes beyond \" and \\, which is all the writers emit).
// --------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::out_of_range("missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  bool parse(Json& out) {
    skip();
    if (!value(out)) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  void skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool value(Json& out) {
    skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.type = Json::Type::kString;
      return string(out.str);
    }
    if (c == 't') {
      out.type = Json::Type::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = Json::Type::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    return number(out);
  }
  bool string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      out.push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(Json& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.type = Json::Type::kNumber;
    out.number = std::stod(std::string(s_.substr(start, pos_ - start)));
    return true;
  }
  bool array(Json& out) {
    out.type = Json::Type::kArray;
    ++pos_;  // '['
    skip();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(Json& out) {
    out.type = Json::Type::kObject;
    ++pos_;  // '{'
    skip();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip();
      std::string key;
      if (pos_ >= s_.size() || !string(key)) return false;
      skip();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      Json v;
      if (!value(v)) return false;
      out.obj.emplace(std::move(key), std::move(v));
      skip();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------------------
// Shared fixture config: a fault-injected resilient ward, small enough to
// run at three thread counts in milliseconds but wide enough that 8 threads
// actually interleave (shard_tags 64 -> ~16 shards).
// --------------------------------------------------------------------------

sim::NetworkConfig ward_config() {
  sim::NetworkConfig cfg;
  cfg.topology.kind = sim::TopologyKind::kHospitalWard;
  cfg.topology.num_tags = 1000;
  cfg.topology.num_helpers = 0;
  cfg.topology.num_aps = 8;
  cfg.detector_sensitivity_dbm = -49.0;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = 4;
  cfg.seed = 77;
  cfg.shard_tags = 64;
  cfg.enable_arq = true;
  cfg.fallback.enable_rate_fallback = true;
  cfg.ap_failover = true;
  cfg.faults.ap_outage(0, 1e6, 2e6);
  cfg.faults.interference(6, 2e6, 1e6, 18.0);
  cfg.faults.brownout(5, 5e5, 5e5);
  return cfg;
}

std::string metrics_json(const obs::MetricsSnapshot& snap) {
  std::ostringstream os;
  snap.write_json(os);
  return os.str();
}

std::string metrics_prom(const obs::MetricsSnapshot& snap) {
  std::ostringstream os;
  snap.write_prometheus(os);
  return os.str();
}

std::string trace_json(const obs::TraceLog& log) {
  std::ostringstream os;
  log.write_perfetto_json(os);
  return os.str();
}

// --------------------------------------------------------------------------
// Metrics snapshot
// --------------------------------------------------------------------------

TEST(MetricsSnapshotTest, HistogramBucketsFollowPrometheusLe) {
  obs::MetricsSnapshot snap;
  // Non-cumulative storage: 2 samples <= 1, 1 in (1, 2], 1 in (2, 5], one
  // past the last edge.
  snap.append_histogram("itb.test.h", {1.0, 2.0, 5.0}, {2, 1, 1, 1}, 15.0);
  const obs::MetricValue* m = snap.find("itb.test.h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(m->count, 5u);
  EXPECT_DOUBLE_EQ(m->value, 15.0);

  // The Prometheus writer emits the cumulative form.
  const std::string prom = metrics_prom(snap);
  EXPECT_NE(prom.find("itb_test_h_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("itb_test_h_bucket{le=\"2\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("itb_test_h_bucket{le=\"5\"} 4"), std::string::npos);
  EXPECT_NE(prom.find("itb_test_h_bucket{le=\"+Inf\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("itb_test_h_count 5"), std::string::npos);

  EXPECT_THROW(snap.append_histogram("itb.test.e", {}, {1}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(snap.append_histogram("itb.test.d", {2.0, 1.0}, {0, 0, 0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(snap.append_histogram("itb.test.t", {1.0, 1.0}, {0, 0, 0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(snap.append_histogram("itb.test.b", {1.0, 2.0}, {0, 0}, 0.0),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Trace buffer / log
// --------------------------------------------------------------------------

TEST(TraceBufferTest, DropsOldestWhenFull) {
  obs::TraceBuffer buf(4);
  for (int i = 1; i <= 6; ++i) {
    buf.instant("e", "t", 1, 1, i);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 2u);
  const std::vector<obs::TraceEvent> kept = buf.drain();
  ASSERT_EQ(kept.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(kept[i].ts_us, i + 3);
}

TEST(TraceLogTest, ExportParsesAndOrdersByTime) {
  obs::TraceLog log;
  log.set_process_name(1, "proc \"one\"");  // exercises string escaping
  log.set_thread_name(1, 1, "thread");
  log.span("late", "t", 1, 1, 50, 10);
  log.instant("early", "t", 1, 1, 5);
  log.finalize();
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(std::string(log.events()[0].name), "early");

  Json doc;
  ASSERT_TRUE(JsonParser(trace_json(log)).parse(doc));
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);
  // 2 metadata records + 2 data events.
  ASSERT_EQ(events.arr.size(), 4u);
  EXPECT_EQ(events.arr[0].at("ph").str, "M");
  EXPECT_EQ(events.arr[0].at("args").at("name").str, "proc \"one\"");
  EXPECT_EQ(events.arr[2].at("name").str, "early");
  EXPECT_EQ(events.arr[3].at("name").str, "late");
  EXPECT_DOUBLE_EQ(events.arr[3].at("dur").number, 10.0);
}

// --------------------------------------------------------------------------
// Network capture: determinism + export stability
// --------------------------------------------------------------------------

TEST(NetworkCaptureTest, SnapshotAndTraceAreThreadCountInvariant) {
  sim::NetworkConfig cfg = ward_config();

  // Reference: no capture attached — observing must not perturb results.
  cfg.num_threads = 1;
  const std::uint64_t bare_digest = sim::NetworkCoordinator(cfg).run().digest();

  std::vector<std::uint64_t> stat_digests;
  std::vector<std::uint64_t> metric_digests;
  std::vector<std::uint64_t> trace_digests;
  std::vector<std::string> json_exports;
  std::vector<std::string> prom_exports;
  std::vector<std::string> trace_exports;
  for (const std::size_t threads : {1, 2, 8}) {
    cfg.num_threads = threads;
    obs::RunCapture capture;
    const sim::NetworkStats s = sim::NetworkCoordinator(cfg).run(&capture);
    stat_digests.push_back(s.digest());
    metric_digests.push_back(capture.metrics.digest());
    trace_digests.push_back(capture.trace.digest());
    json_exports.push_back(metrics_json(capture.metrics));
    prom_exports.push_back(metrics_prom(capture.metrics));
    trace_exports.push_back(trace_json(capture.trace));

    // The snapshot is an export of the stats it observed.
    const std::pair<const char*, std::uint64_t> counters[] = {
        {"itb.sim.polls_total", s.queries_sent},
        {"itb.sim.replies_total", s.replies_received},
        {"itb.sim.downlink_misses", s.downlink_misses},
        {"itb.sim.reservation_denied", s.reservation_denied},
        {"itb.sim.collisions", s.collisions},
        {"itb.sim.decode_failures", s.decode_failures},
        {"itb.arq.retries", s.retransmissions},
        {"itb.arq.backoff_slots", s.backoff_skips},
        {"itb.arq.messages_delivered", s.messages_delivered},
        {"itb.arq.messages_dropped", s.messages_dropped},
        {"itb.rate.downshifts", s.rate_downshifts},
        {"itb.rate.upshifts", s.rate_upshifts},
        {"itb.faults.brownout_skips", s.brownout_skips},
        {"itb.faults.outage_skips", s.outage_skips},
        {"itb.faults.failover_polls", s.failover_polls},
        {"itb.faults.link_down_polls", s.link_down_polls},
    };
    for (const auto& [name, total] : counters) {
      ASSERT_NE(capture.metrics.find(name), nullptr) << name;
      EXPECT_EQ(capture.metrics.counter_value(name), total) << name;
    }
    std::uint64_t downshifts = 0;
    for (const sim::TagStats& t : s.per_tag) downshifts += t.rate_downshifts;
    EXPECT_EQ(s.rate_downshifts, downshifts);
    EXPECT_GT(s.rate_downshifts, 0u);
    const obs::MetricValue* lat =
        capture.metrics.find("itb.sim.poll_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, s.replies_received);
    EXPECT_EQ(lat->value, s.query_latency.sum_us);
    ASSERT_EQ(lat->buckets.size(), sim::LatencyHistogram::kBins);
    for (std::size_t b = 0; b < lat->edges.size(); ++b) {
      EXPECT_EQ(lat->edges[b], sim::LatencyHistogram::bin_upper_us(b));
      EXPECT_EQ(lat->buckets[b], s.query_latency.counts[b]);
    }
    EXPECT_GT(capture.trace.size(), 0u);
  }
  // Pinned, not only compared across thread counts: a change in the order
  // the shard loop emits events moves the trace digest even when every
  // stat holds.
  EXPECT_EQ(stat_digests[0], 0xe774b24ac24890ddULL);
  EXPECT_EQ(metric_digests[0], 0x224ef28c716c0e91ULL);
  EXPECT_EQ(trace_digests[0], 0x7c186bc3b3f9015eULL);
  for (std::size_t i = 1; i < stat_digests.size(); ++i) {
    EXPECT_EQ(stat_digests[i], stat_digests[0]);
    EXPECT_EQ(metric_digests[i], metric_digests[0]);
    EXPECT_EQ(trace_digests[i], trace_digests[0]);
    EXPECT_EQ(json_exports[i], json_exports[0]) << "JSON export not byte-stable";
    EXPECT_EQ(prom_exports[i], prom_exports[0]);
    EXPECT_EQ(trace_exports[i], trace_exports[0]);
  }
  EXPECT_EQ(stat_digests[0], bare_digest)
      << "attaching a RunCapture changed the simulation result";
}

TEST(NetworkCaptureTest, OneTagPerGroupFleetIsPinnedAcrossThreadCounts) {
  // One tag per group makes round == slot, so a tag's reply and its own
  // next query are one slot apart and the ARQ and fallback state the query
  // sees depends on their order.
  sim::NetworkConfig cfg = ward_config();
  cfg.topology.num_tags = 3;
  cfg.shard_tags = 1;
  cfg.rounds = 40;
  cfg.fallback.enable_zigbee_fallback = true;
  cfg.faults = sim::FaultSchedule{};
  cfg.faults.ap_outage(0, 1e6, 2e6);
  cfg.faults.interference(6, 2e6, 1e6, 18.0);
  cfg.faults.brownout(1, 5e5, 5e5);
  for (const std::size_t threads : {1, 2, 8}) {
    cfg.num_threads = threads;
    const sim::NetworkStats s = sim::NetworkCoordinator(cfg).run();
    EXPECT_GT(s.retransmissions, 0u);
    EXPECT_GT(s.rate_downshifts, 0u);
    EXPECT_GT(s.brownout_skips, 0u);
    EXPECT_EQ(s.digest(), 0xeccb6734861108e2ULL) << threads << " threads";
  }
}

TEST(NetworkCaptureTest, TraceJsonParsesBackWithFaultSpans) {
  sim::NetworkConfig cfg = ward_config();
  cfg.num_threads = 2;
  obs::RunCapture capture;
  (void)sim::NetworkCoordinator(cfg).run(&capture);

  Json doc;
  ASSERT_TRUE(JsonParser(trace_json(capture.trace)).parse(doc));
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);

  std::size_t data_events = 0;
  std::size_t fault_spans = 0;
  std::size_t poll_events = 0;
  for (const Json& e : events.arr) {
    ASSERT_EQ(e.type, Json::Type::kObject);
    const std::string& ph = e.at("ph").str;
    if (ph == "M") continue;
    ++data_events;
    EXPECT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    EXPECT_TRUE(e.has("ts"));
    if (ph == "X") {
      EXPECT_TRUE(e.has("dur"));
    }
    const std::string& cat = e.at("cat").str;
    if (cat == "fault") {
      ++fault_spans;
      EXPECT_EQ(ph, "X");
    }
    if (cat == "poll") ++poll_events;
  }
  EXPECT_EQ(data_events, capture.trace.size());
  // The three scheduled faults all appear as spans.
  EXPECT_EQ(fault_spans, 3u);
  EXPECT_GT(poll_events, 0u);
}

TEST(NetworkCaptureTest, TraceRingDropsOldestAndCountsThem) {
  sim::NetworkConfig cfg = ward_config();
  cfg.num_threads = 2;
  obs::RunCapture capture;
  capture.trace_events_per_shard = 16;  // force per-shard drops
  (void)sim::NetworkCoordinator(cfg).run(&capture);
  EXPECT_GT(capture.trace.dropped(), 0u);
  EXPECT_EQ(capture.metrics.counter_value("itb.trace.events_dropped"),
            capture.trace.dropped());
}

// --------------------------------------------------------------------------
// ProfZone
// --------------------------------------------------------------------------

/// Busy-spins long enough to be measurable; returns a value so the loop
/// can't be optimized away.
std::uint64_t spin(std::uint64_t iters) {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc + i;
  return acc;
}

double zone_total_ms(const std::vector<obs::ProfZoneStat>& stats,
                     const std::string& name) {
  for (const obs::ProfZoneStat& s : stats) {
    if (s.name == name) return s.total_ms;
  }
  return -1.0;
}

double zone_self_ms(const std::vector<obs::ProfZoneStat>& stats,
                    const std::string& name) {
  for (const obs::ProfZoneStat& s : stats) {
    if (s.name == name) return s.self_ms;
  }
  return -1.0;
}

std::uint64_t zone_calls(const std::vector<obs::ProfZoneStat>& stats,
                         const std::string& name) {
  for (const obs::ProfZoneStat& s : stats) {
    if (s.name == name) return s.calls;
  }
  return 0;
}

TEST(ProfZoneTest, NestingAttributesSelfTime) {
  obs::prof_enable(true);
  obs::prof_reset();
  const std::size_t outer = obs::prof_zone("test.outer");
  const std::size_t inner = obs::prof_zone("test.inner");
  for (int rep = 0; rep < 3; ++rep) {
    obs::ProfZone po(outer);
    spin(400000);
    {
      obs::ProfZone pi(inner);
      spin(400000);
    }
  }
  obs::prof_enable(false);

  const auto stats = obs::prof_report();
  EXPECT_EQ(zone_calls(stats, "test.outer"), 3u);
  EXPECT_EQ(zone_calls(stats, "test.inner"), 3u);
  const double outer_total = zone_total_ms(stats, "test.outer");
  const double outer_self = zone_self_ms(stats, "test.outer");
  const double inner_total = zone_total_ms(stats, "test.inner");
  ASSERT_GT(outer_total, 0.0);
  ASSERT_GT(inner_total, 0.0);
  // The inner zone nests inside the outer one, so outer self = outer total
  // minus inner total (exactly, by construction of the child-time stack).
  EXPECT_GT(outer_total, inner_total);
  EXPECT_NEAR(outer_self, outer_total - inner_total, 1e-9);

  std::ostringstream table;
  obs::prof_write_table(table, "test.outer");
  EXPECT_NE(table.str().find("test.outer"), std::string::npos);
  EXPECT_NE(table.str().find("attribution"), std::string::npos);
}

TEST(ProfZoneTest, ParallelWorkersOverlapInsteadOfFullAttribution) {
  obs::prof_enable(true);
  obs::prof_reset();
  const std::size_t parent = obs::prof_zone("test.fan_parent");
  const std::size_t worker = obs::prof_zone("test.fan_worker");
  {
    obs::ProfZone p(parent);
    core::parallel_for(2, 2, [&](std::size_t) {
      obs::ProfZone w(worker);
      spin(400000);
    });
  }
  obs::prof_enable(false);

  const auto stats = obs::prof_report();
  EXPECT_EQ(zone_calls(stats, "test.fan_worker"), 2u);
  // Both worker zones count as the parent's children, next to the fan-out
  // itself, so the children sum past the parent's wall time.
  double child_ms = 0.0;
  for (const obs::ProfZoneStat& s : stats) {
    if (s.name == "test.fan_parent") child_ms = s.child_ms;
  }
  const double parent_total = zone_total_ms(stats, "test.fan_parent");
  ASSERT_GT(parent_total, 0.0);
  EXPECT_GT(child_ms, parent_total);
  EXPECT_GE(child_ms, zone_total_ms(stats, "test.fan_worker"));
  EXPECT_EQ(zone_self_ms(stats, "test.fan_parent"), 0.0);

  std::ostringstream table;
  obs::prof_write_table(table, "test.fan_parent");
  const std::string text = table.str();
  EXPECT_EQ(text.find("100% of wall time"), std::string::npos) << text;
  EXPECT_EQ(text.find("attribution"), std::string::npos) << text;
  EXPECT_NE(text.find("overlap"), std::string::npos) << text;
}

TEST(ProfZoneTest, DisabledZonesCostNothingAndCountNothing) {
  obs::prof_enable(false);
  obs::prof_reset();
  const std::size_t zone = obs::prof_zone("test.disabled");
  for (int i = 0; i < 1000; ++i) {
    obs::ProfZone p(zone);
  }
  EXPECT_EQ(zone_calls(obs::prof_report(), "test.disabled"), 0u);
}

}  // namespace
