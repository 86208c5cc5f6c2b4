// Shared pieces of the end-to-end benchmark driver: clocks and process
// counters, the machine-speed reference, failure accounting, the span
// recorder used by traced runs, and the options and metric map.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// --- clocks and process counters -------------------------------------------

inline std::int64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// Process CPU time (all threads, user + system), seconds.
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double seconds_since(std::int64_t t0_ns) {
  return 1e-9 * static_cast<double>(wall_ns() - t0_ns);
}

struct ProcCounters {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;

  static ProcCounters now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcCounters c;
    c.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
    c.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    c.minflt = static_cast<double>(ru.ru_minflt);
    return c;
  }
  ProcCounters operator-(const ProcCounters& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minflt - o.minflt};
  }
  ProcCounters& operator+=(const ProcCounters& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    minflt += o.minflt;
    return *this;
  }
};

/// Peak resident set of this process image, MB. Read from VmHWM, not
/// ru_maxrss: Linux carries ru_maxrss across execve, so a child started by
/// a large parent would report the parent's peak.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// --- machine speed -----------------------------------------------------------

/// A fixed reference kernel compiled into the benchmark, not the library:
/// complex Gaussian draws through libm and a 33-tap complex FIR, the mix
/// the waveform workloads spend their time on. On a shared 4-core Xeon VM
/// the single-threaded waveform workloads drifted by +-20% in speed over
/// tens of seconds; timing the reference next to each measured unit and
/// dividing its slowness out cut the run-to-run spread of their throughput
/// from 12-36% to 4-7%. Timings so scaled are reported at nominal speed:
/// the speed at which one reference unit takes kNominalUnitS.
class Reference {
 public:
  /// Time of one unit at nominal speed, about its time on that VM.
  static constexpr double kNominalUnitS = 0.25e-3;
  static constexpr int kUnitsPerSlice = 16;

  /// Runs one slice and returns the machine's slowness now: measured time
  /// per unit over the nominal time per unit (> 1 means slower).
  double slowness() {
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < kUnitsPerSlice; ++i) sink_ = sink_ + unit();
    const double per_unit = 1e-9 * static_cast<double>(wall_ns() - t0) / kUnitsPerSlice;
    return per_unit / kNominalUnitS;
  }

 private:
  double unit() {
    constexpr std::size_t kN = 2048;
    constexpr std::size_t kTaps = 33;
    double re[kN], im[kN];
    for (std::size_t i = 0; i < kN; ++i) {
      const double u1 = (static_cast<double>(next() >> 11) + 1.0) * 0x1p-53;
      const double u2 = static_cast<double>(next() >> 11) * 0x1p-53;
      const double r = std::sqrt(-2.0 * std::log(u1));
      re[i] = r * std::cos(6.283185307179586 * u2);
      im[i] = r * std::sin(6.283185307179586 * u2);
    }
    double acc = 0.0;
    for (std::size_t i = kTaps; i < kN; ++i) {
      double yr = 0.0, yi = 0.0;
      for (std::size_t k = 0; k < kTaps; ++k) {
        const double h = 1.0 / static_cast<double>(k + 1);
        yr += h * re[i - k];
        yi += h * im[i - k];
      }
      acc += yr * yr + yi * yi;
    }
    return acc;
  }
  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  volatile double sink_ = 0.0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- failure accounting ----------------------------------------------------

/// Items attempted and failed. A unit (one sweep block, one fleet run) owns
/// a contiguous run of items; a failed check marks the range of items it
/// covers, and an item counts once however many checks it fails.
class Tally {
 public:
  /// Registers a unit of `items` items; returns its index.
  std::size_t add_unit(std::size_t items) {
    units_.push_back({items, {}});
    return units_.size() - 1;
  }
  void fail(std::size_t unit, std::size_t first, std::size_t count,
            const std::string& why) {
    Unit& u = units_.at(unit);
    const std::size_t end = std::min(first + count, u.items);
    if (first < end) u.failed.emplace_back(first, end);
    if (notes_.size() < 20) notes_.push_back(why);
  }
  void fail_unit(std::size_t unit, const std::string& why) {
    fail(unit, 0, units_.at(unit).items, why);
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const Unit& u : units_) n += u.items;
    return n;
  }
  /// Size of the union of the failed ranges.
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (Unit u : units_) {
      std::sort(u.failed.begin(), u.failed.end());
      std::size_t covered = 0;  // items below this index are counted
      for (const auto& [lo, hi] : u.failed) {
        const std::size_t from = std::max(lo, covered);
        if (hi > from) n += hi - from;
        covered = std::max(covered, hi);
      }
    }
    return n;
  }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  struct Unit {
    std::size_t items;
    std::vector<std::pair<std::size_t, std::size_t>> failed;  ///< [first, end)
  };
  std::vector<Unit> units_;
  std::vector<std::string> notes_;
};

// --- spans ------------------------------------------------------------------

/// In-memory span log for traced runs. Spans nest through an open-span
/// stack (single-threaded callers only), carry the item they belong to and
/// a work count (samples, frames) for per-unit rates, and are written out
/// once when the run ends.
class Tracer {
 public:
  /// Name of the per-item root span. Its self time is the caller's own
  /// work between layer calls, reported as `core.unattributed`.
  static constexpr const char* kItem = "item";

  struct Span {
    std::uint16_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t item = 0;
    std::uint64_t work = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t item, std::uint64_t work = 0)
        : t_(t), idx_(t != nullptr ? t->open(name, item, work) : -1) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }
    /// Sets the work count once it is known (e.g. output samples).
    void work(std::uint64_t w) {
      if (t_ != nullptr) t_->spans_[static_cast<std::size_t>(idx_)].work = w;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int32_t idx_;
  };

  /// Named event counts taken at the same boundaries as the spans.
  void count(const char* name, double n) { counters_[name] += n; }
  double counter(const char* name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  /// Marks the start / end of a traced window; layer shares are taken over
  /// the summed window time.
  void window_begin() { window_start_ = wall_ns(); }
  void window_end() { window_ns_ += wall_ns() - window_start_; }
  std::int64_t window_ns() const { return window_ns_; }

  struct Layer {
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t work = 0;
  };

  /// Per-name self time (span time minus the time its children cover).
  std::map<std::string, Layer> layers() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      const std::int64_t lo = std::max(s.start_ns, p.start_ns);
      const std::int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) child[static_cast<std::size_t>(s.parent)] += hi - lo;
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Layer& l = out[names_[s.name]];
      l.self_ns += (s.end_ns - s.start_ns) - child[i];
      l.calls += 1;
      l.work += s.work;
    }
    return out;
  }

  /// Time in the traced windows outside every layer span: the self time of
  /// the item spans plus the gaps between top-level spans.
  std::int64_t unattributed_ns() const {
    std::int64_t roots = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0) roots += s.end_ns - s.start_ns;
    }
    const auto ls = layers();
    const auto it = ls.find(kItem);
    const std::int64_t item_self = it == ls.end() ? 0 : it->second.self_ns;
    return window_ns_ - roots + item_self;
  }

  /// Layer self times plus the unattributed time equal the window time.
  /// Holds exactly when every span nests inside its parent and siblings do
  /// not overlap; allows 1 us of slack.
  bool adds_up() const {
    std::int64_t attributed = 0;
    for (const auto& [name, l] : layers()) {
      if (name != kItem) attributed += l.self_ns;
    }
    const std::int64_t diff = attributed + unattributed_ns() - window_ns_;
    return diff <= 1000 && diff >= -1000;
  }

  /// Writes every span as CSV (name,start_ns,end_ns,parent,item,work).
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,start_ns,end_ns,parent,item,work\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%lld,%lld,%d,%llu,%llu\n", names_[s.name].c_str(),
                   static_cast<long long>(s.start_ns - origin_),
                   static_cast<long long>(s.end_ns - origin_), s.parent,
                   static_cast<unsigned long long>(s.item),
                   static_cast<unsigned long long>(s.work));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int32_t open(const char* name, std::uint64_t item, std::uint64_t work) {
    Span s;
    s.name = intern(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.item = item;
    s.work = work;
    s.start_ns = wall_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = wall_ns();
    stack_.pop_back();
  }
  std::uint16_t intern(const char* name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint16_t>(i);
    }
    names_.emplace_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  std::int64_t origin_ = wall_ns();
  std::int64_t window_start_ = 0;
  std::int64_t window_ns_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::map<std::string, double> counters_;
};

// --- result -----------------------------------------------------------------

/// Metric name -> (value, unit), printed in name order.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          ///< tiny problem sizes (self-tests)
  bool probe_setup = false;    ///< time the first item in this process only
  std::string inject;          ///< deliberately break one check (self-tests)
  std::string out_dir = ".";   ///< where traced runs write their spans
};

}  // namespace e2e
