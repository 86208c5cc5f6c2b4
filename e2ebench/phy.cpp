// Waveform workloads: the 802.11b PER sweep (`per_dsss_2m`) and the
// BLE -> Wi-Fi / ZigBee backscatter uplink (`uplink_backscatter`).
//
// Both run as a sequence of blocks. Block k is a fixed grid of items (trials
// or frames) whose seeds derive from (--seed, k) alone, so a block is the
// same work whenever it runs. Untraced blocks call the library's public
// entry points (core::per_vs_snr, core::InterscatterSystem::simulate_frame);
// the traced run replays each item as the sequence of public calls it is
// made of, with the same seeds, and must reproduce the untraced outcomes.
#include "workloads.h"

#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "backscatter/wifi_synth.h"
#include "backscatter/zigbee_synth.h"
#include "channel/awgn.h"
#include "channel/impairments.h"
#include "core/arena.h"
#include "core/interscatter.h"
#include "core/monte_carlo.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "dsp/units.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"
#include "zigbee/frame.h"

namespace e2e {
namespace {

using itb::dsp::CVec;
using itb::phy::Bytes;
using Scope = Tracer::Scope;

enum class Leg : std::uint8_t { kDsss, kWifi, kZigbee };

/// One grid point of a block: `count` items at one SNR or distance.
struct Point {
  Leg leg;
  double param;  ///< SNR (dB) or tag->AP distance (m)
  std::size_t count;
  bool control;  ///< every item must decode
};

/// Outcome of one block: PER per grid point, compared bit for bit, plus a
/// per-item fingerprint where the public entry point exposes one.
struct BlockResult {
  std::vector<double> per;
  std::vector<std::uint64_t> items;
  bool operator==(const BlockResult& o) const {
    if (per.size() != o.per.size() || items != o.items) return false;
    for (std::size_t i = 0; i < per.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(per[i]) != std::bit_cast<std::uint64_t>(o.per[i])) {
        return false;
      }
    }
    return true;
  }
};

std::uint64_t block_seed(std::uint64_t seed, std::size_t block) {
  return itb::dsp::splitmix64(itb::dsp::splitmix64(seed) + block);
}

Bytes random_bytes(itb::dsp::Xoshiro256& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  return b;
}

/// FNV-1a over an outcome's fields, doubles by bit pattern.
std::uint64_t fingerprint(bool detected, bool ok, double rssi, const Bytes& payload) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix(detected ? 1 : 0);
  mix(ok ? 1 : 0);
  mix(std::bit_cast<std::uint64_t>(rssi));
  mix(payload.size());
  for (const auto b : payload) mix(b);
  return h;
}

/// The ok bit of a fingerprint-free outcome, kept in bit 0 so PER can be
/// recomputed from the per-item values.
constexpr std::uint64_t kOkBit = 1;

class Workload {
 public:
  virtual ~Workload() = default;
  const std::vector<Point>& points() const { return points_; }
  std::size_t items_per_block() const {
    std::size_t n = 0;
    for (const Point& p : points_) n += p.count;
    return n;
  }
  /// Untraced block through the public entry points.
  virtual BlockResult run_block(std::uint64_t bseed) const = 0;
  /// Traced replay of a block; `perturb` (self-test only) replaces one item
  /// seed: {item index, replacement seed}.
  virtual BlockResult replay_block(std::uint64_t bseed, std::size_t block, Tracer* t,
                                   std::pair<std::size_t, std::uint64_t> perturb) const = 0;
  /// Ok bit of one item run standalone (self-test seed search).
  virtual bool item_ok(std::size_t item, std::uint64_t seed) const = 0;
  /// Seed of item `i` of a block.
  std::uint64_t item_seed(std::uint64_t bseed, std::size_t item) const {
    const auto [p, trial] = locate(item);
    return itb::core::trial_seed(bseed, p, trial);
  }
  std::pair<std::size_t, std::size_t> locate(std::size_t item) const {
    for (std::size_t p = 0; p < points_.size(); ++p) {
      if (item < points_[p].count) return {p, item};
      item -= points_[p].count;
    }
    throw std::out_of_range("item index");
  }
  std::size_t first_item(std::size_t point) const {
    std::size_t n = 0;
    for (std::size_t p = 0; p < point; ++p) n += points_[p].count;
    return n;
  }

 protected:
  /// PER per point from per-item ok bits.
  BlockResult from_items(std::vector<std::uint64_t> items) const {
    BlockResult r;
    std::size_t i = 0;
    for (const Point& p : points_) {
      std::size_t fails = 0;
      for (std::size_t k = 0; k < p.count; ++k) fails += (items[i++] & kOkBit) ? 0 : 1;
      r.per.push_back(static_cast<double>(fails) / static_cast<double>(p.count));
    }
    r.items = std::move(items);
    return r;
  }
  std::vector<Point> points_;
};

// --- per_dsss_2m ---------------------------------------------------------------

class PerDsss final : public Workload {
 public:
  static constexpr std::size_t kPsduBytes = 31;

  explicit PerDsss(bool smoke) {
    const std::size_t n = smoke ? 4 : 20;
    for (const double snr : {-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
      points_.push_back({Leg::kDsss, snr, n, false});
    }
    points_.push_back({Leg::kDsss, 30.0, n, true});
    cfg_.rate = itb::wifi::DsssRate::k2Mbps;
    cfg_.psdu_bytes = kPsduBytes;
    cfg_.trials_per_point = n;
    cfg_.num_threads = 1;
    for (const Point& p : points_) grid_.push_back(p.param);
  }

  BlockResult run_block(std::uint64_t bseed) const override {
    itb::core::MonteCarloConfig cfg = cfg_;
    cfg.seed = bseed;
    BlockResult r;
    for (const auto& pt : itb::core::per_vs_snr(cfg, grid_)) r.per.push_back(pt.per_monte_carlo);
    return r;
  }

  BlockResult replay_block(std::uint64_t bseed, std::size_t block, Tracer* t,
                           std::pair<std::size_t, std::uint64_t> perturb) const override {
    const std::size_t n_items = items_per_block();
    const std::uint64_t item0 = block * n_items;
    std::optional<itb::wifi::DsssTransmitter> tx;
    std::optional<itb::wifi::DsssReceiver> rx;
    {
      Scope s(t, "wifi.tx", item0);
      itb::wifi::DsssTxConfig txcfg;
      txcfg.rate = cfg_.rate;
      tx.emplace(txcfg);
    }
    {
      Scope s(t, "wifi.rx", item0);
      rx.emplace();
    }
    std::vector<std::uint64_t> items(n_items);
    for (std::size_t i = 0; i < n_items; ++i) {
      const std::uint64_t seed = i == perturb.first ? perturb.second : item_seed(bseed, i);
      items[i] = trial(*tx, *rx, points_[locate(i).first].param, seed, t, item0 + i) ? kOkBit : 0;
    }
    BlockResult r = from_items(std::move(items));
    r.items.clear();  // per_vs_snr exposes PER only
    return r;
  }

  bool item_ok(std::size_t item, std::uint64_t seed) const override {
    itb::wifi::DsssTxConfig txcfg;
    txcfg.rate = cfg_.rate;
    const itb::wifi::DsssTransmitter tx(txcfg);
    const itb::wifi::DsssReceiver rx;
    return trial(tx, rx, points_[locate(item).first].param, seed, nullptr, 0);
  }

 private:
  /// One Monte-Carlo trial as core::per_vs_snr runs it.
  static bool trial(const itb::wifi::DsssTransmitter& tx, const itb::wifi::DsssReceiver& rx,
                    double snr_db, std::uint64_t seed, Tracer* t, std::uint64_t item) {
    Scope root(t, Tracer::kItem, item);
    const itb::core::ArenaFrame scratch;
    itb::dsp::Xoshiro256 rng(seed);
    const Bytes psdu = random_bytes(rng, kPsduBytes);
    std::optional<itb::wifi::DsssFrame> frame;
    {
      Scope s(t, "wifi.tx", item);
      frame.emplace(tx.modulate(psdu));
      s.work(frame->baseband.size());
    }
    const CVec wave = frame->baseband;
    CVec noisy;
    {
      Scope s(t, "channel.noise", item, wave.size());
      noisy = itb::channel::add_noise_snr(wave, snr_db, rng);
    }
    std::optional<itb::wifi::DsssRxResult> res;
    {
      Scope s(t, "wifi.rx", item, 1);
      res = rx.receive(noisy);
    }
    const bool ok = res.has_value() && res->header_ok && res->psdu == psdu;
    if (t != nullptr) {
      t->count("wifi.rx.frames", 1);
      t->count("wifi.rx.detected", res.has_value() ? 1 : 0);
      t->count("wifi.rx.ok", ok ? 1 : 0);
    }
    return ok;
  }

  itb::core::MonteCarloConfig cfg_;
  std::vector<double> grid_;
};

// --- uplink_backscatter -----------------------------------------------------------

class Uplink final : public Workload {
 public:
  static constexpr std::size_t kWifiPsduBytes = 31;
  static constexpr std::size_t kZigbeePayloadBytes = 20;

  explicit Uplink(bool smoke) {
    // Frame mix: a ZigBee frame (96 Msps, ~0.9 ms on air) costs about eight
    // 11 Mbps Wi-Fi frames (143 Msps, ~0.12 ms on air), so eight Wi-Fi frames
    // per distance against one ZigBee frame per SNR keeps each leg near half
    // of the time.
    const std::size_t wifi_n = smoke ? 2 : 8;
    for (const double d : {12.0, 10.0, 8.0, 6.0, 4.0, 2.0}) {
      points_.push_back({Leg::kWifi, d, wifi_n, false});
    }
    // The implant-tissue preset's fading loses about one frame in 1500 even
    // at 1 m, so the Wi-Fi control point runs the ideal channel.
    points_.push_back({Leg::kWifi, 1.0, wifi_n, true});
    for (const double snr : {-1.0, 0.0, 1.0, 2.0, 3.0, 4.0}) {
      points_.push_back({Leg::kZigbee, snr, 1, false});
    }
    points_.push_back({Leg::kZigbee, 30.0, 1, true});
  }

  static itb::core::UplinkScenario scenario(const Point& p, std::uint64_t seed) {
    itb::core::UplinkScenario sc;
    sc.rate = itb::wifi::DsssRate::k11Mbps;
    sc.impairment_preset = p.control ? itb::channel::ImpairmentPreset::kNone
                                     : itb::channel::ImpairmentPreset::kImplantTissue;
    sc.tag_rx_distance_m = p.param;
    sc.seed = seed;
    return sc;
  }

  BlockResult run_block(std::uint64_t bseed) const override {
    std::vector<std::uint64_t> items;
    for (std::size_t i = 0; i < items_per_block(); ++i) {
      const Point& p = points_[locate(i).first];
      const std::uint64_t seed = item_seed(bseed, i);
      items.push_back(p.leg == Leg::kWifi ? wifi_frame(p, seed)
                                          : zigbee_frame(p.param, seed, nullptr, 0));
    }
    return from_items(std::move(items));
  }

  BlockResult replay_block(std::uint64_t bseed, std::size_t block, Tracer* t,
                           std::pair<std::size_t, std::uint64_t> perturb) const override {
    std::vector<std::uint64_t> items;
    const std::uint64_t item0 = block * items_per_block();
    for (std::size_t i = 0; i < items_per_block(); ++i) {
      const Point& p = points_[locate(i).first];
      const std::uint64_t seed = i == perturb.first ? perturb.second : item_seed(bseed, i);
      items.push_back(p.leg == Leg::kWifi ? wifi_replay(p, seed, t, item0 + i)
                                          : zigbee_frame(p.param, seed, t, item0 + i));
    }
    return from_items(std::move(items));
  }

  bool item_ok(std::size_t item, std::uint64_t seed) const override {
    const Point& p = points_[locate(item).first];
    const std::uint64_t f =
        p.leg == Leg::kWifi ? wifi_frame(p, seed) : zigbee_frame(p.param, seed, nullptr, 0);
    return (f & kOkBit) != 0;
  }

 private:
  static std::uint64_t pack(std::uint64_t fp, bool ok) { return (fp & ~kOkBit) | (ok ? kOkBit : 0); }

  /// Wi-Fi leg through the library's composite entry point.
  static std::uint64_t wifi_frame(const Point& p, std::uint64_t seed) {
    itb::dsp::Xoshiro256 rng(seed);
    const Bytes psdu = random_bytes(rng, kWifiPsduBytes);
    const itb::core::InterscatterSystem sys(scenario(p, seed));
    const auto r = sys.simulate_frame(psdu);
    return pack(fingerprint(r.detected, r.payload_ok, r.rssi_dbm, r.decoded_psdu), r.payload_ok);
  }

  /// The same frame as the public calls simulate_frame is made of. The
  /// chip matched filter and the RSSI scaling are written inline there, so
  /// they are inline here too and land in `core.unattributed`.
  static std::uint64_t wifi_replay(const Point& p, std::uint64_t seed, Tracer* t,
                                   std::uint64_t item) {
    Scope root(t, Tracer::kItem, item);
    itb::dsp::Xoshiro256 payload_rng(seed);
    const Bytes psdu = random_bytes(payload_rng, kWifiPsduBytes);
    std::optional<itb::core::InterscatterSystem> sys;
    {
      Scope s(t, "ble.tone", item, 1);
      sys.emplace(scenario(p, seed));
    }
    itb::backscatter::WifiSynthConfig synth_cfg;
    synth_cfg.rate = sys->scenario().rate;
    synth_cfg.sample_rate_hz = 143e6;
    const double wanted = sys->shift_hz();
    const double k =
        std::max(1.0, std::round(synth_cfg.sample_rate_hz / (4.0 * std::abs(wanted))));
    synth_cfg.shift_hz = std::copysign(synth_cfg.sample_rate_hz / (4.0 * k), wanted);
    std::optional<itb::backscatter::WifiSynthResult> synth;
    {
      Scope s(t, "backscatter.synth", item);
      synth.emplace(itb::backscatter::synthesize_wifi(psdu, synth_cfg));
      s.work(synth->waveform.size());
    }
    std::optional<itb::core::UplinkBudget> b;
    {
      Scope s(t, "core.budget", item, 1);
      b.emplace(sys->budget(psdu.size()));
    }
    itb::dsp::Xoshiro256 rng(itb::dsp::splitmix64(seed ^ 0x75706C6BULL));
    const double fs = synth_cfg.sample_rate_hz;
    CVec shifted;
    {
      Scope s(t, "channel.shift", item, synth->waveform.size());
      shifted = itb::channel::apply_cfo(synth->waveform, -synth_cfg.shift_hz, fs);
    }
    const std::size_t spc = 13;
    CVec chips(shifted.size() / spc);
    for (std::size_t i = 0; i < chips.size(); ++i) {
      itb::dsp::Complex acc{0.0, 0.0};
      for (std::size_t j = 0; j < spc; ++j) acc += shifted[i * spc + j];
      chips[i] = acc / static_cast<double>(spc);
    }
    const double target_watts = itb::dsp::dbm_to_watts(b->rssi_dbm);
    const double cur = itb::dsp::mean_power(chips);
    if (cur > 0.0) {
      const double g = std::sqrt(target_watts / cur);
      for (auto& c : chips) c *= g;
    }
    const auto impairment_cfg = sys->resolved_impairments();
    std::optional<itb::channel::ImpairmentChain> chain;
    if (impairment_cfg) {
      Scope s(t, "channel.impair", item, chips.size());
      chain.emplace(*impairment_cfg);
      chips = chain->apply_channel(chips, seed);
    }
    CVec noisy;
    {
      Scope s(t, "channel.noise", item, chips.size());
      const double noise_dbm =
          itb::channel::thermal_noise_dbm(11e6, sys->scenario().rx_noise_figure_db);
      noisy = itb::channel::add_noise_variance(chips, itb::dsp::dbm_to_watts(noise_dbm), rng);
    }
    if (chain) {
      Scope s(t, "channel.impair", item, noisy.size());
      noisy = chain->apply_frontend(noisy);
    }
    std::optional<itb::wifi::DsssRxResult> res;
    {
      Scope s(t, "wifi.rx", item, 1);
      itb::wifi::DsssRxConfig rxcfg;
      rxcfg.samples_per_chip = 1;
      const itb::wifi::DsssReceiver rx(rxcfg);
      res = rx.receive(noisy);
    }
    const bool detected = res.has_value();
    const bool ok = detected && res->header_ok && res->psdu == psdu;
    if (t != nullptr) {
      t->count("wifi.rx.frames", 1);
      t->count("wifi.rx.detected", detected ? 1 : 0);
      t->count("wifi.rx.ok", ok ? 1 : 0);
    }
    return pack(fingerprint(detected, ok, detected ? b->rssi_dbm : 0.0,
                            detected ? res->psdu : Bytes{}),
                ok);
  }

  /// ZigBee leg: synthesize -> down-shift -> decimate to 8 Msps -> AWGN ->
  /// receive. Untraced when `t` is null.
  static std::uint64_t zigbee_frame(double snr_db, std::uint64_t seed, Tracer* t,
                                    std::uint64_t item) {
    Scope root(t, Tracer::kItem, item);
    itb::dsp::Xoshiro256 rng(seed);
    const Bytes payload = random_bytes(rng, kZigbeePayloadBytes);
    const itb::backscatter::ZigbeeSynthConfig cfg;
    std::optional<itb::backscatter::ZigbeeSynthResult> synth;
    {
      Scope s(t, "backscatter.synth", item);
      synth.emplace(itb::backscatter::synthesize_zigbee(payload, cfg));
      s.work(synth->waveform.size());
    }
    CVec shifted;
    {
      Scope s(t, "channel.shift", item, synth->waveform.size());
      shifted = itb::channel::apply_cfo(synth->waveform, -cfg.shift_hz, cfg.sample_rate_hz);
    }
    CVec rx_samples;
    {
      Scope s(t, "dsp.decimate", item, shifted.size());
      rx_samples = itb::dsp::decimate(shifted, 12);
    }
    CVec noisy;
    {
      Scope s(t, "channel.noise", item, rx_samples.size());
      noisy = itb::channel::add_noise_snr(rx_samples, snr_db, rng);
    }
    std::optional<itb::zigbee::ZigbeeRxResult> res;
    {
      Scope s(t, "zigbee.rx", item, 1);
      res = itb::zigbee::zigbee_receive(noisy);
    }
    const bool detected = res.has_value();
    const bool ok = detected && res->fcs_ok && res->payload == payload;
    if (t != nullptr) {
      t->count("zigbee.rx.frames", 1);
      t->count("zigbee.rx.ok", ok ? 1 : 0);
    }
    return pack(fingerprint(detected, ok, detected ? res->rssi_dbm : 0.0,
                            detected ? res->payload : Bytes{}),
                ok);
  }
};

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "per_dsss_2m") return std::make_unique<PerDsss>(opt.smoke);
  return std::make_unique<Uplink>(opt.smoke);
}

// --- checks --------------------------------------------------------------------

/// Marks the items of block `unit` that differ between two runs of it.
void compare_blocks(const Workload& w, const BlockResult& want, const BlockResult& got,
                    std::size_t unit, const char* what, Tally& tally) {
  if (want == got) return;
  for (std::size_t p = 0; p < w.points().size(); ++p) {
    const std::size_t first = w.first_item(p);
    const std::size_t n = w.points()[p].count;
    if (!want.items.empty() && want.items.size() == got.items.size()) {
      for (std::size_t i = first; i < first + n; ++i) {
        if (want.items[i] != got.items[i]) tally.fail(unit, i, 1, what);
      }
    } else if (p >= want.per.size() || p >= got.per.size() ||
               std::bit_cast<std::uint64_t>(want.per[p]) !=
                   std::bit_cast<std::uint64_t>(got.per[p])) {
      tally.fail(unit, first, n, what);
    }
  }
}

/// Control points decode every item; adds the block's failures per point
/// to `fails`.
void check_block(const Workload& w, const BlockResult& r, std::size_t unit, Tally& tally,
                 std::vector<double>& fails) {
  for (std::size_t p = 0; p < w.points().size(); ++p) {
    const Point& pt = w.points()[p];
    const double f = std::round(r.per[p] * static_cast<double>(pt.count));
    fails[p] += f;
    if (pt.control && f > 0) {
      tally.fail(unit, w.first_item(p), static_cast<std::size_t>(f),
                 "control point lost a frame");
    }
  }
}

/// PER must not increase along each leg's grid (ordered from the weakest
/// link to the strongest), within a 4-sigma binomial tolerance.
void check_monotone(const Workload& w, const std::vector<double>& fails, std::size_t blocks,
                    const std::vector<std::size_t>& units, Tally& tally) {
  const auto& pts = w.points();
  for (std::size_t j = 0; j < pts.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (pts[i].leg != pts[j].leg) continue;
      const double ni = static_cast<double>(pts[i].count * blocks);
      const double nj = static_cast<double>(pts[j].count * blocks);
      const double pi = fails[i] / ni;
      const double pj = fails[j] / nj;
      const double pooled = (fails[i] + fails[j]) / (ni + nj);
      const double tol = 4.0 * std::sqrt(pooled * (1.0 - pooled) * (1.0 / ni + 1.0 / nj));
      if (pj > pi + tol + 1e-12) {
        for (const std::size_t u : units) {
          tally.fail(u, w.first_item(j), pts[j].count, "PER increased along the grid");
        }
      }
    }
  }
}

constexpr std::pair<std::size_t, std::uint64_t> kNoPerturb{~std::size_t{0}, 0};

/// Self-test: picks the first item of block 0 whose outcome changes under
/// a perturbed seed, so the replay check has something to catch.
std::pair<std::size_t, std::uint64_t> find_perturbation(const Workload& w, std::uint64_t bseed) {
  for (std::size_t i = 0; i < w.items_per_block(); ++i) {
    const std::uint64_t seed = w.item_seed(bseed, i);
    const bool ok = w.item_ok(i, seed);
    for (std::uint64_t k = 1; k <= 64; ++k) {
      if (w.item_ok(i, seed ^ k) != ok) return {i, seed ^ k};
    }
  }
  return kNoPerturb;
}

struct Timed {
  BlockResult r;
  double wall_s;
  double cpu_s;
  ProcCounters proc;
};

Timed timed_block(const Workload& w, std::uint64_t bseed) {
  const ProcCounters p0 = ProcCounters::now();
  const double c0 = cpu_s();
  const std::int64_t t0 = wall_ns();
  Timed out{w.run_block(bseed), 0.0, 0.0, {}};
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_s() - c0;
  out.proc = ProcCounters::now() - p0;
  return out;
}

}  // namespace

double phy_probe_setup(const Options& opt, std::int64_t t_main_ns) {
  const auto w = make_workload(opt);
  const std::uint64_t bseed = block_seed(opt.seed, 0);
  // The first item of each leg, through the untraced entry points.
  if (opt.workload == "per_dsss_2m") {
    itb::core::MonteCarloConfig cfg;
    cfg.rate = itb::wifi::DsssRate::k2Mbps;
    cfg.psdu_bytes = PerDsss::kPsduBytes;
    cfg.trials_per_point = 1;
    cfg.num_threads = 1;
    cfg.seed = bseed;
    (void)itb::core::per_vs_snr(cfg, {w->points().front().param});
  } else {
    std::size_t zig = 0;
    while (w->points()[w->locate(zig).first].leg != Leg::kZigbee) ++zig;
    (void)w->item_ok(0, w->item_seed(bseed, 0));
    (void)w->item_ok(zig, w->item_seed(bseed, zig));
  }
  const double setup = seconds_since(t_main_ns);
  Reference ref;
  std::vector<double> slow;
  for (int i = 0; i < 5; ++i) slow.push_back(ref.slowness());
  return setup / median(slow);
}

void run_phy(const Options& opt, Tally& tally, Metrics& m) {
  const auto w = make_workload(opt);
  const std::size_t n_items = w->items_per_block();
  const std::size_t min_blocks = 3;
  std::vector<double> fails(w->points().size(), 0.0);
  std::vector<std::size_t> units;

  if (!opt.trace) {
    // Each block is timed between two reference slices; its wall and CPU
    // time are scaled to nominal machine speed by their mean slowness.
    std::vector<double> rate, cpu_us;
    Reference ref;
    double slow_before = ref.slowness();
    const std::int64_t t0 = wall_ns();
    for (std::size_t k = 0; k < min_blocks || seconds_since(t0) < opt.seconds; ++k) {
      const std::size_t unit = tally.add_unit(n_items);
      units.push_back(unit);
      try {
        const Timed b = timed_block(*w, block_seed(opt.seed, k));
        const double slow_after = ref.slowness();
        const double slow = 0.5 * (slow_before + slow_after);
        slow_before = slow_after;
        check_block(*w, b.r, unit, tally, fails);
        // Block 0 pays the one-off setup (plans, tables, arena growth); it
        // is checked but not timed.
        if (k == 0) continue;
        rate.push_back(static_cast<double>(n_items) * slow / b.wall_s);
        cpu_us.push_back(1e6 * b.cpu_s / slow / static_cast<double>(n_items));
      } catch (const std::exception& e) {
        tally.fail_unit(unit, std::string("exception: ") + e.what());
      }
    }
    check_monotone(*w, fails, units.size(), units, tally);
    m["items_per_s"] = {median(rate), "1/s"};
    m["cpu_us_per_item"] = {median(cpu_us), "us"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return;
  }

  // Traced run: per block, the untraced block, its traced replay, and the
  // untraced block with SIMD dispatch off, in an order that alternates so
  // slow drift of the machine cancels out of the ratios.
  Tracer tracer;
  double untraced_s = 0.0, scalar_s = 0.0;
  ProcCounters proc;
  std::size_t timed_items = 0;
  (void)w->run_block(block_seed(opt.seed, 0));  // warm-up: one-off setup
  const std::int64_t t0 = wall_ns();
  for (std::size_t k = 0; k < min_blocks || seconds_since(t0) < opt.seconds; ++k) {
    const std::size_t unit = tally.add_unit(n_items);
    units.push_back(unit);
    const std::uint64_t bseed = block_seed(opt.seed, k);
    try {
      const auto perturb =
          (k == 0 && opt.inject == "replay_seed") ? find_perturbation(*w, bseed) : kNoPerturb;
      Timed base{}, scalar{};
      BlockResult traced;
      auto untraced = [&] { base = timed_block(*w, bseed); };
      auto replay = [&] {
        tracer.window_begin();
        traced = w->replay_block(bseed, k, &tracer, perturb);
        tracer.window_end();
      };
      auto no_simd = [&] {
        itb::dsp::simd::set_simd_enabled(false);
        scalar = timed_block(*w, bseed);
        itb::dsp::simd::set_simd_enabled(true);
      };
      if (k % 2 == 0) {
        untraced();
        replay();
        no_simd();
      } else {
        no_simd();
        replay();
        untraced();
      }
      check_block(*w, base.r, unit, tally, fails);
      compare_blocks(*w, base.r, traced, unit, "replay differs from the untraced run", tally);
      compare_blocks(*w, base.r, scalar.r, unit, "SIMD-off outputs differ", tally);
      untraced_s += base.wall_s;
      scalar_s += scalar.wall_s;
      proc += base.proc;
      timed_items += n_items;
    } catch (const std::exception& e) {
      tally.fail_unit(unit, std::string("exception: ") + e.what());
    }
  }
  check_monotone(*w, fails, units.size(), units, tally);

  const auto layers = tracer.layers();
  const double wall = static_cast<double>(tracer.window_ns());
  const std::int64_t unattributed = tracer.unattributed_ns();
  if (!tracer.adds_up()) {
    for (const std::size_t u : units) tally.fail_unit(u, "layer self times do not add up");
  }
  auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? Tracer::Layer{} : it->second;
  };
  auto share = [&](const char* name) { return ratio(static_cast<double>(self(name).self_ns), wall); };
  auto ns_per = [&](const char* name) {
    const auto l = self(name);
    return ratio(static_cast<double>(l.self_ns), static_cast<double>(l.work));
  };

  m["wifi.tx.share"].first = share("wifi.tx");
  m["channel.noise.share"].first = share("channel.noise");
  m["channel.noise.ns_per_sample"].first = ns_per("channel.noise");
  m["wifi.rx.share"].first = share("wifi.rx");
  m["wifi.rx.us_per_frame"].first =
      1e-3 * ratio(static_cast<double>(self("wifi.rx").self_ns), tracer.counter("wifi.rx.frames"));
  m["wifi.rx.detect_ratio"].first =
      ratio(tracer.counter("wifi.rx.detected"), tracer.counter("wifi.rx.frames"));
  m["wifi.rx.ok_ratio"].first = ratio(tracer.counter("wifi.rx.ok"), tracer.counter("wifi.rx.frames"));
  m["core.unattributed_share"].first = ratio(static_cast<double>(unattributed), wall);
  m["ble.tone.us_per_call"].first =
      1e-3 * ratio(static_cast<double>(self("ble.tone").self_ns), static_cast<double>(self("ble.tone").calls));
  m["backscatter.synth.share"].first = share("backscatter.synth");
  m["backscatter.synth.ns_per_sample"].first = ns_per("backscatter.synth");
  m["channel.shift.share"].first = share("channel.shift");
  m["channel.shift.ns_per_sample"].first = ns_per("channel.shift");
  m["dsp.decimate.share"].first = share("dsp.decimate");
  m["dsp.decimate.ns_per_sample"].first = ns_per("dsp.decimate");
  m["channel.impair.share"].first = share("channel.impair");
  m["zigbee.rx.share"].first = share("zigbee.rx");
  m["zigbee.rx.ok_ratio"].first =
      ratio(tracer.counter("zigbee.rx.ok"), tracer.counter("zigbee.rx.frames"));

  m["trace.overhead"].first = 1e-9 * wall / untraced_s - 1.0;
  m["dsp.simd.speedup"].first = ratio(scalar_s, untraced_s);
  m["proc.sys_share"].first = ratio(proc.sys_s, proc.user_s + proc.sys_s);
  m["proc.minflt_per_item"].first = ratio(proc.minflt, static_cast<double>(timed_items));

  const std::string path = opt.out_dir + "/spans_" + opt.workload + ".csv";
  if (!tracer.write_csv(path)) {
    std::fprintf(stderr, "e2e: cannot write %s\n", path.c_str());
  }
}

}  // namespace e2e
