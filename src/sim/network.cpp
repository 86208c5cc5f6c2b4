#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "backscatter/ic_power.h"
#include "ble/channel_map.h"
#include "ble/packet.h"
#include "channel/awgn.h"
#include "core/interscatter.h"
#include "core/parallel.h"
#include "dsp/units.h"
#include "obs/capture.h"
#include "obs/prof.h"
#include "sim/spatial_hash.h"

namespace itb::sim {

namespace {

/// Transmit power of the APs' OFDM-AM downlink queries.
constexpr Real kApTxPowerDbm = 15.0;

/// CCA energy-detect threshold: leakage below this never makes the victim
/// channel look busy, it only raises the noise floor.
constexpr Real kCcaThresholdDbm = -62.0;

/// RNG phase salts: every (tag, round) poll uses two independent substreams
/// so the reply draws never depend on how many draws the query phase made.
constexpr std::uint64_t kQueryPhase = 0;
constexpr std::uint64_t kReplyPhase = 1;

std::uint64_t phase_counter(std::uint64_t round, std::uint64_t phase) {
  return round * 2 + phase;
}

/// Runs fn(t) for every tag t < n over fixed 4096-tag blocks. fn must write
/// only tag t's own slots, so thread count changes wall time, never results.
template <typename Fn>
void for_each_tag(std::size_t n, std::size_t num_threads, Fn&& fn) {
  constexpr std::size_t kBlock = 4096;
  itb::core::parallel_for(
      (n + kBlock - 1) / kBlock, num_threads, [&](std::size_t bi) {
        const std::size_t hi = std::min(n, (bi + 1) * kBlock);
        for (std::size_t t = bi * kBlock; t < hi; ++t) fn(t);
      });
}

/// What the link budget and the fault timeline say about a poll of `tag`
/// at `t_us`.
PollGates gates_at(const TagLink& link, const FaultTimeline& timeline,
                   std::uint32_t tag, double t_us) {
  PollGates g;
  g.link_down = link.link_down;
  g.ap_down = !link.link_down && timeline.ap_down(link.primary.ap, t_us);
  g.failover_up = g.ap_down && link.has_failover &&
                  !timeline.ap_down(link.failover.ap, t_us);
  g.browned_out = !link.link_down && timeline.tag_browned_out(tag, t_us);
  return g;
}

mac::ReservationOutcome reservation_at(const NetworkConfig& cfg,
                                       Real busy_probability) {
  mac::ReservationConfig rc;
  rc.scheme = cfg.reservation;
  rc.channel_busy_probability = busy_probability;
  rc.cts_detection_probability = cfg.cts_detection_probability;
  return mac::reservation_outcome(rc);
}

/// Every per-tag counter, the NetworkStats total it sums into, and the
/// metric that exports that total (null: not exported), in export order.
struct Counter {
  std::uint64_t TagStats::*tag;
  std::uint64_t NetworkStats::*total;
  const char* metric;
};
constexpr Counter kCounters[] = {
    {&TagStats::queries, &NetworkStats::queries_sent, "itb.sim.polls_total"},
    {&TagStats::replies, &NetworkStats::replies_received,
     "itb.sim.replies_total"},
    {&TagStats::downlink_misses, &NetworkStats::downlink_misses,
     "itb.sim.downlink_misses"},
    {&TagStats::reservation_denied, &NetworkStats::reservation_denied,
     "itb.sim.reservation_denied"},
    {&TagStats::collisions, &NetworkStats::collisions, "itb.sim.collisions"},
    {&TagStats::decode_failures, &NetworkStats::decode_failures,
     "itb.sim.decode_failures"},
    {&TagStats::retransmissions, &NetworkStats::retransmissions,
     "itb.arq.retries"},
    {&TagStats::backoff_skips, &NetworkStats::backoff_skips,
     "itb.arq.backoff_slots"},
    {&TagStats::messages_delivered, &NetworkStats::messages_delivered,
     "itb.arq.messages_delivered"},
    {&TagStats::messages_dropped, &NetworkStats::messages_dropped,
     "itb.arq.messages_dropped"},
    {&TagStats::rate_downshifts, &NetworkStats::rate_downshifts,
     "itb.rate.downshifts"},
    {&TagStats::rate_upshifts, &NetworkStats::rate_upshifts,
     "itb.rate.upshifts"},
    {&TagStats::brownout_skips, &NetworkStats::brownout_skips,
     "itb.faults.brownout_skips"},
    {&TagStats::outage_skips, &NetworkStats::outage_skips,
     "itb.faults.outage_skips"},
    {&TagStats::failover_polls, &NetworkStats::failover_polls,
     "itb.faults.failover_polls"},
    {&TagStats::link_down_polls, &NetworkStats::link_down_polls,
     "itb.faults.link_down_polls"},
    {&TagStats::messages_offered, &NetworkStats::messages_offered, nullptr},
    {&TagStats::fallback_polls, &NetworkStats::fallback_polls, nullptr},
};

/// The floating-point sums behind NetworkStats' goodput, energy and per-tag
/// means. Streaming folds each shard's tags into its own Sums and merges
/// those in shard order; keep_per_tag folds every tag into one running Sums
/// in the same group-major slot order. The two differ only in association.
struct Sums {
  double payload_bits = 0.0;
  double tx_energy_nj = 0.0;
  double tag_goodput_kbps = 0.0;
  double airtime_duty = 0.0;
  double harvest_duty = 0.0;
  double power_uw = 0.0;

  /// `elapsed_us` and `shift_hz` are the tag's group's timeline length and
  /// SSB shift.
  void add(const TagStats& ts, double elapsed_us, Real shift_hz,
           itb::wifi::DsssRate rate) {
    payload_bits += ts.payload_bits;
    tx_energy_nj += ts.tx_energy_nj;
    tag_goodput_kbps += mac::safe_goodput_kbps(ts.payload_bits, elapsed_us);
    const double duty = elapsed_us > 0.0 ? ts.airtime_us / elapsed_us : 0.0;
    airtime_duty += duty;
    harvest_duty += elapsed_us > 0.0 ? ts.harvest_us / elapsed_us : 0.0;
    power_uw += itb::backscatter::average_power_uw(rate, shift_hz,
                                                   std::min(duty, 1.0));
  }

  void merge(const Sums& o) {
    payload_bits += o.payload_bits;
    tx_energy_nj += o.tx_energy_nj;
    tag_goodput_kbps += o.tag_goodput_kbps;
    airtime_duty += o.airtime_duty;
    harvest_duty += o.harvest_duty;
    power_uw += o.power_uw;
  }
};

/// Writes one shard's events onto its logical Perfetto track: one
/// "process" per FDMA group, one "thread" per shard — functions of the
/// topology, never of how shards were scheduled onto OS threads. A null
/// buffer (tracing off) makes every call a single branch.
struct ShardTracer {
  obs::TraceBuffer* buf = nullptr;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  const std::array<double, mac::kNumLinkWaveforms>* airtime_us = nullptr;

  void poll(double t_us, std::uint32_t tag, std::uint64_t round,
            PollOutcome out, mac::LinkWaveform wf, std::uint32_t ap,
            bool retx) const {
    if (buf == nullptr) return;
    obs::TraceEvent e;
    e.name = poll_outcome_name(out);
    e.cat = "poll";
    e.pid = pid;
    e.tid = tid;
    e.ts_us = static_cast<std::int64_t>(t_us);
    // Outcomes that put energy on the air are spans (dur = attempt airtime
    // on the active rung); skipped/silent slots are instants.
    if (out == PollOutcome::kDelivered || out == PollOutcome::kCollision ||
        out == PollOutcome::kDecodeFailure) {
      e.phase = obs::TracePhase::kSpan;
      e.dur_us = static_cast<std::int64_t>(
          (*airtime_us)[static_cast<std::size_t>(wf)]);
    }
    static constexpr obs::TraceArgNames kArgs = {"tag", "round", "ap"};
    e.arg_names = &kArgs;
    e.args = {tag, static_cast<std::uint32_t>(round), ap};
    e.sarg_name = "waveform";
    e.sarg = mac::waveform_name(wf);
    buf->push(e);
    if (retx) buf->instant("arq.retx", "arq", pid, tid, e.ts_us);
  }

  void rate_shift(double t_us, bool up, mac::LinkWaveform now) const {
    if (buf == nullptr) return;
    obs::TraceEvent e;
    e.name = up ? "rate.upshift" : "rate.downshift";
    e.cat = "rate";
    e.pid = pid;
    e.tid = tid;
    e.ts_us = static_cast<std::int64_t>(t_us);
    e.sarg_name = "waveform";
    e.sarg = mac::waveform_name(now);
    buf->push(e);
  }
};

/// Names the logical tracks, adds the fault windows on their own track, and
/// merges the shard rings in shard-index order.
void export_trace(const NetworkConfig& cfg, const RunPlan& plan,
                  const std::vector<obs::TraceBuffer>& shards,
                  obs::TraceLog& log) {
  const std::size_t num_groups = plan.groups.size();
  for (std::size_t g = 0; g < num_groups; ++g) {
    log.set_process_name(static_cast<std::uint32_t>(g + 1),
                         "wifi-ch" + std::to_string(cfg.wifi_channels[g]));
  }
  for (std::size_t si = 0; si < plan.shards.size(); ++si) {
    const RunPlan::Shard& sh = plan.shards[si];
    log.set_thread_name(static_cast<std::uint32_t>(sh.group + 1),
                        static_cast<std::uint32_t>(si + 1),
                        "shard " + std::to_string(si) + " slots[" +
                            std::to_string(sh.begin) + "," +
                            std::to_string(sh.end) + ")");
  }
  // Fault windows get their own process so an AP reboot or microwave burst
  // reads as a span directly above the polls it disrupts.
  if (!cfg.faults.empty()) {
    const auto fault_pid = static_cast<std::uint32_t>(num_groups + 1);
    log.set_process_name(fault_pid, "faults");
    log.set_thread_name(fault_pid, 1, "timeline");
    for (const FaultEvent& fe : cfg.faults.events) {
      obs::TraceEvent e;
      e.name = fault_kind_name(fe.kind);
      e.cat = "fault";
      e.phase = obs::TracePhase::kSpan;
      e.pid = fault_pid;
      e.tid = 1;
      e.ts_us = static_cast<std::int64_t>(fe.start_us);
      e.dur_us = static_cast<std::int64_t>(fe.duration_us);
      static constexpr obs::TraceArgNames kArgs = {"entity"};
      e.arg_names = &kArgs;
      e.args[0] = fe.entity;
      log.push(e);
    }
  }
  for (const obs::TraceBuffer& b : shards) log.absorb(b);
  log.finalize();
}

/// The metrics snapshot of a finished run: an export of its NetworkStats.
obs::MetricsSnapshot export_metrics(const NetworkStats& s,
                                    std::uint64_t trace_events_dropped) {
  obs::MetricsSnapshot m;
  for (const Counter& c : kCounters) {
    if (c.metric != nullptr) m.append_counter(c.metric, s.*c.total);
  }
  // Bucket b is LatencyHistogram bin b; the last bin is open-ended, so it
  // is the +Inf bucket.
  const LatencyHistogram& lat = s.query_latency;
  std::vector<double> edges(LatencyHistogram::kBins - 1);
  for (std::size_t b = 0; b < edges.size(); ++b) {
    edges[b] = LatencyHistogram::bin_upper_us(b);
  }
  m.append_histogram("itb.sim.poll_latency_us", std::move(edges),
                     {lat.counts.begin(), lat.counts.end()}, lat.sum_us);
  m.append_counter("itb.trace.events_dropped", trace_events_dropped);
  m.append_gauge("itb.sim.elapsed_us", s.elapsed_us);
  m.append_gauge("itb.sim.goodput_kbps", s.aggregate_goodput_kbps);
  m.append_gauge("itb.sim.delivery_ratio", s.delivery_ratio);
  return m;
}

}  // namespace

/// One shard's share of the run's ledger, merged in shard order: its
/// counter totals and histograms, and its floating-point sums.
struct NetworkCoordinator::ShardResult {
  NetworkStats stats;
  Sums sums;
};

Real link_per(mac::LinkWaveform w, Real snr_db, std::size_t bytes) {
  return mac::is_wifi(w)
             ? itb::channel::per_80211b(mac::waveform_rate(w), snr_db, bytes)
             : itb::channel::per_802154(snr_db, bytes);
}

std::vector<TagLink> build_links(const NetworkConfig& cfg,
                                 const Placement& placement) {
  const std::size_t n = placement.tags.size();
  const std::size_t num_groups = cfg.wifi_channels.size();
  std::vector<TagLink> links(n);
  // Nearest helper/AP come from spatial-hash grids (bit-identical to the
  // brute-force scans, including index-order tie-breaks), and the
  // impairment preset — a function of the group's carrier only — is
  // resolved once per Wi-Fi channel instead of once per tag.
  itb::channel::LogDistanceModel pl;
  pl.exponent = cfg.pathloss_exponent;
  const SpatialHashGrid helper_grid(placement.helpers);
  const SpatialHashGrid ap_grid(placement.aps);
  std::vector<std::optional<itb::channel::ImpairmentConfig>> group_preset(
      num_groups);
  if (cfg.impairment_preset != itb::channel::ImpairmentPreset::kNone) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      group_preset[g] = itb::channel::make_impairment_preset(
          cfg.impairment_preset, 11e6,
          itb::ble::wifi_channel_hz(cfg.wifi_channels[g]));
    }
  }
  // Radio impairments degrade every reply before the PER mapping. The
  // preset is resolved at the group's carrier; 1 us DSSS symbols set the
  // timescale for CFO/phase-noise/delay-spread error accumulation.
  const auto impair = [&](Real snr_db, std::size_t g) {
    if (!group_preset[g]) return snr_db;
    return itb::channel::impaired_snr_db(*group_preset[g], snr_db, 1e6);
  };
  // Downlink: the AP's OFDM-AM query must clear the tag's peak detector
  // after the tissue loss; below sensitivity the tag never hears it.
  const auto downlink_miss = [&](Real ap_distance_m) {
    const Real rssi = itb::channel::direct_rssi_dbm(kApTxPowerDbm, 2.0,
                                                    2.0, pl, ap_distance_m) -
                      cfg.tag_medium_loss_db;
    return rssi < cfg.detector_sensitivity_dbm
               ? Real{1.0}
               : cfg.polling.downlink_error_rate;
  };
  for_each_tag(n, cfg.num_threads, [&](std::size_t t) {
    TagLink& link = links[t];
    const std::size_t g = t % num_groups;  // the FDMA map (group_tag)
    const Vec2& p = placement.tags[t];
    // The pathloss model diverges as d -> 0; a tag is never closer than a
    // few cm to either radio.
    const auto clamped_m = [&](const Vec2& node) {
      return std::max(distance_m(node, p), Real{0.05});
    };
    link.helper = static_cast<std::uint32_t>(helper_grid.nearest(p));
    const std::size_t ap = ap_grid.nearest(p);
    link.helper_distance_m = clamped_m(placement.helpers[link.helper]);
    link.ap_distance_m = clamped_m(placement.aps[ap]);

    itb::channel::BackscatterLinkConfig budget;
    budget.ble_tx_power_dbm = cfg.ble_tx_power_dbm;
    budget.ble_tag_distance_m = link.helper_distance_m;
    budget.tag_medium_loss_db = cfg.tag_medium_loss_db;
    budget.rx_noise_figure_db = cfg.rx_noise_figure_db;
    budget.pathloss.exponent = cfg.pathloss_exponent;
    // Fills one AP end of the link (budget, impairments, downlink) and
    // returns the budget sample.
    const auto serve = [&](std::size_t ap_index, Real distance_m,
                           ApLink& end) {
      const itb::channel::LinkSample s =
          itb::channel::backscatter_rssi(budget, distance_m);
      end.ap = static_cast<std::uint32_t>(ap_index);
      end.snr_db = s.link_down ? s.snr_db : impair(s.snr_db, g);
      end.downlink_miss_prob = downlink_miss(distance_m);
      return s;
    };
    const itb::channel::LinkSample s =
        serve(ap, link.ap_distance_m, link.primary);
    link.reply_rssi_dbm = s.rssi_dbm;
    link.link_down = s.link_down;

    // Failover target: next-nearest AP, with its own precomputed budget.
    // Reassigning to a different Wi-Fi channel would rewrite the TDMA
    // schedule mid-run, so failover keeps the tag's FDMA group and only
    // swaps which AP transmits/receives.
    if (cfg.ap_failover && placement.aps.size() > 1) {
      std::size_t fo = ap_grid.nearest(p, ap);
      const Real best = clamped_m(placement.aps[fo]);
      // The historical scan compared *clamped* distances, which ties every
      // AP inside the 5 cm floor and resolves to the lowest index. The
      // grid compares raw distances, so in that (vanishingly rare) regime
      // take the lowest-index AP within the floor to stay bit-identical.
      // The grid's pick qualifies, so the scan stops there at the latest.
      if (best <= Real{0.05}) {
        fo = 0;
        while (fo == ap || distance_m(placement.aps[fo], p) > Real{0.05}) {
          ++fo;
        }
      }
      link.has_failover = !serve(fo, best, link.failover).link_down;
    }
  });
  return links;
}

std::vector<GroupLoad> group_load(const NetworkConfig& cfg,
                                  const std::vector<TagLink>& links) {
  const std::size_t num_groups = cfg.wifi_channels.size();
  const double slot_us = mac::poll_slot_us(cfg.polling);
  const double frame_us =
      itb::wifi::frame_airtime_us(cfg.rate, cfg.payload_bytes);
  const mac::ReservationOutcome base =
      reservation_at(cfg, cfg.ambient_busy_probability);
  std::vector<GroupLoad> load(num_groups);
  // Each task sums its own group in ascending tag order, the order of the
  // serial loop it replaced, so the thread count never changes a bit.
  itb::core::parallel_for(num_groups, cfg.num_threads, [&](std::size_t g) {
    const std::size_t size = group_size(links.size(), num_groups, g);
    if (size == 0) return;
    Real watts = 0.0;
    Real transmit_prob = 0.0;
    for (std::size_t s = 0; s < size; ++s) {
      const TagLink& link = links[group_tag(num_groups, g, s)];
      watts += itb::dsp::dbm_to_watts(link.reply_rssi_dbm);
      transmit_prob +=
          (1.0 - link.primary.downlink_miss_prob) *
          (base.p_clean + base.p_collision);
    }
    const auto sz = static_cast<Real>(size);
    load[g].mean_reply_watts = watts / sz;
    // TDMA serializes the group: at most one reply is on the air, for
    // frame_us of every slot_us, whenever the polled tag transmits.
    load[g].occupancy = frame_us / slot_us * (transmit_prob / sz);
  });
  return load;
}

std::vector<ChannelStats> plan_channels(const NetworkConfig& cfg,
                                        std::size_t num_tags,
                                        const std::vector<GroupLoad>& load) {
  // Group a's replies sit at f_a = ble + shift_a; the imperfect single
  // sideband leaves a mirror at ble - shift_a = 2*ble - f_a, suppressed by
  // ssb_sideband_suppression_db. Where the mirror overlaps victim group v's
  // 22 MHz channel, the victim's noise floor rises in proportion to the
  // aggressor's airtime occupancy.
  const std::size_t num_groups = cfg.wifi_channels.size();
  const double slot_us = mac::poll_slot_us(cfg.polling);
  const Real ble_hz = itb::ble::ChannelMap::frequency_hz(cfg.ble_channel);
  const Real noise_watts = itb::dsp::dbm_to_watts(
      itb::channel::thermal_noise_dbm(22e6, cfg.rx_noise_figure_db));
  std::vector<ChannelStats> channels(num_groups);
  for (std::size_t v = 0; v < num_groups; ++v) {
    ChannelStats& ch = channels[v];
    ch.wifi_channel = cfg.wifi_channels[v];
    ch.tags = group_size(num_tags, num_groups, v);
    ch.occupancy = load[v].occupancy;
    ch.elapsed_us = static_cast<double>(cfg.rounds) *
                    static_cast<double>(ch.tags) * slot_us;

    const Real f_v = itb::ble::wifi_channel_hz(cfg.wifi_channels[v]);
    Real interference_watts = 0.0;
    Real busy = cfg.ambient_busy_probability;
    for (std::size_t a = 0; a < num_groups; ++a) {
      if (a == v || group_size(num_tags, num_groups, a) == 0) continue;
      const Real f_a = itb::ble::wifi_channel_hz(cfg.wifi_channels[a]);
      const Real mirror_hz = 2.0 * ble_hz - f_a;
      const Real overlap =
          std::max(Real{0.0}, 1.0 - std::abs(mirror_hz - f_v) / 22e6);
      if (overlap <= 0.0) continue;
      const Real leak_watts =
          load[a].mean_reply_watts *
          itb::dsp::db_to_ratio(-cfg.ssb_sideband_suppression_db) * overlap;
      interference_watts += load[a].occupancy * leak_watts;
      // Strong leakage can additionally trip the victim's CCA.
      if (itb::dsp::watts_to_dbm(leak_watts) > kCcaThresholdDbm) {
        busy += load[a].occupancy * overlap;
      }
    }
    ch.leakage_noise_rise_db =
        itb::dsp::ratio_to_db(1.0 + interference_watts / noise_watts);
    ch.busy_probability = std::min(busy, Real{0.99});
  }
  return channels;
}

std::vector<TagLink> tag_pers(const NetworkConfig& cfg, std::size_t wire_bytes,
                              const std::vector<ChannelStats>& channels,
                              std::vector<TagLink> links) {
  const std::size_t num_groups = channels.size();
  const mac::LinkWaveform initial = mac::waveform_for_rate(cfg.rate);
  const auto first = static_cast<std::size_t>(initial);
  const auto last =
      static_cast<std::size_t>(mac::lowest_reachable(cfg.fallback, initial));
  for_each_tag(links.size(), cfg.num_threads, [&](std::size_t t) {
    TagLink& link = links[t];
    const Real rise = channels[t % num_groups].leakage_noise_rise_db;
    for (ApLink* end : {&link.primary, &link.failover}) {
      end->waveform_per.fill(1.0);
      if (end == &link.failover && !link.has_failover) continue;
      for (std::size_t w = first; w <= last; ++w) {
        end->waveform_per[w] = link_per(static_cast<mac::LinkWaveform>(w),
                                        end->snr_db - rise, wire_bytes);
      }
    }
    // reply_per is the initial rung at the bare payload size: without ARQ
    // framing that is the entry just computed.
    link.reply_per =
        wire_bytes == cfg.payload_bytes
            ? link.primary.waveform_per[first]
            : link_per(initial, link.primary.snr_db - rise, cfg.payload_bytes);
  });
  return links;
}

NetworkCoordinator::NetworkCoordinator(const NetworkConfig& cfg) : cfg_(cfg) {
  static const std::size_t kZoneBuild = obs::prof_zone("sim.topology_build");
  const obs::ProfZone prof_build(kZoneBuild);
  if (cfg_.wifi_channels.empty()) {
    throw std::invalid_argument("NetworkConfig: no Wi-Fi channels");
  }
  for (const unsigned ch : cfg_.wifi_channels) {
    if (!itb::ble::is_wifi_channel(ch)) {
      throw std::invalid_argument("NetworkConfig: Wi-Fi channel " +
                                  std::to_string(ch) + " is not in 1..13");
    }
  }
  if (cfg_.ble_channel >= itb::ble::ChannelMap::kNumChannels) {
    throw std::invalid_argument("NetworkConfig: BLE channel " +
                                std::to_string(cfg_.ble_channel) +
                                " is not in 0..39");
  }
  if (cfg_.shard_tags == 0) cfg_.shard_tags = 256;
  cfg_.polling = cfg_.polling.validated();
  cfg_.arq = cfg_.arq.validated();
  cfg_.fallback = cfg_.fallback.validated();
  placement_ = generate_topology(cfg_.topology);
  const std::size_t n = placement_.tags.size();
  if (n > 0 && (placement_.helpers.empty() || placement_.aps.empty())) {
    throw std::invalid_argument(
        "NetworkConfig: tags present but no helpers or no APs");
  }

  // Effective wire size of one attempt: with ARQ every fragment carries the
  // mac/arq framing (header + CRC) on top of its payload share.
  wire_bytes_ = cfg_.payload_bytes;
  if (cfg_.enable_arq) {
    fragments_ =
        mac::fragment_count(cfg_.payload_bytes, cfg_.arq.fragment_bytes);
    if (cfg_.arq.fragment_bytes > 0) {
      wire_bytes_ = std::min(cfg_.arq.fragment_bytes,
                             std::max<std::size_t>(cfg_.payload_bytes, 1));
    }
    wire_bytes_ += mac::kFragmentOverheadBytes;
  }
  timeline_ = FaultTimeline(cfg_.faults, placement_.aps.size(),
                            cfg_.wifi_channels, n);

  links_ = build_links(cfg_, placement_);
  channels_ = plan_channels(cfg_, n, group_load(cfg_, links_));
  links_ = tag_pers(cfg_, wire_bytes_, channels_, std::move(links_));
}

RunPlan NetworkCoordinator::plan() const {
  RunPlan p;
  p.slot_us = mac::poll_slot_us(cfg_.polling);
  p.query_us = static_cast<double>(mac::QueryFrame::kBits) /
               cfg_.polling.downlink_kbps * 1e3;
  p.delivered_bits = static_cast<double>(cfg_.payload_bytes) * 8.0 /
                     static_cast<double>(fragments_);
  for (std::size_t w = 0; w < mac::kNumLinkWaveforms; ++w) {
    p.attempt_airtime_us[w] = mac::waveform_airtime_us(
        static_cast<mac::LinkWaveform>(w), wire_bytes_);
  }
  // Attempt energy follows the IC model at the group's SSB shift (it sets
  // the synthesizer power). uW * us = pJ, stored as nJ.
  const Real ble_hz = itb::ble::ChannelMap::frequency_hz(cfg_.ble_channel);
  p.groups.resize(channels_.size());
  for (std::size_t g = 0; g < channels_.size(); ++g) {
    RunPlan::Group& grp = p.groups[g];
    const std::size_t tags = channels_[g].tags;
    grp.reservation = reservation_at(cfg_, channels_[g].busy_probability);
    grp.round_us = static_cast<double>(tags) * p.slot_us;
    grp.control_amortized_us =
        grp.reservation.data_slots_per_event > 0.0
            ? grp.reservation.control_overhead_us /
                  grp.reservation.data_slots_per_event
            : 0.0;
    grp.shift_hz =
        std::abs(itb::ble::wifi_channel_hz(cfg_.wifi_channels[g]) - ble_hz);
    for (std::size_t w = 0; w < mac::kNumLinkWaveforms; ++w) {
      const auto wf = static_cast<mac::LinkWaveform>(w);
      grp.attempt_energy_nj[w] =
          itb::backscatter::active_power(mac::waveform_rate(wf), grp.shift_hz)
              .total_uw() *
          p.attempt_airtime_us[w] * 1e-3;
    }
    for (std::size_t b = 0; b < tags; b += cfg_.shard_tags) {
      p.shards.push_back({g, b, std::min(b + cfg_.shard_tags, tags)});
    }
  }
  return p;
}

NetworkStats NetworkCoordinator::run(obs::RunCapture* capture) const {
  static const std::size_t kZoneRun = obs::prof_zone("sim.run");
  const obs::ProfZone prof_run(kZoneRun);
  const RunPlan plan = this->plan();

  // Per-tag records exist only when the caller keeps them; streaming runs
  // never allocate the O(tags) array.
  std::vector<TagStats> per_tag(cfg_.keep_per_tag ? placement_.tags.size()
                                                  : 0);
  std::vector<ShardResult> shards(plan.shards.size());
  std::vector<obs::TraceBuffer> traces;
  if (capture != nullptr && capture->collect_trace) {
    traces.reserve(plan.shards.size());
    for (std::size_t si = 0; si < plan.shards.size(); ++si) {
      traces.emplace_back(capture->trace_events_per_shard);
    }
  }

  itb::core::parallel_for(
      plan.shards.size(), cfg_.num_threads, [&](std::size_t si) {
        static const std::size_t kZoneLoop = obs::prof_zone("sim.event_loop");
        const obs::ProfZone prof_loop(kZoneLoop);
        run_shard(plan, si, shards[si],
                  traces.empty() ? nullptr : &traces[si], per_tag);
      });

  static const std::size_t kZoneMerge = obs::prof_zone("sim.merge");
  const obs::ProfZone prof_merge(kZoneMerge);
  NetworkStats out = reduce(plan, shards, std::move(per_tag));
  if (capture != nullptr) {
    if (capture->collect_trace) {
      export_trace(cfg_, plan, traces, capture->trace);
    }
    capture->metrics = export_metrics(out, capture->trace.dropped());
  }
  return out;
}

void NetworkCoordinator::run_shard(const RunPlan& plan, std::size_t si,
                                   ShardResult& res, obs::TraceBuffer* trace,
                                   std::vector<TagStats>& per_tag) const {
  const RunPlan::Shard& sh = plan.shards[si];
  const std::size_t g = sh.group;
  const RunPlan::Group& grp = plan.groups[g];
  const ChannelStats& ch = channels_[g];
  const ShardTracer tracer{trace, static_cast<std::uint32_t>(g + 1),
                           static_cast<std::uint32_t>(si + 1),
                           &plan.attempt_airtime_us};
  const PollResolver resolver{cfg_.enable_arq, cfg_.arq, fragments_};

  // Shard-local, slot-indexed: the hot loop's writes stay dense instead of
  // group-strided across the fleet.
  std::vector<TagStats> local(sh.end - sh.begin);
  std::vector<TagState> state(sh.end - sh.begin);
  for (TagState& st : state) {
    st.fallback = mac::RateFallbackController(
        cfg_.fallback, mac::waveform_for_rate(cfg_.rate));
  }
  // Generation time of each tag's pending payload: latency runs from here
  // to delivery, and a failed poll retries the same payload next round.
  std::vector<double> pending_since(sh.end - sh.begin, 0.0);

  // The static TDMA schedule, in time order: tag at slot s, round r is
  // queried at r*round + s*slot on its group's timeline and replies
  // query + adv/2 later. PollingConfig::validated() keeps adv > 0, so the
  // reply delay is shorter than a slot: every reply lands before the
  // shard's next query and is handled right after its own.
  for (std::uint64_t r = 0; r < cfg_.rounds; ++r) {
    for (std::size_t s = sh.begin; s < sh.end; ++s) {
      const std::uint32_t tag = group_tag(channels_.size(), g, s);
      const std::size_t i = s - sh.begin;
      TagStats& ts = local[i];
      TagState& st = state[i];
      const TagLink& link = links_[tag];
      const mac::LinkWaveform wf = st.fallback.current();
      const auto wi = static_cast<std::size_t>(wf);
      double t_us = static_cast<double>(r) * grp.round_us +
                    static_cast<double>(s) * plan.slot_us;

      // Skipped polls make no RNG draws; every (tag, round, phase)
      // substream stays independent of the gates, so the digest contract
      // holds.
      const PollStart start =
          resolver.start(ts, st, gates_at(link, timeline_, tag, t_us), t_us);
      const ApLink& via = start.failover ? link.failover : link.primary;
      if (start.skipped) {
        tracer.poll(t_us, tag, r, *start.skipped, wf, via.ap, false);
        continue;
      }
      PollOutcome out = PollOutcome::kDelivered;
      auto query_rng =
          entity_stream(cfg_.seed, tag, phase_counter(r, kQueryPhase));
      if (query_rng.uniform() < via.downlink_miss_prob) {
        out = PollOutcome::kDownlinkMiss;
      } else {
        // The addressed tag replies mid-way through the advertising window
        // that follows the query: reservation outcome, then budget-level
        // decode.
        t_us = t_us + plan.query_us +
               0.5 * cfg_.polling.advertising_interval_ms * 1e3;
        auto reply_rng =
            entity_stream(cfg_.seed, tag, phase_counter(r, kReplyPhase));
        ts.airtime_us += grp.control_amortized_us;
        // Interference bursts raise the CCA busy probability; the
        // reservation closed form is cheap enough to re-solve live for the
        // affected slots.
        const Real busy_boost = timeline_.channel_busy_boost(g, t_us);
        const Real busy = std::min(ch.busy_probability + busy_boost, 0.99);
        const mac::ReservationOutcome oc =
            busy_boost > 0.0 ? reservation_at(cfg_, busy) : grp.reservation;
        const double u = reply_rng.uniform();
        if (u >= oc.p_clean + oc.p_collision) {
          out = PollOutcome::kReservationDenied;  // silent: not granted
        } else {
          ts.airtime_us += plan.attempt_airtime_us[wi];
          ts.tx_energy_nj += grp.attempt_energy_nj[wi];
          if (u >= oc.p_clean) {
            out = PollOutcome::kCollision;
          } else {
            // Active noise-floor faults (bursts, slumps) force the PER back
            // through the closed form at the degraded SNR; clean slots use
            // the precomputed per-rung table.
            Real per = via.waveform_per[wi];
            const Real rise = timeline_.channel_noise_rise_db(g, t_us);
            if (rise > 0.0) {
              per = link_per(wf, via.snr_db - ch.leakage_noise_rise_db - rise,
                             wire_bytes_);
            }
            if (reply_rng.uniform() < per) out = PollOutcome::kDecodeFailure;
          }
        }
      }

      double done_us = t_us;
      if (out == PollOutcome::kDelivered) {
        ts.payload_bits += plan.delivered_bits;
        done_us += plan.attempt_airtime_us[wi];
        res.stats.query_latency.record(done_us - pending_since[i]);
        pending_since[i] = static_cast<double>(r + 1) * grp.round_us;
      }
      tracer.poll(t_us, tag, r, out, wf, via.ap, resolver.retransmission(st));
      const AttemptEnd end = resolver.finish(ts, st, out, done_us);
      if (end.delivered_after > 0) {
        res.stats.retry_histogram.record(end.delivered_after);
      }
      if (end.recovered_after_us) {
        res.stats.recovery_time.record(*end.recovered_after_us);
      }
      if (st.fallback.current() != wf) {
        tracer.rate_shift(done_us, out == PollOutcome::kDelivered,
                          st.fallback.current());
      }
    }
  }

  fold_shard(plan, si, state, local, res, per_tag);
}

void NetworkCoordinator::fold_shard(const RunPlan& plan, std::size_t si,
                                    const std::vector<TagState>& state,
                                    std::vector<TagStats>& local,
                                    ShardResult& res,
                                    std::vector<TagStats>& per_tag) const {
  const RunPlan::Shard& sh = plan.shards[si];
  const ChannelStats& ch = channels_[sh.group];
  // The helper advertises every interval for the whole timeline and
  // illuminates all its tags — not just the one being polled — so harvest
  // time is independent of fleet size; the AP's queries add the tag's own
  // downlink illumination on top. Each event repeats one advertising
  // packet on the three advertising channels.
  const double adv_events =
      ch.elapsed_us / (cfg_.polling.advertising_interval_ms * 1e3);
  for (std::size_t i = 0; i < local.size(); ++i) {
    const std::uint32_t tag =
        group_tag(channels_.size(), sh.group, sh.begin + i);
    const TagLink& link = links_[tag];
    TagStats& ts = local[i];
    ts.tag_id = tag;
    ts.wifi_channel = ch.wifi_channel;
    ts.helper = link.helper;
    ts.ap = link.primary.ap;
    ts.snr_db = link.primary.snr_db - ch.leakage_noise_rise_db;
    ts.reply_per = link.reply_per;
    ts.rate_downshifts = state[i].fallback.downshifts();
    ts.rate_upshifts = state[i].fallback.upshifts();
    ts.harvest_us = adv_events * 3.0 * itb::ble::kAdvPacketUs +
                    static_cast<double>(ts.queries) * plan.query_us;
    for (const Counter& c : kCounters) res.stats.*c.total += ts.*c.tag;
    res.sums.add(ts, ch.elapsed_us, plan.groups[sh.group].shift_hz, cfg_.rate);
    if (cfg_.keep_per_tag) per_tag[tag] = ts;
  }
}

NetworkStats NetworkCoordinator::reduce(const RunPlan& plan,
                                        const std::vector<ShardResult>& shards,
                                        std::vector<TagStats> per_tag) const {
  NetworkStats out;
  out.num_tags = placement_.tags.size();
  out.num_channels = channels_.size();
  out.channels = channels_;  // plan-time fields; replies/collisions are 0
  for (const ChannelStats& ch : channels_) {
    out.elapsed_us = std::max(out.elapsed_us, ch.elapsed_us);
  }

  // Sequential and index-ordered, so thread-count invariant. Streaming
  // merges the shards' own sums; keep_per_tag folds every tag into one
  // running Sums instead, in the same group-major slot order.
  Sums sums;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    const NetworkStats& part = shards[si].stats;
    for (const Counter& c : kCounters) out.*c.total += part.*c.total;
    out.query_latency.merge(part.query_latency);
    out.recovery_time.merge(part.recovery_time);
    out.retry_histogram.merge(part.retry_histogram);
    ChannelStats& ch = out.channels[plan.shards[si].group];
    ch.replies += part.replies_received;
    ch.collisions += part.collisions;
    if (!cfg_.keep_per_tag) sums.merge(shards[si].sums);
  }
  if (cfg_.keep_per_tag) {
    for (const RunPlan::Shard& sh : plan.shards) {
      for (std::size_t s = sh.begin; s < sh.end; ++s) {
        sums.add(per_tag[group_tag(channels_.size(), sh.group, s)],
                 channels_[sh.group].elapsed_us,
                 plan.groups[sh.group].shift_hz, cfg_.rate);
      }
    }
  }

  out.aggregate_goodput_kbps =
      mac::safe_goodput_kbps(sums.payload_bits, out.elapsed_us);
  const std::uint64_t completed = out.messages_delivered + out.messages_dropped;
  if (completed > 0) {
    out.delivery_ratio = static_cast<double>(out.messages_delivered) /
                         static_cast<double>(completed);
  }
  if (sums.payload_bits > 0.0) {
    out.energy_per_delivered_byte_nj =
        sums.tx_energy_nj / (sums.payload_bits / 8.0);
  }
  if (out.num_tags > 0) {
    const auto dn = static_cast<double>(out.num_tags);
    out.mean_tag_goodput_kbps = sums.tag_goodput_kbps / dn;
    out.mean_airtime_duty = sums.airtime_duty / dn;
    out.mean_harvest_duty = sums.harvest_duty / dn;
    out.mean_tag_power_uw = sums.power_uw / dn;
  }
  out.per_tag = std::move(per_tag);
  return out;
}

std::vector<SpotCheckResult> NetworkCoordinator::spot_check_waveform(
    std::size_t links) const {
  std::vector<SpotCheckResult> out;
  const std::size_t n = placement_.tags.size();
  if (n == 0 || links == 0) return out;
  links = std::min(links, n);

  // Sample round-robin across the FDMA groups (then strided within each
  // group) so the cross-check always exercises every Wi-Fi channel's SSB
  // shift; a plain stride over tag ids would alias with the round-robin
  // channel assignment and could sample a single channel.
  const std::size_t num_groups = channels_.size();
  const std::size_t per_group = (links + num_groups - 1) / num_groups;
  for (std::size_t i = 0; i < links; ++i) {
    const std::size_t g = i % num_groups;
    const std::size_t size = channels_[g].tags;
    if (size == 0) continue;
    const std::size_t inner_stride = std::max<std::size_t>(1, size / per_group);
    const std::size_t j = std::min((i / num_groups) * inner_stride, size - 1);
    const std::size_t t = group_tag(num_groups, g, j);
    const TagLink& link = links_[t];

    itb::core::UplinkScenario s;
    s.ble_tag_distance_m = link.helper_distance_m;
    s.tag_rx_distance_m = link.ap_distance_m;
    s.ble_tx_power_dbm = cfg_.ble_tx_power_dbm;
    s.ble_channel = cfg_.ble_channel;
    s.wifi_channel = channels_[g].wifi_channel;
    s.rate = cfg_.rate;
    s.tag_medium_loss_db = cfg_.tag_medium_loss_db;
    s.pathloss_exponent = cfg_.pathloss_exponent;
    s.rx_noise_figure_db = cfg_.rx_noise_figure_db;
    s.impairment_preset = cfg_.impairment_preset;
    s.seed = itb::core::trial_seed(cfg_.seed, t, 0xC0FFEE);

    const itb::core::InterscatterSystem sys(s);
    itb::phy::Bytes psdu(cfg_.payload_bytes);
    for (std::size_t b = 0; b < psdu.size(); ++b) {
      psdu[b] = static_cast<std::uint8_t>(b * 31 + 7 + t);
    }
    const auto wf = sys.simulate_frame(psdu);
    // Compare against the budget PER at the raw link SNR: the waveform path
    // has no cross-channel aggressors, so leakage is excluded on both sides.
    const double per = link_per(mac::waveform_for_rate(cfg_.rate),
                                link.primary.snr_db, cfg_.payload_bytes);

    SpotCheckResult r;
    r.budget_per = per;
    r.waveform_decoded = wf.payload_ok;
    // Between the two the coin-flip region accepts either outcome.
    r.consistent =
        (per >= 0.1 || wf.payload_ok) && (per <= 0.9 || !wf.payload_ok);
    out.push_back(r);
  }
  return out;
}

}  // namespace itb::sim
