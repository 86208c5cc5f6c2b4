// NetworkCoordinator: composes the repo's per-link primitives into a
// network-level simulation of a fleet of interscatter implants (paper §2.5
// scaled up: the paper coordinates "multiple" tags; the roadmap wants
// thousands).
//
// Coordination model:
//   FDMA — tags are partitioned into groups, one per configured Wi-Fi
//     channel; each group's replies land on its own 802.11b channel (the
//     tag's SSB shift selects the channel, paper §2.3.2). Groups run
//     concurrent, independent TDMA timelines.
//   TDMA — inside a group, the AP round-robin polls its tags over the
//     OFDM-AM downlink (mac/query_reply slot arithmetic); the addressed
//     tag replies during the next advertising window.
//   Reservation — each reply's collision/silence outcome follows the
//     closed-form mac::reservation_outcome() for the configured scheme.
//   Cross-channel leakage — single-sideband backscatter suppresses, but
//     does not eliminate, the mirror sideband (paper Fig. 6/12). A group's
//     mirror lands at 2*f_ble - f_wifi; where that falls inside another
//     group's channel, the victim sees a deterministic noise-floor rise
//     proportional to the aggressor's airtime occupancy, degrading its
//     reply SNR and raising its busy probability.
//
// Resilience (ISSUE 6): the coordinator optionally layers
//   Faults — a compiled sim::FaultTimeline gates every poll: AP outages
//     orphan tags (or divert them to a precomputed failover AP),
//     interference bursts raise the victim channel's noise floor and CCA
//     busy probability, brownouts power tags off, SNR slumps degrade every
//     reply. Fault gating is slot-atomic: the AP/brownout state sampled at
//     query time holds for the whole poll.
//   ARQ — mac/arq selective-repeat: a message fragments into CRC-framed
//     pieces, each fragment retries up to max_attempts with capped
//     exponential backoff (idled TDMA slots), bounded by a per-message
//     retransmission budget. Without ARQ every poll is a one-shot message.
//   Fallback — a per-tag mac::RateFallbackController walks the DSSS ladder
//     (optionally into ZigBee) on consecutive decode failures/collisions
//     and probes back up on success; attempt airtime, PER, and IC energy
//     all follow the active rung.
//
// Build: the constructor validates the config, places the fleet, then runs
// four pure stages, declared below and each tested on its own:
//   1. build_links    — per-tag geometry, link budget, downlink, failover;
//   2. group_load     — per-group mean reply power and airtime occupancy;
//   3. plan_channels  — the channel plan, with cross-channel SSB leakage;
//   4. tag_pers       — per-tag PER from the links and the channel plan.
// The FDMA map is closed form: tag t sits in group t % G at TDMA slot t / G
// (group_size()/group_tag()), so no per-group id list is stored. Every
// closed-form PER the simulator uses goes through link_per(). Stage 4
// evaluates only the rungs a tag's mac::RateFallbackController can reach,
// [initial, mac::lowest_reachable()]; the rest hold 1.0 and are never read.
//
// Fidelity: every link outcome is drawn at *budget level* (channel/link.h
// closed forms), so 5000 tags simulate in seconds. spot_check_waveform()
// optionally re-simulates a deterministic sample of links through the full
// waveform pipeline (core::InterscatterSystem) and reports agreement — the
// network-level extension of the budget-vs-waveform cross-check in
// tests/full_loop_test.cpp.
//
// Determinism: see DESIGN.md "Network simulator determinism" and "Fault
// model and recovery determinism". Shards are a fixed partition of the tag
// list (independent of thread count), each shard walks its static TDMA
// schedule (a reply lands before the next query, so loop order is time
// order), every stochastic decision draws from an entity_stream()
// substream keyed by (tag, round), the fault timeline is immutable and
// queried as a pure function of (entity, time), ARQ/fallback state is a
// pure fold over one tag's own attempt outcomes, and the final reduction
// is a sequential index-ordered merge — so run() is bit-identical at any
// thread count (asserted in tests/sim_test.cpp and
// tests/resilience_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "channel/impairments.h"
#include "channel/link.h"
#include "mac/arq.h"
#include "mac/query_reply.h"
#include "mac/reservation.h"
#include "sim/faults.h"
#include "sim/poll_resolver.h"
#include "sim/stats.h"
#include "sim/topology.h"
#include "wifi/rates.h"

namespace itb::obs {
struct RunCapture;
class TraceBuffer;
}  // namespace itb::obs

namespace itb::sim {

struct NetworkConfig {
  TopologyConfig topology{};
  /// FDMA groups: one tag group per listed 2.4 GHz Wi-Fi channel.
  std::vector<unsigned> wifi_channels = {1, 6, 11};
  /// BLE advertising channel of the helpers driving the tags (the SSB shift
  /// for each group is wifi_channel_hz - ble_channel_hz).
  unsigned ble_channel = 38;
  itb::wifi::DsssRate rate = itb::wifi::DsssRate::k2Mbps;
  std::size_t payload_bytes = 30;
  /// TDMA polling rounds per group: each round polls every tag once.
  std::size_t rounds = 8;
  mac::PollingConfig polling{};
  mac::ReservationScheme reservation = mac::ReservationScheme::kDataAsRts;
  /// Ambient (non-backscatter) Wi-Fi load on every channel.
  Real ambient_busy_probability = 0.1;
  Real cts_detection_probability = 0.95;
  /// How much the tag's SSB suppresses the mirror sideband (paper measures
  /// ~20 dB; Fig. 6).
  Real ssb_sideband_suppression_db = 20.0;
  /// RF impairment preset applied to every link draw: each reply's SNR is
  /// degraded by the closed-form impairment penalty
  /// (channel::impaired_snr_db) before the PER mapping, so network-scale
  /// results inherit PHY-faithful degradation. spot_check_waveform() runs
  /// its sampled links through the same preset at waveform level.
  itb::channel::ImpairmentPreset impairment_preset =
      itb::channel::ImpairmentPreset::kNone;
  // --- link budget inputs (shared with channel/link.h) -----------------
  Real ble_tx_power_dbm = 10.0;
  Real pathloss_exponent = 2.2;
  Real rx_noise_figure_db = 6.0;
  Real tag_medium_loss_db = 3.0;  ///< implanted: one-way tissue loss
  /// Tag peak-detector sensitivity for the downlink (paper: -32 dBm).
  Real detector_sensitivity_dbm = -32.0;
  // --- resilience ------------------------------------------------------
  /// Injected fault events (empty = fault-free). Hand-built via the
  /// FaultSchedule builder or drawn with generate_fault_schedule().
  FaultSchedule faults{};
  /// Link-layer ARQ: fragmentation + selective-repeat retries. Off, every
  /// poll is a one-shot message (failed poll = dropped message).
  bool enable_arq = false;
  mac::ArqConfig arq{};
  /// Graceful-degradation ladder (enabled inside FallbackConfig).
  mac::FallbackConfig fallback{};
  /// Reassign tags of a downed AP to their precomputed next-nearest live
  /// AP instead of skipping their polls.
  bool ap_failover = false;
  // --- execution -------------------------------------------------------
  std::uint64_t seed = 1;
  /// Worker threads for the shard fan-out; 0 = all hardware threads.
  /// Never affects results, only wall time.
  std::size_t num_threads = 1;
  /// Tags per shard. Part of the *result identity* (fixed partition), so it
  /// is a config knob and never derived from num_threads.
  std::size_t shard_tags = 256;
  bool keep_per_tag = true;
};

/// One AP's end of a tag's link: who serves the tag and how well. A tag
/// keeps two, its nearest AP and the failover AP, filled by the same code.
struct ApLink {
  std::uint32_t ap = 0;
  Real snr_db = itb::channel::kLinkDownDb;  ///< before leakage noise rise
  Real downlink_miss_prob = 1.0;
  /// PER per fallback rung at the leakage-degraded SNR and the effective
  /// wire size (ARQ fragment framing included when enabled). Indexed by
  /// mac::LinkWaveform; [waveform_for_rate(cfg.rate)] is the rung polls
  /// start at. Rungs the fallback ladder cannot reach (outside
  /// [initial, mac::lowest_reachable()]) hold 1.0 and are never read.
  std::array<Real, mac::kNumLinkWaveforms> waveform_per{};
};

/// Precomputed per-tag link state (pure function of config + topology).
struct TagLink {
  std::uint32_t helper = 0;  ///< nearest BLE helper
  /// Budget declared the link dead (channel::backscatter_rssi guard):
  /// polls resolve to PollOutcome::kLinkDown without drawing.
  bool link_down = false;
  /// `failover` is live: cfg.ap_failover is on and its budget holds.
  bool has_failover = false;
  Real helper_distance_m = 0.0;
  Real ap_distance_m = 0.0;   ///< to the primary AP
  Real reply_rssi_dbm = 0.0;  ///< budget-level reply RSSI at the primary AP
  Real reply_per = 0.0;       ///< PER at the leakage-degraded SNR
  /// The nearest AP, which receives this group's replies.
  ApLink primary;
  /// The next-nearest AP, serving while the primary is down (same FDMA
  /// group, so the TDMA schedule never changes). Read only when
  /// has_failover; without one its PER table stays all 1.0.
  ApLink failover;
};

// --- FDMA group map ----------------------------------------------------------
// Groups are filled round-robin by tag id: tag t is in group t % G at TDMA
// slot t / G, which keeps every group's round the same length to within one
// tag. The per-tag build stages read a tag's group as t % G; everything that
// walks a group's slots goes through these two helpers.

/// Tags in group `g` of an `n`-tag fleet over `num_groups` groups.
inline std::size_t group_size(std::size_t n, std::size_t num_groups,
                              std::size_t g) {
  return n > g ? (n - g - 1) / num_groups + 1 : 0;
}
/// Tag id at TDMA slot `s` of group `g`.
inline std::uint32_t group_tag(std::size_t num_groups, std::size_t g,
                               std::size_t s) {
  return static_cast<std::uint32_t>(g + s * num_groups);
}

/// The simulator's one closed-form PER: `bytes` on the air at rung `w` and
/// `snr_db` (channel::per_80211b for the Wi-Fi rungs, per_802154 for
/// ZigBee).
Real link_per(mac::LinkWaveform w, Real snr_db, std::size_t bytes);

// --- build stages ------------------------------------------------------------
// Pure functions of their arguments. The per-tag stages fan out over fixed
// tag blocks and stage 2 over groups; cfg.num_threads changes wall time,
// never a bit. cfg is the coordinator's validated copy.

/// Stage 1: every tag's geometry, link budget, downlink miss probability
/// and failover target, indexed by tag id. The PER fields stay unset.
std::vector<TagLink> build_links(const NetworkConfig& cfg,
                                 const Placement& placement);

/// What one FDMA group puts on the air, as seen by the other groups.
struct GroupLoad {
  Real mean_reply_watts = 0.0;  ///< mean budget-level reply power at the AP
  Real occupancy = 0.0;  ///< fraction of the timeline a reply is on the air
};

/// Stage 2: the load of every group (zero for an empty group), one task
/// per group, each summing its tags in ascending id order.
std::vector<GroupLoad> group_load(const NetworkConfig& cfg,
                                  const std::vector<TagLink>& links);

/// Stage 3: the plan-time ChannelStats of every group — size, occupancy,
/// timeline length, and the noise-floor rise and busy probability that the
/// other groups' SSB mirror leakage causes.
std::vector<ChannelStats> plan_channels(const NetworkConfig& cfg,
                                        std::size_t num_tags,
                                        const std::vector<GroupLoad>& load);

/// Stage 4: `links` with reply_per and the reachable rungs of both
/// ApLinks' waveform_per filled in at the leakage-degraded SNR (a tag
/// without a live failover keeps an all-1.0 failover table). `wire_bytes`
/// is the size of one attempt on the air.
std::vector<TagLink> tag_pers(const NetworkConfig& cfg, std::size_t wire_bytes,
                              const std::vector<ChannelStats>& channels,
                              std::vector<TagLink> links);

/// Everything run() fixes before the shard fan-out: a pure function of the
/// coordinator's plan-time state (config, channel plan, FDMA groups), never
/// of num_threads.
struct RunPlan {
  struct Group {
    /// Reservation closed form at the group's busy probability.
    mac::ReservationOutcome reservation;
    double round_us = 0.0;  ///< one TDMA round: every tag polled once
    /// Reservation control airtime charged to each reply.
    double control_amortized_us = 0.0;
    Real shift_hz = 0.0;  ///< |SSB shift| from the BLE carrier
    /// IC transmit energy of one attempt per waveform rung (nJ).
    std::array<double, mac::kNumLinkWaveforms> attempt_energy_nj{};
  };
  /// A contiguous TDMA-slot range [begin, end) of one group.
  struct Shard {
    std::size_t group = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  double slot_us = 0.0;
  double query_us = 0.0;  ///< downlink query airtime
  /// Application bits one delivered attempt carries (a fragment's share
  /// with ARQ; the framing bytes are overhead, not goodput).
  double delivered_bits = 0.0;
  std::array<double, mac::kNumLinkWaveforms> attempt_airtime_us{};
  std::vector<Group> groups;  ///< per FDMA group
  /// Fixed partition, group-major: shard_tags slots per shard.
  std::vector<Shard> shards;
};

/// One sampled link re-run at waveform level next to its budget prediction.
struct SpotCheckResult {
  double budget_per = 0.0;
  bool waveform_decoded = false;
  /// Budget and waveform agree: a link the budget calls near-certain
  /// (PER < 0.1) decoded, one it calls near-dead (PER > 0.9) did not;
  /// in-between links are accepted either way.
  bool consistent = false;
};

class NetworkCoordinator {
 public:
  explicit NetworkCoordinator(const NetworkConfig& cfg);

  /// Runs the full FDMA x TDMA simulation. Bit-identical for a fixed config
  /// at any num_threads.
  ///
  /// `capture` (optional) attaches the obs layer: sim-time trace events,
  /// collected per shard and merged in shard-index order, and a metrics
  /// snapshot exported from the returned stats, so both inherit the stats'
  /// thread-count invariance (tests/obs_test.cpp). Null = no observation
  /// work beyond one branch per hook.
  NetworkStats run(obs::RunCapture* capture = nullptr) const;

  /// The plan run() executes.
  RunPlan plan() const;

  /// Re-simulates `links` deterministically-sampled tag links through the
  /// waveform pipeline (core::InterscatterSystem) and compares the decode
  /// outcome against the budget-level PER the network simulation used.
  std::vector<SpotCheckResult> spot_check_waveform(std::size_t links) const;

  // Introspection (tests, benches, examples).
  const NetworkConfig& config() const { return cfg_; }
  const Placement& placement() const { return placement_; }
  const std::vector<TagLink>& links() const { return links_; }
  const std::vector<ChannelStats>& channel_plan() const { return channels_; }
  /// Bytes each attempt puts on the air: payload_bytes plus the ARQ
  /// fragment framing when ARQ splits/frames the message.
  std::size_t wire_bytes() const { return wire_bytes_; }
  /// Fragments per message (1 without ARQ or fragmentation).
  std::size_t fragments_per_message() const { return fragments_; }

 private:
  struct ShardResult;  ///< one shard's share of the run's NetworkStats

  /// Runs shard `si`'s poll schedule into `res` (and its slots of
  /// `per_tag`, when kept).
  void run_shard(const RunPlan& plan, std::size_t si, ShardResult& res,
                 obs::TraceBuffer* trace, std::vector<TagStats>& per_tag) const;
  /// Completes the shard's per-tag stats and folds them into `res`.
  void fold_shard(const RunPlan& plan, std::size_t si,
                  const std::vector<TagState>& state,
                  std::vector<TagStats>& local, ShardResult& res,
                  std::vector<TagStats>& per_tag) const;
  /// Ordered merge of the shards (and per-tag stats, when kept).
  NetworkStats reduce(const RunPlan& plan,
                      const std::vector<ShardResult>& shards,
                      std::vector<TagStats> per_tag) const;

  NetworkConfig cfg_;
  Placement placement_;
  std::vector<TagLink> links_;          ///< indexed by tag id
  std::vector<ChannelStats> channels_;  ///< per FDMA group (plan-time fields)
  FaultTimeline timeline_;  ///< compiled faults; immutable during run()
  std::size_t wire_bytes_ = 0;
  std::size_t fragments_ = 1;
};

}  // namespace itb::sim
