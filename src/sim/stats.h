// Aggregate statistics emitted by the network simulator.
//
// Everything here is designed for order-independent accumulation: shards
// accumulate into disjoint per-tag slots during the parallel phase, and the
// final reduction walks tags in index order on one thread, so the merged
// NetworkStats is bit-identical at any thread count. digest() condenses the
// full result (including every per-tag counter and double bit pattern) into
// one FNV-1a hash, which the determinism tests compare across thread
// counts.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dsp/types.h"

namespace itb::sim {

using itb::dsp::Real;

/// Fixed-bin log-spaced latency histogram (50 us .. ~5000 s). Fixed edges
/// make quantiles a pure function of the counts, so they are deterministic
/// under any accumulation order.
struct LatencyHistogram {
  static constexpr std::size_t kBins = 64;
  /// Bin b spans [kFloorUs * kGrowth^b, kFloorUs * kGrowth^(b+1)).
  static constexpr double kFloorUs = 50.0;
  static constexpr double kGrowth = 1.333521432163324;  // 8 bins per decade

  std::array<std::uint64_t, kBins> counts{};
  std::uint64_t total = 0;
  double sum_us = 0.0;
  double max_us = 0.0;

  static std::size_t bin_for(double us);
  /// Upper edge of bin b (us).
  static double bin_upper_us(std::size_t b);

  void record(double us);
  void merge(const LatencyHistogram& other);
  /// Upper edge of the bin holding the q-quantile sample (q in [0, 1]);
  /// 0 when empty.
  double quantile_us(double q) const;
};

/// Attempts-per-delivered-message histogram. Bin b counts messages that
/// needed b+1 transmission attempts; the last bin absorbs the tail.
struct RetryHistogram {
  static constexpr std::size_t kBins = 9;  ///< 1..8 attempts, 9+ in the tail

  std::array<std::uint64_t, kBins> counts{};
  std::uint64_t total = 0;
  std::uint64_t sum_attempts = 0;

  void record(std::size_t attempts);
  void merge(const RetryHistogram& other);
  double mean_attempts() const;
};

/// How one TDMA poll slot resolved (outcome taxonomy; names the poll
/// trace events).
enum class PollOutcome : std::uint8_t {
  kDelivered = 0,         ///< fragment decoded at the AP
  kDownlinkMiss = 1,      ///< tag never heard the query
  kReservationDenied = 2, ///< tag stayed silent (reservation not granted)
  kCollision = 3,
  kDecodeFailure = 4,
  kBackoff = 5,           ///< tag idled the slot (ARQ exponential backoff)
  kBrownout = 6,          ///< harvest brownout: tag unpowered
  kApOutage = 7,          ///< AP down and no live failover target
  kLinkDown = 8,          ///< budget declared the link dead (channel::link)
};
const char* poll_outcome_name(PollOutcome o);

/// Per-tag accounting, written by exactly one shard (disjoint slots).
struct TagStats {
  std::uint32_t tag_id = 0;
  unsigned wifi_channel = 0;      ///< FDMA group the tag replies on
  std::uint32_t helper = 0;       ///< nearest BLE helper index
  std::uint32_t ap = 0;           ///< nearest same-channel AP index
  std::uint64_t queries = 0;      ///< polls addressed to this tag
  std::uint64_t replies = 0;      ///< successfully decoded replies
  std::uint64_t downlink_misses = 0;
  std::uint64_t reservation_denied = 0;  ///< stayed silent (RTS not granted)
  std::uint64_t collisions = 0;
  std::uint64_t decode_failures = 0;
  double payload_bits = 0.0;
  double airtime_us = 0.0;   ///< tag transmit airtime (data + control)
  double harvest_us = 0.0;   ///< time illuminated by helper/AP carriers
  double snr_db = 0.0;       ///< budget-level reply SNR (after leakage rise)
  double reply_per = 0.0;    ///< closed-form PER at that SNR
  // --- resilience (ARQ / faults / fallback) ---------------------------
  std::uint64_t messages_offered = 0;    ///< delivered + dropped + in flight
  std::uint64_t messages_delivered = 0;  ///< all fragments decoded
  std::uint64_t messages_dropped = 0;    ///< retry budget / attempts exhausted
  std::uint64_t retransmissions = 0;
  std::uint64_t backoff_skips = 0;   ///< slots idled by ARQ backoff
  std::uint64_t brownout_skips = 0;  ///< slots lost to harvest brownouts
  std::uint64_t outage_skips = 0;    ///< slots lost to AP outage (no failover)
  std::uint64_t link_down_polls = 0; ///< polls refused: budget declared link dead
  std::uint64_t failover_polls = 0;  ///< polls served by the backup AP
  std::uint64_t fallback_polls = 0;  ///< attempts below the configured rate
  std::uint64_t rate_downshifts = 0;
  std::uint64_t rate_upshifts = 0;
  double tx_energy_nj = 0.0;  ///< transmit energy over all attempts (IC model)
};

/// Per-Wi-Fi-channel (FDMA group) accounting.
struct ChannelStats {
  unsigned wifi_channel = 0;
  std::size_t tags = 0;
  double occupancy = 0.0;  ///< fraction of sim time replies occupy the air
  /// Noise-floor rise (dB) from other groups' SSB mirror leakage.
  double leakage_noise_rise_db = 0.0;
  double busy_probability = 0.0;  ///< ambient + leakage, used by reservation
  std::uint64_t replies = 0;
  std::uint64_t collisions = 0;
  double elapsed_us = 0.0;  ///< this group's TDMA timeline length
};

struct NetworkStats {
  std::size_t num_tags = 0;
  std::size_t num_channels = 0;
  double elapsed_us = 0.0;  ///< max over channel timelines
  std::uint64_t queries_sent = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t downlink_misses = 0;
  std::uint64_t reservation_denied = 0;
  std::uint64_t collisions = 0;
  std::uint64_t decode_failures = 0;
  double aggregate_goodput_kbps = 0.0;
  double mean_tag_goodput_kbps = 0.0;
  LatencyHistogram query_latency;
  /// Mean fraction of time a tag spends backscattering.
  double mean_airtime_duty = 0.0;
  /// Mean fraction of time a tag is illuminated by a carrier it can harvest.
  double mean_harvest_duty = 0.0;
  /// Mean tag power draw at its duty cycle (uW), via IcPowerModel.
  double mean_tag_power_uw = 0.0;
  // --- resilience -----------------------------------------------------
  std::uint64_t messages_offered = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t backoff_skips = 0;
  std::uint64_t brownout_skips = 0;
  std::uint64_t outage_skips = 0;
  std::uint64_t link_down_polls = 0;
  std::uint64_t failover_polls = 0;
  std::uint64_t fallback_polls = 0;
  /// delivered / (delivered + dropped): messages still in flight when the
  /// run ends are censored, not counted against the link layer. 1.0 when
  /// nothing completed.
  double delivery_ratio = 1.0;
  RetryHistogram retry_histogram;
  /// Time from a tag's first failed/skipped poll to its next successful
  /// delivery — how long disruptions (faults, deep fades) take to heal.
  LatencyHistogram recovery_time;
  /// Transmit energy per delivered payload byte, nJ (0 when nothing was
  /// delivered). Retries and fallback rungs pay real energy here.
  double energy_per_delivered_byte_nj = 0.0;
  std::vector<ChannelStats> channels;
  std::vector<TagStats> per_tag;  ///< empty when NetworkConfig::keep_per_tag off
  /// Fleet totals of the per-tag fallback ladder moves. Not mixed into
  /// digest(), whose pinned values predate them; per_tag carries them.
  std::uint64_t rate_downshifts = 0;
  std::uint64_t rate_upshifts = 0;

  /// FNV-1a hash over every field except the rate-shift totals (doubles
  /// by bit pattern, vectors in index order). Two runs are bit-identical
  /// iff their digests match.
  std::uint64_t digest() const;
};

}  // namespace itb::sim
