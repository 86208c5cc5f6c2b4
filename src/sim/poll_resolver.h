// PollResolver: what one TDMA poll does to its tag. At query time the fault
// and policy gates decide whether the poll is a live attempt; once the
// attempt resolves, ARQ, the rate-fallback ladder and disruption tracking
// advance. The resolver holds only configuration and touches only the
// tag's own TagStats/TagState: no RNG, no cross-tag state, so the shard
// event loop can call it in any interleaving across tags (DESIGN.md "Fault
// model and recovery determinism").
#pragma once

#include <cstddef>
#include <optional>

#include "mac/arq.h"
#include "sim/stats.h"

namespace itb::sim {

/// One tag's ARQ + fallback + disruption progress, owned by its shard.
struct TagState {
  bool in_flight = false;         ///< a message is being delivered
  std::size_t frag = 0;           ///< next fragment index to deliver
  std::size_t frag_attempts = 0;  ///< attempts spent on the current fragment
  std::size_t msg_attempts = 0;   ///< attempts spent on the whole message
  std::size_t retx_used = 0;      ///< retransmissions charged to the budget
  std::size_t fail_streak = 0;    ///< consecutive failed attempts (backoff)
  std::size_t backoff_remaining = 0;  ///< slots left to idle before retrying
  mac::RateFallbackController fallback{};
  bool disrupted = false;  ///< inside a not-yet-recovered outage/fade
  double disrupted_since_us = 0.0;
};

/// What the link budget and the fault timeline say about one poll at
/// query time.
struct PollGates {
  bool link_down = false;    ///< budget declared the link dead
  bool ap_down = false;      ///< the tag's primary AP is in an outage
  bool failover_up = false;  ///< a live failover AP can serve instead
  bool browned_out = false;  ///< the tag is unpowered
};

/// How the query phase resolved.
struct PollStart {
  /// Set when a gate skipped the poll: no attempt, no RNG draws.
  std::optional<PollOutcome> skipped;
  bool failover = false;  ///< the failover AP serves (or would serve) it
};

/// What a resolved attempt completed, for the shard's histograms.
struct AttemptEnd {
  /// Attempts the message took, when this attempt delivered its last
  /// fragment; 0 otherwise.
  std::size_t delivered_after = 0;
  /// Length of the disruption window this delivery closed.
  std::optional<double> recovered_after_us;
};

struct PollResolver {
  bool enable_arq = false;
  mac::ArqConfig arq{};        ///< validated
  std::size_t fragments = 1;  ///< fragments per message (1 without ARQ)

  /// Query phase: counts the poll, applies the gates (link down, AP outage
  /// without a live failover, brownout, ARQ backoff, in that order) and,
  /// for a live poll, charges the attempt to the tag's message.
  PollStart start(TagStats& ts, TagState& st, const PollGates& gates,
                  double t_us) const;

  /// Whether the live attempt just started repeats a failed fragment.
  bool retransmission(const TagState& st) const {
    return enable_arq && st.frag_attempts > 1;
  }

  /// Counts the attempt's outcome and advances ARQ, fallback and
  /// disruption state. Only SNR-driven outcomes (collision, decode
  /// failure) move the fallback ladder down.
  AttemptEnd finish(TagStats& ts, TagState& st, PollOutcome out,
                    double t_us) const;
};

}  // namespace itb::sim
