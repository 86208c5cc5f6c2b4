#include "sim/poll_resolver.h"

namespace itb::sim {

namespace {

void count(TagStats& ts, PollOutcome out) {
  switch (out) {
    case PollOutcome::kDelivered: ++ts.replies; break;
    case PollOutcome::kDownlinkMiss: ++ts.downlink_misses; break;
    case PollOutcome::kReservationDenied: ++ts.reservation_denied; break;
    case PollOutcome::kCollision: ++ts.collisions; break;
    case PollOutcome::kDecodeFailure: ++ts.decode_failures; break;
    case PollOutcome::kBackoff: ++ts.backoff_skips; break;
    case PollOutcome::kBrownout: ++ts.brownout_skips; break;
    case PollOutcome::kApOutage: ++ts.outage_skips; break;
    case PollOutcome::kLinkDown: ++ts.link_down_polls; break;
  }
}

/// A skipped or failed poll opens a disruption window; the next delivered
/// attempt closes it and reports the recovery time.
void mark_disrupted(TagState& st, double t_us) {
  if (!st.disrupted) {
    st.disrupted = true;
    st.disrupted_since_us = t_us;
  }
}

}  // namespace

PollStart PollResolver::start(TagStats& ts, TagState& st,
                              const PollGates& gates, double t_us) const {
  ++ts.queries;
  PollStart p;
  p.failover = !gates.link_down && gates.ap_down && gates.failover_up;
  if (gates.link_down) {
    p.skipped = PollOutcome::kLinkDown;
  } else if (gates.ap_down && !gates.failover_up) {
    p.skipped = PollOutcome::kApOutage;
  } else if (gates.browned_out) {
    p.skipped = PollOutcome::kBrownout;
  } else if (st.backoff_remaining > 0) {
    --st.backoff_remaining;
    p.skipped = PollOutcome::kBackoff;
  }
  if (p.skipped) {
    count(ts, *p.skipped);
    // Backoff is the link layer's own choice, not a disruption.
    if (*p.skipped != PollOutcome::kBackoff) mark_disrupted(st, t_us);
    return p;
  }

  if (!st.in_flight) {
    st.in_flight = true;
    st.frag = 0;
    st.frag_attempts = 0;
    st.msg_attempts = 0;
    st.retx_used = 0;
    ++ts.messages_offered;
  }
  if (enable_arq && st.frag_attempts > 0) {
    ++ts.retransmissions;
    ++st.retx_used;
  }
  ++st.frag_attempts;
  ++st.msg_attempts;
  if (p.failover) ++ts.failover_polls;
  if (st.fallback.degraded()) ++ts.fallback_polls;
  return p;
}

AttemptEnd PollResolver::finish(TagStats& ts, TagState& st, PollOutcome out,
                                double t_us) const {
  count(ts, out);
  AttemptEnd end;
  if (out == PollOutcome::kDelivered) {
    st.fallback.on_success();
    st.fail_streak = 0;
    if (st.disrupted) {
      end.recovered_after_us = t_us - st.disrupted_since_us;
      st.disrupted = false;
    }
    // Without ARQ a message is one fragment (fragments == 1).
    ++st.frag;
    st.frag_attempts = 0;
    if (st.frag >= fragments) {
      ++ts.messages_delivered;
      end.delivered_after = st.msg_attempts;
      st.in_flight = false;
    }
    return end;
  }
  // A busy channel (reservation denied) or an unheard query says nothing
  // about the reply waveform, and dropping the rate would only lengthen the
  // airtime it has to reserve.
  if (out == PollOutcome::kCollision || out == PollOutcome::kDecodeFailure) {
    st.fallback.on_failure();
  }
  mark_disrupted(st, t_us);
  if (!enable_arq) {
    ++ts.messages_dropped;
    st.in_flight = false;
    return end;
  }
  ++st.fail_streak;
  if (st.frag_attempts >= arq.max_attempts ||
      st.retx_used >= arq.retry_budget) {
    ++ts.messages_dropped;
    st.in_flight = false;
    return end;
  }
  st.backoff_remaining = mac::backoff_slots(arq, st.fail_streak);
  return end;
}

}  // namespace itb::sim
