#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

namespace itb::sim {

namespace {

/// Substream salts per fault class, XORed into the schedule seed so the
/// same entity index never shares a stream across classes.
constexpr std::uint64_t kApSalt = 0xA9'0000'0001ULL;
constexpr std::uint64_t kChannelSalt = 0xA9'0000'0002ULL;
constexpr std::uint64_t kTagSalt = 0xA9'0000'0003ULL;
constexpr std::uint64_t kSlumpSalt = 0xA9'0000'0004ULL;

/// Deterministic event count for an expected value `rate`: the integer
/// part always happens, the fractional part is one Bernoulli draw.
std::size_t draw_count(itb::dsp::Xoshiro256& rng, double rate) {
  if (rate <= 0.0) return 0;
  const double whole = std::floor(rate);
  std::size_t n = static_cast<std::size_t>(whole);
  if (rng.uniform() < rate - whole) ++n;
  return n;
}

double draw_exponential_us(itb::dsp::Xoshiro256& rng, double mean_us) {
  // Inverse CDF with the u=0 edge nudged away from log(0).
  const double u = std::max(rng.uniform(), 1e-12);
  return -mean_us * std::log(u);
}

}  // namespace

FaultSchedule& FaultSchedule::ap_outage(std::uint32_t ap, double start_us,
                                        double duration_us) {
  events.push_back({FaultKind::kApOutage, ap, start_us, duration_us, 0.0});
  return *this;
}

FaultSchedule& FaultSchedule::interference(unsigned wifi_channel,
                                           double start_us, double duration_us,
                                           Real noise_rise_db) {
  events.push_back({FaultKind::kInterference, wifi_channel, start_us,
                    duration_us, noise_rise_db});
  return *this;
}

FaultSchedule& FaultSchedule::brownout(std::uint32_t tag, double start_us,
                                       double duration_us) {
  events.push_back({FaultKind::kBrownout, tag, start_us, duration_us, 0.0});
  return *this;
}

FaultSchedule& FaultSchedule::snr_slump(double start_us, double duration_us,
                                        Real depth_db) {
  events.push_back(
      {FaultKind::kSnrSlump, 0, start_us, duration_us, depth_db});
  return *this;
}

FaultSchedule generate_fault_schedule(const FaultProfile& profile,
                                      std::size_t num_aps,
                                      const std::vector<unsigned>& wifi_channels,
                                      std::size_t num_tags,
                                      std::uint64_t seed) {
  FaultSchedule out;
  if (profile.horizon_us <= 0.0) return out;

  const auto draw_events = [&](std::uint64_t salt, std::uint32_t entity,
                               double rate, double mean_us, auto&& emit) {
    auto rng = entity_stream(seed ^ salt, entity, 0);
    const std::size_t n = draw_count(rng, rate);
    for (std::size_t k = 0; k < n; ++k) {
      const double start = rng.uniform() * profile.horizon_us;
      const double dur = draw_exponential_us(rng, mean_us);
      emit(start, dur);
    }
  };

  for (std::uint32_t ap = 0; ap < num_aps; ++ap) {
    draw_events(kApSalt, ap, profile.outages_per_ap, profile.outage_mean_us,
                [&](double s, double d) { out.ap_outage(ap, s, d); });
  }
  for (std::size_t g = 0; g < wifi_channels.size(); ++g) {
    draw_events(kChannelSalt, static_cast<std::uint32_t>(g),
                profile.bursts_per_channel, profile.burst_mean_us,
                [&](double s, double d) {
                  out.interference(wifi_channels[g], s, d,
                                   profile.burst_rise_db);
                });
  }
  for (std::uint32_t t = 0; t < num_tags; ++t) {
    draw_events(kTagSalt, t, profile.brownouts_per_tag,
                profile.brownout_mean_us,
                [&](double s, double d) { out.brownout(t, s, d); });
  }
  draw_events(kSlumpSalt, 0, profile.snr_slumps, profile.slump_mean_us,
              [&](double s, double d) {
                out.snr_slump(s, d, profile.slump_depth_db);
              });
  return out;
}

template <typename Item>
template <typename RowsOf>
void FaultTimeline::IntervalTable<Item>::compile(std::size_t rows,
                                                 const FaultSchedule& schedule,
                                                 RowsOf&& rows_of) {
  // Calls place(row, item) for every row an event lands in, in schedule
  // order. Events with a non-positive or NaN duration land nowhere.
  const auto for_each_row = [&](auto&& place) {
    for (const FaultEvent& ev : schedule.events) {
      if (!(ev.duration_us > 0.0)) continue;
      Item item{};
      item.start_us = ev.start_us;
      item.end_us = ev.end_us();
      if constexpr (std::is_same_v<Item, Rise>) item.rise_db = ev.magnitude_db;
      rows_of(ev, [&](std::size_t r) { place(r, item); });
    }
  };

  // Counting sort: count row r's items into offsets[r + 1], prefix-sum so
  // offsets[r] is row r's start, then fill. The fill moves offsets[r] to
  // row r's end, so shifting the array right by one restores the starts.
  offsets.assign(rows + 1, 0);
  for_each_row([&](std::size_t r, const Item&) { ++offsets[r + 1]; });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  items.resize(offsets.back());
  for_each_row([&](std::size_t r, const Item& item) {
    items[offsets[r]++] = item;
  });
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;

  // Rows are filled in schedule order, so each row's sort input, and with
  // it the order of equal-start ties that active_db() adds up, is fixed by
  // the schedule alone.
  for (std::size_t r = 0; r < rows; ++r) {
    std::sort(items.begin() + offsets[r], items.begin() + offsets[r + 1],
              [](const Item& a, const Item& b) {
                return a.start_us < b.start_us;
              });
  }
}

template <typename Item>
bool FaultTimeline::IntervalTable<Item>::active(std::size_t row,
                                                double t_us) const {
  if (row + 1 >= offsets.size()) return false;
  for (std::size_t i = offsets[row]; i < offsets[row + 1]; ++i) {
    if (items[i].start_us > t_us) break;  // sorted by start
    if (t_us < items[i].end_us) return true;
  }
  return false;
}

template <typename Item>
Real FaultTimeline::IntervalTable<Item>::active_db(std::size_t row,
                                                   double t_us) const {
  Real db = 0.0;
  if (row + 1 >= offsets.size()) return db;
  for (std::size_t i = offsets[row]; i < offsets[row + 1]; ++i) {
    if (items[i].start_us > t_us) break;
    if (t_us < items[i].end_us) db += items[i].rise_db;
  }
  return db;
}

FaultTimeline::FaultTimeline(const FaultSchedule& schedule, std::size_t num_aps,
                             const std::vector<unsigned>& wifi_channels,
                             std::size_t num_tags) {
  // AP outages and brownouts land on their entity's row; ids past the
  // fleet land nowhere.
  const auto entity_row = [](FaultKind kind, std::size_t rows) {
    return [kind, rows](const FaultEvent& ev, auto&& place) {
      if (ev.kind == kind && ev.entity < rows) place(ev.entity);
    };
  };
  ap_.compile(num_aps, schedule, entity_row(FaultKind::kApOutage, num_aps));
  tag_.compile(num_tags, schedule, entity_row(FaultKind::kBrownout, num_tags));
  // A burst lands on every group of its channel; none outside the plan.
  channel_.compile(wifi_channels.size(), schedule,
                   [&](const FaultEvent& ev, auto&& place) {
                     if (ev.kind != FaultKind::kInterference) return;
                     for (std::size_t g = 0; g < wifi_channels.size(); ++g) {
                       if (wifi_channels[g] == ev.entity) place(g);
                     }
                   });
  slumps_.compile(1, schedule, [](const FaultEvent& ev, auto&& place) {
    if (ev.kind == FaultKind::kSnrSlump) place(0);
  });
  any_ = !(ap_.items.empty() && channel_.items.empty() &&
           tag_.items.empty() && slumps_.items.empty());
}

bool FaultTimeline::ap_down(std::uint32_t ap, double t_us) const {
  return any_ && ap_.active(ap, t_us);
}

bool FaultTimeline::tag_browned_out(std::uint32_t tag, double t_us) const {
  return any_ && tag_.active(tag, t_us);
}

Real FaultTimeline::channel_noise_rise_db(std::size_t group,
                                          double t_us) const {
  if (!any_) return 0.0;
  return slumps_.active_db(0, t_us) + channel_.active_db(group, t_us);
}

Real FaultTimeline::channel_busy_boost(std::size_t group, double t_us) const {
  if (!any_) return 0.0;
  const Real rise = channel_.active_db(group, t_us);
  if (rise <= 0.0) return 0.0;
  return 1.0 - std::exp(-rise / 10.0);
}

}  // namespace itb::sim
