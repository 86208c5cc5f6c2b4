#include "mac/arq.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "phycommon/crc.h"

namespace itb::mac {

namespace {

std::uint16_t fragment_crc(const FragmentHeader& h,
                           std::span<const std::uint8_t> payload) {
  Bytes covered;
  covered.reserve(kFragmentHeaderBytes + payload.size());
  covered.push_back(h.message_seq);
  covered.push_back(h.frag_index);
  covered.push_back(h.frag_count);
  covered.insert(covered.end(), payload.begin(), payload.end());
  return itb::phy::crc16_x25(covered);
}

}  // namespace

// --- fragmentation -----------------------------------------------------------

std::size_t fragment_count(std::size_t message_bytes,
                           std::size_t fragment_payload_bytes) {
  if (fragment_payload_bytes == 0 || message_bytes == 0) return 1;
  return (message_bytes + fragment_payload_bytes - 1) / fragment_payload_bytes;
}

Bytes make_fragment(const Bytes& message, std::size_t fragment_payload_bytes,
                    std::uint8_t message_seq, std::size_t index) {
  const std::size_t count =
      fragment_count(message.size(), fragment_payload_bytes);
  if (count > kMaxFragmentsPerMessage) {
    throw std::invalid_argument("make_fragment: > 255 fragments");
  }
  if (index >= count) {
    throw std::invalid_argument("make_fragment: fragment index out of range");
  }
  const std::size_t per =
      fragment_payload_bytes == 0 ? message.size() : fragment_payload_bytes;
  const std::size_t begin = index * per;
  const std::size_t end = std::min(begin + per, message.size());

  FragmentHeader h;
  h.message_seq = message_seq;
  h.frag_index = static_cast<std::uint8_t>(index);
  h.frag_count = static_cast<std::uint8_t>(count);

  Bytes wire;
  wire.reserve(kFragmentOverheadBytes + (end - begin));
  wire.push_back(h.message_seq);
  wire.push_back(h.frag_index);
  wire.push_back(h.frag_count);
  wire.insert(wire.end(), message.begin() + static_cast<std::ptrdiff_t>(begin),
              message.begin() + static_cast<std::ptrdiff_t>(end));
  const std::uint16_t crc = fragment_crc(
      h, std::span<const std::uint8_t>(wire).subspan(kFragmentHeaderBytes));
  wire.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  wire.push_back(static_cast<std::uint8_t>(crc >> 8));
  return wire;
}

std::optional<ParsedFragment> parse_fragment(const Bytes& wire) {
  if (wire.size() < kFragmentOverheadBytes) return std::nullopt;
  ParsedFragment out;
  out.header.message_seq = wire[0];
  out.header.frag_index = wire[1];
  out.header.frag_count = wire[2];
  if (out.header.frag_count == 0 ||
      out.header.frag_index >= out.header.frag_count) {
    return std::nullopt;
  }
  out.payload.assign(wire.begin() + kFragmentHeaderBytes,
                     wire.end() - kFragmentCrcBytes);
  const auto stored = static_cast<std::uint16_t>(
      wire[wire.size() - 2] | (wire[wire.size() - 1] << 8));
  if (fragment_crc(out.header, out.payload) != stored) return std::nullopt;
  return out;
}

bool Reassembler::accept(const ParsedFragment& f) {
  if (started_ && f.header.message_seq != seq_) return false;
  if (!started_) {
    started_ = true;
    seq_ = f.header.message_seq;
    parts_.assign(f.header.frag_count, std::nullopt);
  }
  if (f.header.frag_index >= parts_.size()) return false;
  if (parts_[f.header.frag_index].has_value()) return false;  // duplicate
  parts_[f.header.frag_index] = f.payload;
  return true;
}

bool Reassembler::complete() const {
  if (!started_) return false;
  return std::all_of(parts_.begin(), parts_.end(),
                     [](const auto& p) { return p.has_value(); });
}

Bytes Reassembler::message() const {
  if (!complete()) return {};
  Bytes out;
  for (const auto& p : parts_) out.insert(out.end(), p->begin(), p->end());
  return out;
}

std::vector<std::uint8_t> Reassembler::missing() const {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (!parts_[i].has_value()) out.push_back(static_cast<std::uint8_t>(i));
  }
  return out;
}

void Reassembler::reset() {
  started_ = false;
  seq_ = 0;
  parts_.clear();
}

// --- retry policy ------------------------------------------------------------

ArqConfig ArqConfig::validated() const {
  ArqConfig out = *this;
  out.max_attempts = std::max<std::size_t>(out.max_attempts, 1);
  out.backoff_cap_slots =
      std::max(out.backoff_cap_slots, out.backoff_base_slots);
  // The wire header stores the fragment index in one byte; a pathological
  // fragment size that would overflow it degrades to "no fragmentation"
  // rather than producing unparseable frames.
  if (out.fragment_bytes > 0 &&
      fragment_count(4096, out.fragment_bytes) > kMaxFragmentsPerMessage) {
    out.fragment_bytes = 0;
  }
  return out;
}

std::size_t backoff_slots(const ArqConfig& cfg,
                          std::size_t consecutive_failures) {
  if (cfg.backoff_base_slots == 0 || consecutive_failures == 0) return 0;
  std::size_t slots = cfg.backoff_base_slots;
  for (std::size_t k = 1; k < consecutive_failures; ++k) {
    slots *= 2;
    if (slots >= cfg.backoff_cap_slots) return cfg.backoff_cap_slots;
  }
  return std::min(slots, cfg.backoff_cap_slots);
}

double arq_delivery_probability(double p_success, std::size_t max_attempts) {
  p_success = std::clamp(p_success, 0.0, 1.0);
  return 1.0 - std::pow(1.0 - p_success, static_cast<double>(max_attempts));
}

double arq_expected_attempts(double p_success, std::size_t max_attempts) {
  p_success = std::clamp(p_success, 0.0, 1.0);
  const auto n = static_cast<double>(max_attempts);
  if (p_success <= 0.0) return n;
  return (1.0 - std::pow(1.0 - p_success, n)) / p_success;
}

// --- rate / waveform fallback ------------------------------------------------

const char* waveform_name(LinkWaveform w) {
  switch (w) {
    case LinkWaveform::kWifi11Mbps: return "wifi-11M";
    case LinkWaveform::kWifi5_5Mbps: return "wifi-5.5M";
    case LinkWaveform::kWifi2Mbps: return "wifi-2M";
    case LinkWaveform::kWifi1Mbps: return "wifi-1M";
    case LinkWaveform::kZigbee: return "zigbee-250k";
  }
  return "?";
}

itb::wifi::DsssRate waveform_rate(LinkWaveform w) {
  switch (w) {
    case LinkWaveform::kWifi11Mbps: return itb::wifi::DsssRate::k11Mbps;
    case LinkWaveform::kWifi5_5Mbps: return itb::wifi::DsssRate::k5_5Mbps;
    case LinkWaveform::kWifi2Mbps: return itb::wifi::DsssRate::k2Mbps;
    case LinkWaveform::kWifi1Mbps:
    case LinkWaveform::kZigbee: return itb::wifi::DsssRate::k1Mbps;
  }
  return itb::wifi::DsssRate::k1Mbps;
}

LinkWaveform waveform_for_rate(itb::wifi::DsssRate rate) {
  switch (rate) {
    case itb::wifi::DsssRate::k11Mbps: return LinkWaveform::kWifi11Mbps;
    case itb::wifi::DsssRate::k5_5Mbps: return LinkWaveform::kWifi5_5Mbps;
    case itb::wifi::DsssRate::k2Mbps: return LinkWaveform::kWifi2Mbps;
    case itb::wifi::DsssRate::k1Mbps: return LinkWaveform::kWifi1Mbps;
  }
  return LinkWaveform::kWifi2Mbps;
}

double waveform_airtime_us(LinkWaveform w, std::size_t psdu_bytes) {
  if (is_wifi(w)) {
    return itb::wifi::frame_airtime_us(waveform_rate(w), psdu_bytes);
  }
  // 802.15.4 O-QPSK at 250 kbps: 4-byte preamble + SFD + PHR = 6 bytes of
  // SHR/PHR, 32 us per byte.
  constexpr double kUsPerByte = 32.0;
  return (6.0 + static_cast<double>(psdu_bytes)) * kUsPerByte;
}

FallbackConfig FallbackConfig::validated() const {
  FallbackConfig out = *this;
  out.down_after_failures = std::max<std::size_t>(out.down_after_failures, 1);
  out.up_after_successes = std::max<std::size_t>(out.up_after_successes, 1);
  return out;
}

RateFallbackController::RateFallbackController(const FallbackConfig& cfg,
                                               LinkWaveform initial)
    : cfg_(cfg.validated()), initial_(initial), current_(initial) {}

LinkWaveform lowest_reachable(const FallbackConfig& cfg,
                              LinkWaveform initial) {
  if (!cfg.enable_rate_fallback) return initial;
  if (cfg.enable_zigbee_fallback) return LinkWaveform::kZigbee;
  return std::max(initial, LinkWaveform::kWifi1Mbps);
}

bool RateFallbackController::can_step_down() const {
  return current_ < lowest_reachable(cfg_, initial_);
}

void RateFallbackController::on_success() {
  fail_streak_ = 0;
  if (!cfg_.enable_rate_fallback || current_ == initial_) return;
  if (++success_streak_ >= cfg_.up_after_successes) {
    current_ = static_cast<LinkWaveform>(static_cast<std::uint8_t>(current_) - 1);
    ++upshifts_;
    success_streak_ = 0;
  }
}

void RateFallbackController::on_failure() {
  success_streak_ = 0;
  if (!cfg_.enable_rate_fallback) return;
  if (++fail_streak_ >= cfg_.down_after_failures && can_step_down()) {
    current_ = static_cast<LinkWaveform>(static_cast<std::uint8_t>(current_) + 1);
    ++downshifts_;
    fail_streak_ = 0;
  }
}

}  // namespace itb::mac
