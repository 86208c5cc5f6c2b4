#include "wifi/mac_frame.h"

#include <algorithm>
#include <cassert>

#include "phycommon/crc.h"

namespace itb::wifi {

namespace {

/// Frame-control field (little-endian u16): version 0, type, subtype.
std::uint16_t frame_control(FrameType t) {
  switch (t) {
    case FrameType::kData:
      return 0x0008;  // type 2 (data), subtype 0
    case FrameType::kRts:
      return 0x00B4;  // type 1 (control), subtype 11
    case FrameType::kCts:
    case FrameType::kCtsToSelf:
      return 0x00C4;  // type 1, subtype 12
    case FrameType::kAck:
      return 0x00D4;  // type 1, subtype 13
  }
  return 0;
}

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint16_t get_u16(const Bytes& in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

}  // namespace

Bytes serialize(const MacFrame& frame) {
  // Reserved up front: GCC 12 at -O3 with _GLIBCXX_ASSERTIONS flags the
  // address inserts into a two-push_back vector as a memcpy overflow.
  Bytes out;
  out.reserve(kDataHeaderBytes + frame.body.size() + kFcsBytes);
  put_u16(out, frame_control(frame.type));
  put_u16(out, frame.duration_us);
  out.insert(out.end(), frame.addr1.begin(), frame.addr1.end());
  switch (frame.type) {
    case FrameType::kCts:
    case FrameType::kCtsToSelf:
    case FrameType::kAck:
      break;  // addr1 only
    case FrameType::kRts:
      out.insert(out.end(), frame.addr2.begin(), frame.addr2.end());
      break;
    case FrameType::kData: {
      out.insert(out.end(), frame.addr2.begin(), frame.addr2.end());
      out.insert(out.end(), frame.addr3.begin(), frame.addr3.end());
      put_u16(out, static_cast<std::uint16_t>(frame.sequence << 4));
      out.insert(out.end(), frame.body.begin(), frame.body.end());
      break;
    }
  }
  const std::uint32_t fcs = itb::phy::crc32_ieee(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFF));
  }
  return out;
}

std::optional<ParsedMacFrame> parse(const Bytes& psdu) {
  if (psdu.size() < kCtsBytes) return std::nullopt;

  ParsedMacFrame out;
  const std::uint16_t fc = get_u16(psdu, 0);
  switch (fc) {
    case 0x0008:
      out.frame.type = FrameType::kData;
      break;
    case 0x00B4:
      out.frame.type = FrameType::kRts;
      break;
    case 0x00C4:
      out.frame.type = FrameType::kCts;
      break;
    case 0x00D4:
      out.frame.type = FrameType::kAck;
      break;
    default:
      return std::nullopt;
  }
  out.frame.duration_us = get_u16(psdu, 2);
  std::copy_n(psdu.begin() + 4, 6, out.frame.addr1.begin());

  std::size_t body_start = 10;
  switch (out.frame.type) {
    case FrameType::kCts:
    case FrameType::kCtsToSelf:
    case FrameType::kAck:
      break;
    case FrameType::kRts:
      if (psdu.size() < kRtsBytes) return std::nullopt;
      std::copy_n(psdu.begin() + 10, 6, out.frame.addr2.begin());
      body_start = 16;
      break;
    case FrameType::kData:
      if (psdu.size() < kDataHeaderBytes + kFcsBytes) return std::nullopt;
      std::copy_n(psdu.begin() + 10, 6, out.frame.addr2.begin());
      std::copy_n(psdu.begin() + 16, 6, out.frame.addr3.begin());
      out.frame.sequence = static_cast<std::uint16_t>(get_u16(psdu, 22) >> 4);
      body_start = 24;
      break;
  }

  const std::size_t body_len = psdu.size() - body_start - kFcsBytes;
  out.frame.body.assign(psdu.begin() + static_cast<std::ptrdiff_t>(body_start),
                        psdu.begin() + static_cast<std::ptrdiff_t>(body_start + body_len));

  const Bytes without_fcs(psdu.begin(), psdu.end() - 4);
  const std::uint32_t expect = itb::phy::crc32_ieee(without_fcs);
  std::uint32_t got = 0;
  for (int i = 0; i < 4; ++i) {
    got |= static_cast<std::uint32_t>(psdu[psdu.size() - 4 + i]) << (8 * i);
  }
  out.fcs_ok = expect == got;
  return out;
}

}  // namespace itb::wifi
