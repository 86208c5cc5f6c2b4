#include "ble/packet.h"

#include <algorithm>
#include <cassert>

#include "phycommon/crc.h"
#include "phycommon/lfsr.h"

namespace itb::ble {

using itb::phy::BleWhitener;
using itb::phy::bytes_to_bits_lsb_first;
using itb::phy::uint_to_bits_lsb_first;

namespace {

/// Access address of the data-channel connection build_data_packet uses.
constexpr std::uint32_t kDataAccessAddress = 0x50655D5B;

Bits header_and_payload_bits(AdvPduType type,
                             std::span<const std::uint8_t> adv_address,
                             std::span<const std::uint8_t> payload) {
  // PDU header: 4-bit type, 2 reserved bits, TxAdd, RxAdd, then 8-bit length.
  // Sized once and copied into: GCC 12 at -O3 with _GLIBCXX_ASSERTIONS
  // flags a span insert into a growing vector as -Warray-bounds.
  const std::size_t body = adv_address.size() + payload.size();
  Bytes pdu(2 + body);
  pdu[0] = static_cast<std::uint8_t>(type);
  pdu[1] = static_cast<std::uint8_t>(body);
  const auto rest = std::copy(adv_address.begin(), adv_address.end(),
                              pdu.begin() + 2);
  std::copy(payload.begin(), payload.end(), rest);
  return bytes_to_bits_lsb_first(pdu);
}

}  // namespace

AdvPacket build_adv_packet(const AdvPacketConfig& cfg, unsigned channel_index) {
  assert(cfg.payload.size() <= kMaxAdvDataBytes);
  assert(channel_index < 40);

  const Bits pdu_bits = header_and_payload_bits(
      cfg.pdu_type, kAdvertiserAddress, cfg.payload);
  const Bits crc_bits = itb::phy::ble_crc24_bits(pdu_bits);

  Bits unwhitened = pdu_bits;
  unwhitened.insert(unwhitened.end(), crc_bits.begin(), crc_bits.end());

  BleWhitener whitener(channel_index);
  const Bits whitened = whitener.process(unwhitened);

  AdvPacket out;
  out.channel_index = channel_index;
  out.air_bits = bytes_to_bits_lsb_first(std::array<std::uint8_t, 1>{kPreambleByte});
  const Bits aa_bits = uint_to_bits_lsb_first(kAdvAccessAddress, 32);
  out.air_bits.insert(out.air_bits.end(), aa_bits.begin(), aa_bits.end());

  const std::size_t pdu_air_start = out.air_bits.size();
  out.air_bits.insert(out.air_bits.end(), whitened.begin(), whitened.end());

  // Offsets: preamble(8) + AA(32) + header(16) + AdvA(48) = 104 bits before
  // AdvData; CRC is the trailing 24 bits.
  out.payload_start_bit = pdu_air_start + 16 + 48;
  out.payload_end_bit = out.payload_start_bit + cfg.payload.size() * 8;
  out.crc_start_bit = out.air_bits.size() - 24;
  assert(out.payload_end_bit == out.crc_start_bit);
  return out;
}

std::optional<ParsedAdv> parse_adv_packet(const Bits& air_bits,
                                          unsigned channel_index) {
  constexpr std::size_t kHeaderAir = 8 + 32;  // preamble + AA
  if (air_bits.size() < kHeaderAir + 16 + 24) return std::nullopt;

  const std::uint64_t aa = itb::phy::bits_to_uint_lsb_first(
      std::span<const std::uint8_t>(air_bits).subspan(8, 32));
  if (aa != kAdvAccessAddress) return std::nullopt;

  // De-whiten everything after the access address.
  BleWhitener whitener(channel_index);
  Bits whitened(air_bits.begin() + kHeaderAir, air_bits.end());
  const Bits pdu_and_crc = whitener.process(whitened);

  const auto hdr_type = static_cast<std::uint8_t>(
      itb::phy::bits_to_uint_lsb_first(
          std::span<const std::uint8_t>(pdu_and_crc).subspan(0, 4)));
  const auto length = static_cast<std::size_t>(itb::phy::bits_to_uint_lsb_first(
      std::span<const std::uint8_t>(pdu_and_crc).subspan(8, 8)));

  const std::size_t pdu_bits_len = 16 + length * 8;
  if (pdu_and_crc.size() < pdu_bits_len + 24) return std::nullopt;
  if (length < 6) return std::nullopt;  // must at least hold AdvA

  ParsedAdv out;
  out.pdu_type = static_cast<AdvPduType>(hdr_type);

  const Bytes body = itb::phy::bits_to_bytes_lsb_first(
      std::span<const std::uint8_t>(pdu_and_crc).subspan(16, length * 8));
  for (int i = 0; i < 6; ++i) out.advertiser_address[i] = body[i];
  out.payload.assign(body.begin() + 6, body.end());

  const Bits pdu_bits(pdu_and_crc.begin(),
                      pdu_and_crc.begin() + static_cast<std::ptrdiff_t>(pdu_bits_len));
  const Bits expect_crc = itb::phy::ble_crc24_bits(pdu_bits);
  const std::span<const std::uint8_t> got_crc =
      std::span<const std::uint8_t>(pdu_and_crc).subspan(pdu_bits_len, 24);
  out.crc_ok = std::equal(expect_crc.begin(), expect_crc.end(), got_crc.begin());
  return out;
}

AdvPacket build_data_packet(const DataPacketConfig& cfg) {
  assert(cfg.payload.size() <= 255);
  assert(cfg.channel_index < 37);

  Bytes pdu;
  pdu.push_back(0x02);  // LLID = start of L2CAP message, NESN/SN/MD = 0
  pdu.push_back(static_cast<std::uint8_t>(cfg.payload.size()));
  pdu.insert(pdu.end(), cfg.payload.begin(), cfg.payload.end());
  const Bits pdu_bits = bytes_to_bits_lsb_first(pdu);
  const Bits crc_bits = itb::phy::ble_crc24_bits(pdu_bits);

  Bits unwhitened = pdu_bits;
  unwhitened.insert(unwhitened.end(), crc_bits.begin(), crc_bits.end());
  BleWhitener whitener(cfg.channel_index);
  const Bits whitened = whitener.process(unwhitened);

  AdvPacket out;
  out.channel_index = cfg.channel_index;
  out.air_bits = bytes_to_bits_lsb_first(std::array<std::uint8_t, 1>{kPreambleByte});
  const Bits aa_bits = uint_to_bits_lsb_first(kDataAccessAddress, 32);
  out.air_bits.insert(out.air_bits.end(), aa_bits.begin(), aa_bits.end());
  const std::size_t pdu_air_start = out.air_bits.size();
  out.air_bits.insert(out.air_bits.end(), whitened.begin(), whitened.end());

  out.payload_start_bit = pdu_air_start + 16;
  out.payload_end_bit = out.payload_start_bit + cfg.payload.size() * 8;
  out.crc_start_bit = out.air_bits.size() - 24;
  return out;
}

}  // namespace itb::ble
