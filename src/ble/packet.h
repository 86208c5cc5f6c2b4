// BLE advertising-channel packet construction and parsing (link layer).
//
// Air format (paper Fig. 5): preamble 0xAA | access address 0x8E89BED6 |
// PDU header (type, length) | AdvA (6 B) | AdvData (0..31 B) | CRC-24.
// Whitening covers PDU + CRC and is seeded by the channel index.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "phycommon/bits.h"

namespace itb::ble {

using itb::phy::Bits;
using itb::phy::Bytes;

inline constexpr std::uint8_t kPreambleByte = 0xAA;
inline constexpr std::uint32_t kAdvAccessAddress = 0x8E89BED6;
inline constexpr std::size_t kMaxAdvDataBytes = 31;
/// The Android advertising API exposes only 24 of the 31 AdvData bytes to
/// applications (paper §2.2 footnote 3).
inline constexpr std::size_t kAndroidAdvDataBytes = 24;
/// Air time of a full 47-byte advertising packet at LE 1M (1 bit = 1 us).
inline constexpr double kAdvPacketUs = 376.0;
/// AdvA of every advertising packet this library builds.
inline constexpr std::array<std::uint8_t, 6> kAdvertiserAddress{
    0xC1, 0xA7, 0x3E, 0x55, 0xAA, 0x01};

/// Advertising PDU types (subset used here).
enum class AdvPduType : std::uint8_t {
  kAdvInd = 0x0,
  kAdvNonconnInd = 0x2,
  kAdvScanInd = 0x6,
};

/// Descriptor for an advertising packet before serialization; its AdvA is
/// kAdvertiserAddress.
struct AdvPacketConfig {
  AdvPduType pdu_type = AdvPduType::kAdvNonconnInd;
  Bytes payload;  ///< AdvData, up to kMaxAdvDataBytes.
};

/// Fully serialized advertising packet plus bookkeeping offsets (in bits,
/// relative to the start of the preamble) that the backscatter tag's timing
/// logic relies on.
struct AdvPacket {
  Bits air_bits;  ///< whitened, in transmit order, incl. preamble + AA
  std::size_t payload_start_bit = 0;  ///< first AdvData bit on air
  std::size_t payload_end_bit = 0;    ///< one past last AdvData bit
  std::size_t crc_start_bit = 0;      ///< first CRC bit on air
  unsigned channel_index = 37;

  /// Air duration at 1 Mbps (LE 1M): 1 bit == 1 us.
  double duration_us() const { return static_cast<double>(air_bits.size()); }
  double payload_start_us() const { return static_cast<double>(payload_start_bit); }
  double payload_window_us() const {
    return static_cast<double>(payload_end_bit - payload_start_bit);
  }
};

/// Builds the whitened air bits for an advertising packet on the given
/// channel. Throws std::invalid_argument when the AdvData exceeds
/// kMaxAdvDataBytes or the channel index is not below 40.
AdvPacket build_adv_packet(const AdvPacketConfig& cfg, unsigned channel_index);

/// Result of parsing a received advertising packet.
struct ParsedAdv {
  AdvPduType pdu_type;
  std::array<std::uint8_t, 6> advertiser_address;
  Bytes payload;
  bool crc_ok = false;
};

/// Parses whitened air bits back into a PDU (inverse of build_adv_packet).
/// `air_bits` must start at the preamble. Returns nullopt if the access
/// address does not match, the PDU length is outside 6..37 bytes (AdvA plus
/// up to kMaxAdvDataBytes) or the air bits end before the CRC.
std::optional<ParsedAdv> parse_adv_packet(const Bits& air_bits,
                                          unsigned channel_index);

/// BLE data-channel packet (future-work extension, paper §7): up to 255 B
/// payload at LE 1M, giving the tag a ~2 ms backscatter window. It is sent
/// on a fixed connection access address.
struct DataPacketConfig {
  Bytes payload;  ///< up to 255 bytes (BT 4.2+ extended length)
  unsigned channel_index = 0;
};

/// Throws std::invalid_argument when the payload exceeds 255 bytes or the
/// channel index is not a data channel (< 37).
AdvPacket build_data_packet(const DataPacketConfig& cfg);

}  // namespace itb::ble
