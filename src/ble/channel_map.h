// BLE channel plan: index <-> RF frequency, advertising channel set, and the
// relationship to the Wi-Fi channel grid the paper exploits (Fig. 3).
#pragma once

#include <array>

#include "dsp/types.h"

namespace itb::ble {

/// BLE LE channels 0..39. Advertising channels are 37 (2402 MHz),
/// 38 (2426 MHz) and 39 (2480 MHz); data channels fill the gaps.
struct ChannelMap {
  static constexpr unsigned kNumChannels = 40;
  static constexpr std::array<unsigned, 3> kAdvertisingChannels = {37, 38, 39};

  /// Center frequency in Hz for a channel index (0..39).
  static itb::dsp::Real frequency_hz(unsigned channel_index);

  static bool is_advertising(unsigned channel_index) {
    return channel_index == 37 || channel_index == 38 || channel_index == 39;
  }
};

/// 2.4 GHz ISM band edges (Hz) — the constraint that rules out
/// double-sideband backscatter on channels 37/39 (paper §2.3.1).
inline constexpr itb::dsp::Real kIsmLowHz = 2.400e9;
inline constexpr itb::dsp::Real kIsmHighHz = 2.4835e9;

/// Wi-Fi 2.4 GHz channel center (1..13): 2407 + 5*n MHz.
inline itb::dsp::Real wifi_channel_hz(unsigned ch) {
  return 2.407e9 + 5e6 * static_cast<itb::dsp::Real>(ch);
}

/// True for the channels wifi_channel_hz is defined on (1..13; channel 14
/// is not on the 5 MHz grid).
inline bool is_wifi_channel(unsigned ch) { return ch >= 1 && ch <= 13; }

/// ZigBee (802.15.4) 2.4 GHz channel center (11..26): 2405 + 5*(k-11) MHz.
inline itb::dsp::Real zigbee_channel_hz(unsigned ch) {
  return 2.405e9 + 5e6 * static_cast<itb::dsp::Real>(ch - 11);
}

}  // namespace itb::ble
