#include "backscatter/tag.h"

namespace itb::backscatter {

InterscatterTag::InterscatterTag(const TagConfig& cfg) : cfg_(cfg) {}

std::optional<TagTransmission> InterscatterTag::plan(
    const itb::ble::AdvPacket& ble_packet, const itb::phy::Bytes& psdu) const {
  TagTransmission out;
  out.window_us = ble_packet.payload_window_us();
  out.backscatter_start_us = ble_packet.payload_start_us() + kGuardUs +
                             cfg_.timing_error_us;

  out.synth = synthesize_wifi(psdu, cfg_.wifi);

  const double available =
      ble_packet.payload_start_us() + out.window_us - out.backscatter_start_us;
  out.fits_window = out.synth.duration_us <= available;
  if (out.synth.duration_us > out.window_us) {
    // Cannot fit even with perfect timing: reject outright (the 1 Mbps case
    // in the paper's §2.3.3).
    return std::nullopt;
  }
  return out;
}

std::optional<double> InterscatterTag::detect_payload_start(
    const CVec& incident, Real sample_rate_hz,
    double header_duration_us) const {
  EnvelopeDetectorConfig dcfg;
  dcfg.sample_rate_hz = sample_rate_hz;
  const EnvelopeDetector det(dcfg);
  const std::size_t trig = det.first_trigger(incident);
  if (trig >= incident.size()) return std::nullopt;
  const double trig_us = static_cast<double>(trig) / (sample_rate_hz / 1e6);
  return trig_us + header_duration_us + kGuardUs;
}

}  // namespace itb::backscatter
