#include "wifi/ofdm_rx.h"

#include <algorithm>
#include <cmath>

#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/units.h"
#include "phycommon/lfsr.h"
#include "wifi/interleaver.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::Real;

namespace {

/// Normalized LTF correlation needed to declare a frame (0..1).
constexpr Real kDetectionThreshold = 0.55;
/// Nominal sample rate, used only to report cfo_est_hz in Hz.
constexpr Real kSampleRateHz = 20e6;

}  // namespace

OfdmReceiver::OfdmReceiver(const OfdmRxConfig& cfg) : cfg_(cfg) {}

std::optional<OfdmRxResult> OfdmReceiver::receive(const CVec& samples) const {
  // --- 1. Locate the LTF by cross-correlation ------------------------------
  const CVec ltf = long_training_field();
  const CVec ltf_period(ltf.begin() + 32, ltf.begin() + 32 + 64);
  if (samples.size() < 320 + kSymbolSamples) return std::nullopt;

  const CVec corr = itb::dsp::cross_correlate(samples, ltf_period);
  // Find the strongest correlation peak pair spaced 64 samples apart.
  std::size_t best = 0;
  Real best_mag = 0.0;
  for (std::size_t i = 0; i + 64 < corr.size(); ++i) {
    const Real m = std::abs(corr[i]) + std::abs(corr[i + 64]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  const Real norm = itb::dsp::normalized_peak(samples, ltf_period, best);
  if (norm < kDetectionThreshold) return std::nullopt;

  // `best` points at the first full LTF period; frame starts 160+32 earlier.
  if (best < 192) return std::nullopt;
  OfdmRxResult out;
  out.frame_start = best - 192;

  // --- 1b. Preamble CFO estimation + correction ----------------------------
  // Coarse: the STF repeats every 16 samples, so the lag-16 autocorrelation
  // phase measures CFO unambiguously to +-fs/32. Fine: the LTF's two
  // 64-sample periods give a 4x finer estimate, ambiguous at fs/64; the
  // coarse stage resolves the integer ambiguity.
  CVec corrected;
  const CVec* rx_samples = &samples;
  if (cfg_.enable_cfo_correction) {
    const auto autocorr_freq = [&](std::size_t from, std::size_t count,
                                   std::size_t lag) -> std::optional<Real> {
      Complex acc{0.0, 0.0};
      for (std::size_t i = from; i < from + count; ++i) {
        acc += std::conj(samples[i]) * samples[i + lag];
      }
      if (std::abs(acc) < 1e-12) return std::nullopt;
      // Cycles per sample.
      return std::arg(acc) / (itb::dsp::kTwoPi * static_cast<Real>(lag));
    };
    // STF body, staying clear of the frame edge and the LTF boundary.
    const auto coarse = autocorr_freq(out.frame_start + 16, 112, 16);
    const auto fine = autocorr_freq(best, 64, 64);
    if (fine) {
      Real f = *fine;
      if (coarse) {
        const Real ambiguity = 1.0 / 64.0;
        f += ambiguity * std::round((*coarse - f) / ambiguity);
      }
      out.cfo_est_hz = f * kSampleRateHz;
      corrected.resize(samples.size());
      Real phase = 0.0;
      const Real step = -itb::dsp::kTwoPi * f;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        corrected[i] = samples[i] * Complex{std::cos(phase), std::sin(phase)};
        phase += step;
      }
      rx_samples = &corrected;
    }
  }
  const CVec& rx = *rx_samples;

  // --- 2. Channel estimation from the two LTF periods ----------------------
  const auto seq = ltf_sequence();
  const auto bin = [](int k) {
    return k >= 0 ? static_cast<std::size_t>(k)
                  : static_cast<std::size_t>(64 + k);
  };
  CVec chan(kFftSize, Complex{1.0, 0.0});
  {
    CVec est_acc(kFftSize, Complex{0.0, 0.0});
    for (int rep = 0; rep < 2; ++rep) {
      CVec t(rx.begin() + static_cast<std::ptrdiff_t>(best + 64 * rep),
             rx.begin() + static_cast<std::ptrdiff_t>(best + 64 * (rep + 1)));
      const Real scale = std::sqrt(52.0) / static_cast<Real>(kFftSize);
      for (Complex& v : t) v *= scale;
      const CVec f = itb::dsp::fft(t);
      for (int k = -26; k <= 26; ++k) {
        const Real ref = seq[static_cast<std::size_t>(k + 26)];
        if (ref == 0.0) continue;
        est_acc[bin(k)] += f[bin(k)] / ref;
      }
    }
    for (std::size_t i = 0; i < kFftSize; ++i) {
      if (std::abs(est_acc[i]) > 1e-12) chan[i] = est_acc[i] / 2.0;
    }
  }

  const std::span<const Complex> rx_span(rx);
  out.rssi_dbm = itb::dsp::watts_to_dbm(
      itb::dsp::mean_power(rx_span.subspan(best, 128)));

  // --- 3. SIGNAL field ------------------------------------------------------
  const std::size_t signal_start = best + 128;
  if (signal_start + kSymbolSamples > rx.size()) return std::nullopt;
  const std::optional<SignalField> signal =
      parse_signal_symbol(rx_span.subspan(signal_start, kSymbolSamples), chan);
  if (!signal) return out;
  out.rate = signal->rate;
  out.signal_ok = true;

  // --- 4. DATA symbols ------------------------------------------------------
  const auto& p = ofdm_params(out.rate);
  // The SIGNAL LENGTH we transmit in this codebase is the DATA field byte
  // count (see OfdmTransmitter); symbols follow directly. When N_DBPS is
  // not a whole number of bytes (9 Mbps: 36 bits) that count rounds down,
  // so the symbol count rounds up to cover the field's last symbol.
  const std::size_t data_bits = signal->length_bytes * 8;
  const std::size_t num_symbols = (data_bits + p.n_dbps - 1) / p.n_dbps;
  itb::phy::Bits punctured;
  punctured.reserve(num_symbols * p.n_cbps);
  std::size_t start = signal_start + kSymbolSamples;
  for (std::size_t s = 0; s < num_symbols; ++s) {
    if (start + kSymbolSamples > rx.size()) return out;
    const CVec data =
        extract_ofdm_symbol(rx_span.subspan(start, kSymbolSamples), s + 1, chan);
    const itb::phy::Bits inter = qam_demodulate(data, p.modulation);
    const itb::phy::Bits sym = deinterleave(inter, p.n_cbps, p.n_bpsc);
    punctured.insert(punctured.end(), sym.begin(), sym.end());
    start += kSymbolSamples;
  }

  const itb::phy::Bits scrambled =
      decode_punctured(punctured, p.code_rate, data_bits);

  // --- 5. Descramble: recover the seed from the SERVICE field --------------
  // The first 7 data bits were zeros pre-scrambling, so the first 7
  // scrambled bits are the scrambler stream itself.
  const std::uint8_t seed = itb::phy::OfdmScrambler::seed_from_first_bits(
      std::span<const std::uint8_t>(scrambled).first(7));
  out.scrambler_seed = seed;
  if (seed == 0) return out;
  itb::phy::OfdmScrambler descrambler(seed);
  const itb::phy::Bits data_field = descrambler.process(scrambled);

  // PSDU sits after the 16 SERVICE bits; strip tail+pad.
  if (data_field.size() < 16 + 6) return out;
  const std::size_t psdu_bits = (data_field.size() - 16 - 6) / 8 * 8;
  const itb::phy::Bits psdu(data_field.begin() + 16,
                            data_field.begin() + 16 + static_cast<std::ptrdiff_t>(psdu_bits));
  out.psdu = itb::phy::bits_to_bytes_lsb_first(psdu);
  return out;
}

}  // namespace itb::wifi
