// Sample-rate conversion helpers.
//
// Different PHYs in this project run at different natural rates (BLE at
// 8 Msps, 802.11b synthesis at 143 Msps, OFDM at 20 Msps, ZigBee at
// 96 Msps); these helpers move a signal between them by integer factors.
#pragma once

#include <span>

#include "dsp/types.h"

namespace itb::dsp {

/// Integer decimation: anti-alias low-pass then keep every Mth sample
/// (indices 0, M, 2M, ...). Output length is ceil(x.size() / M): a trailing
/// partial stride still contributes its first sample, so frame tails at
/// non-divisible lengths are never silently dropped. Only the kept samples
/// are filtered (polyphase), each summed in convolve_direct's order, so the
/// result equals filter_same-then-pick bit for bit wherever filter_same
/// takes the direct path. M == 0 throws std::invalid_argument.
CVec decimate(std::span<const Complex> x, std::size_t factor);

/// Repeats each sample `factor` times (zero-order hold). Used for chip-rate
/// to sample-rate expansion where the rectangular shape is intentional
/// (switching waveforms).
CVec hold_upsample(std::span<const Complex> x, std::size_t factor);
RVec hold_upsample(std::span<const Real> x, std::size_t factor);

}  // namespace itb::dsp
