// Experiment scale selection.
//
//   quick    — fast sanity pass (short measurement windows, fewer sweep
//              points, 1 seed); for CI and iteration.
//   standard — default; enough packets for <1% throughput noise, 3 seeds.
//   full     — paper fidelity (longest windows, dense sweeps, 5 seeds,
//              matching the paper's 5-run averages).
//
// The REPRO_SCALE environment variable selects one for every binary; it is
// read, like every other knob, by api::SessionOptions::from_env.
#pragma once

#include <cstdint>

namespace pp {

enum class Scale : std::uint8_t { kQuick, kStandard, kFull };

/// Human-readable name.
[[nodiscard]] const char* to_string(Scale s);

/// Number of independent seeds to average, mirroring the paper's 5 runs.
[[nodiscard]] int seeds_for(Scale s);

}  // namespace pp
