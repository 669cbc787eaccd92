// Isolated timings of single-layer kernels for the traced run: the event
// queue at a workload's recorded depth, and the app kernels at the input
// sizes the apps feed them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/scheduler.h"

namespace perfbench {

/// Host nanoseconds per event-queue operation (one pop or one schedule)
/// when `depth` live events are replayed through a queue pinned to `kind`:
/// pop the earliest, schedule a replacement a seeded random delay later.
[[nodiscard]] double queue_ns_per_op(iotsim::sim::SchedulerKind kind, std::size_t depth,
                                     std::uint64_t seed);

/// Median host microseconds per call, at the input sizes the apps use.
struct KernelTimes {
  double fft_us = 0.0;          // 128-sample power spectrum (one A11 MFCC frame)
  double mfcc_us = 0.0;         // one 1 s window of 1 kHz audio (A11)
  double dtw_us = 0.0;          // window features vs one keyword template (A11)
  double qrs_us = 0.0;          // 1.3 s of 1 kHz ECG (A8 window plus overlap)
  double jpeg_decode_us = 0.0;  // one 320x240 camera frame (A9)
};

[[nodiscard]] KernelTimes time_app_kernels(std::uint64_t seed);

}  // namespace perfbench
