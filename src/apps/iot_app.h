// The runtime-facing application interface.
//
// Each workload's user-level computation (Table II rightmost column) is a
// real algorithm executing on the host; the runtimes charge its *simulated*
// cost from the WorkloadSpec while the kernel produces genuine outputs
// (step counts, decoded frames, matched fingerprints, …) that tests assert
// against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "apps/sample_column.h"
#include "apps/workload_spec.h"
#include "check/check.h"
#include "sensors/sample.h"
#include "sensors/sensor_catalog.h"
#include "trace/memory_profiler.h"

namespace iotsim::apps {

/// One window of readings for one app: a column per sensor the app reads.
/// A column's storage is allocated on its first reading, sized for a full
/// window, and freed by `release()` once the kernel has run, so a run holds
/// only the windows in flight.
class WindowInput {
 public:
  WindowInput() = default;
  /// A window of `sensors` (an app's `WorkloadSpec::sensor_ids`, which must
  /// outlive the input) starting at `start`.
  WindowInput(std::span<const sensors::SensorId> sensors, sim::SimTime start)
      : window_start{start}, sensors_{sensors} {}

  sim::SimTime window_start;

  /// Appends a reading of sensor `id`, which must be one of the window's
  /// sensors. A column's first reading reserves room for exactly one
  /// window of that sensor's readings.
  void add(sensors::SensorId id, sensors::Sample sample) {
    const std::size_t i = position(id);
    IOTSIM_CHECK_LT(i, sensors_.size(), "reading of a sensor the window does not hold");
    if (!columns_) columns_ = std::make_unique<SampleColumn[]>(sensors_.size());
    SampleColumn& col = columns_[i];
    if (col.empty()) {
      col.reserve(static_cast<std::size_t>(sensors::spec_of(id).samples_per_window()),
                  sample.channels.size());
    }
    col.add(std::move(sample));
  }

  /// The readings of sensor `id`; empty when it has none (or after
  /// `release()`).
  [[nodiscard]] const SampleColumn& of(sensors::SensorId id) const {
    static const SampleColumn kEmpty;
    const std::size_t i = position(id);
    return columns_ && i < sensors_.size() ? columns_[i] : kEmpty;
  }

  [[nodiscard]] std::span<const sensors::SensorId> sensors() const { return sensors_; }

  /// Frees every column; `window_start` stays.
  void release() { columns_.reset(); }

 private:
  /// Index of `id` among the window's sensors; their count when absent.
  [[nodiscard]] std::size_t position(sensors::SensorId id) const {
    return static_cast<std::size_t>(std::ranges::find(sensors_, id) - sensors_.begin());
  }

  std::span<const sensors::SensorId> sensors_;
  std::unique_ptr<SampleColumn[]> columns_;  // null until the first reading
};

struct WindowOutput {
  std::string summary;             // human-readable user-level result
  std::size_t net_payload_bytes = 0;  // bytes the app wants uploaded
  double metric = 0.0;             // app-defined headline number (steps, bpm…)
  bool event = false;              // app-defined alarm (quake, irregularity…)
};

class IotApp {
 public:
  explicit IotApp(const WorkloadSpec& spec) : spec_{spec} {}
  virtual ~IotApp() = default;
  IotApp(const IotApp&) = delete;
  IotApp& operator=(const IotApp&) = delete;

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

  /// Runs the user-level computation over one window of sensor data.
  /// Working buffers must come from `ws` so heap usage is profiled (Fig. 6).
  virtual WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) = 0;

 private:
  const WorkloadSpec& spec_;
};

/// Builds the kernel implementation for an app.
[[nodiscard]] std::unique_ptr<IotApp> make_app(AppId id);

}  // namespace iotsim::apps
