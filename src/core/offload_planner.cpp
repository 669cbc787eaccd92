#include "core/offload_planner.h"

#include <set>
#include <sstream>

namespace iotsim::core {

namespace {

/// MCU RAM an offloaded app needs for one sensor's window of data. Blob
/// sensors (camera frames, fingerprint templates) stream through a strip
/// buffer rather than being held whole — the standard embedded pattern.
std::size_t sensor_buffer_bytes(const sensors::SensorSpec& s) {
  constexpr std::size_t kStripBuffer = 4096;
  const auto window_bytes =
      static_cast<std::size_t>(s.samples_per_window()) * s.sample_bytes;
  return s.sample_bytes >= kStripBuffer ? kStripBuffer : window_bytes;
}

}  // namespace

OffloadPlan OffloadPlanner::plan(const std::vector<apps::AppId>& candidates) const {
  OffloadPlan plan;
  std::size_t ram_left = hub_.mcu_available_ram();
  std::set<sensors::SensorId> buffered_sensors;  // window buffers are shared

  for (apps::AppId id : candidates) {
    const auto& spec = apps::spec_of(id);
    OffloadDecision d;

    // RAM ask = app state + window buffers for sensors not already buffered
    // by a previously-offloaded app (shared on the MCU).
    std::size_t ram_needed = spec.memory_footprint_bytes;
    for (auto s : spec.sensor_ids) {
      if (!buffered_sensors.contains(s)) ram_needed += sensor_buffer_bytes(sensors::spec_of(s));
    }

    if (!spec.offloadable_kernel()) {
      d.reason = "kernel has no MCU port (compute/memory beyond MCU class)";
    } else if (ram_needed > ram_left) {
      std::ostringstream os;
      os << "needs " << ram_needed << " B, only " << ram_left << " B of MCU RAM left";
      d.reason = os.str();
    } else {
      bool sensors_ok = true;
      for (auto s : spec.sensor_ids) {
        if (!sensors::spec_of(s).mcu_friendly) {
          d.reason = std::string{"sensor "} + sensors::spec_of(s).id + " is MCU-unfriendly";
          sensors_ok = false;
          break;
        }
      }
      if (sensors_ok) {
        // Throughput: kernel + per-window driver time must fit the window.
        sim::Duration driver = sim::Duration::zero();
        for (auto s : spec.sensor_ids) {
          const auto& sensor = sensors::spec_of(s);
          driver += sensor.driver_read_time() * sensor.samples_per_window();
        }
        if (spec.mcu_compute + driver > spec.window * 2) {
          d.reason = "MCU cannot sustain kernel + drivers within the QoS window";
        } else {
          d.offload = true;
          d.reason = "fits MCU RAM and throughput";
          ram_left -= ram_needed;
          plan.mcu_ram_used += ram_needed;
          for (auto s : spec.sensor_ids) buffered_sensors.insert(s);
        }
      }
    }
    plan.decisions.emplace(id, std::move(d));
  }
  return plan;
}

}  // namespace iotsim::core
