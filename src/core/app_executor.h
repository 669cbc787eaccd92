// Per-app execution under a scheme: the coroutine orchestration that turns
// a WorkloadSpec into hardware activity on the simulated hub.
//
// Topology per scenario (built by ScenarioRunner):
//
//   SensorStream ──(MCU sampler coroutine, strictly periodic)──┐
//     per-sample mode: pending queue + IRQ line;               │ deliver
//     CPU-side stream handler dispatches + transfers           ▼
//   WindowCollector[w]  — barrier per app per window
//     │ complete
//     ▼
//   cpu_loop / mcu_loop per mode:
//     kPerSample : CPU computes, main NIC uploads
//     kBatched   : MCU raises one IRQ per window, bulk transfer, CPU computes
//     kOffloaded : MCU computes + MCU NIC uploads, result IRQ wakes the CPU
//
// BEAM = per-sample apps whose common sensors share one SensorStream (one
// read, one interrupt, one transfer; fan-out on the CPU side).
#pragma once

#include <memory>
#include <vector>

#include "apps/iot_app.h"
#include "check/check.h"
#include "core/qos.h"
#include "core/reports.h"
#include "core/ring_fifo.h"
#include "core/scheme.h"
#include "env/fault_profile.h"
#include "env/hub_environment.h"
#include "hw/iot_hub.h"
#include "sensors/sensor.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "trace/memory_profiler.h"
#include "trace/mips_counter.h"

namespace iotsim::core {

class AppExecutor;

/// Per-app, per-window sample barrier. The readings are freed once the
/// window's kernel has run or the window was recorded lost; the counters
/// stay for the barrier and the crash accounting.
struct WindowCollector {
  apps::WindowInput input;
  std::size_t expected = 0;
  std::size_t received = 0;
  std::size_t lost = 0;  // of received: slots delivered as lost markers
  sim::Signal done;
  sim::Signal progress;  // notified on every delivered sample

  void add(sensors::SensorId id, sensors::Sample sample) {
    IOTSIM_CHECK_LT(received, expected, "reading delivered to a full window");
    input.add(id, std::move(sample));
    ++received;
    progress.notify_all();
    if (received == expected) done.notify_all();
  }
  /// A sample slot whose reading was lost (sensor fault after all retries,
  /// or the hub was down). Keeps the barrier arithmetic intact — received
  /// still counts towards expected — without feeding the kernel a phantom
  /// reading.
  void add_lost() {
    IOTSIM_CHECK_LT(received, expected, "lost slot delivered to a full window");
    ++lost;
    ++received;
    progress.notify_all();
    if (received == expected) done.notify_all();
  }
  [[nodiscard]] bool complete() const { return received >= expected; }

  /// Wire bytes of everything collected (bulk-transfer size).
  [[nodiscard]] std::size_t total_wire_bytes() const;
};

/// One periodic sampling stream on the MCU board. Shared by several apps
/// only under BEAM.
struct SensorStream {
  sensors::SensorId sensor_id{};
  sensors::Sensor* sensor = nullptr;
  hw::Bus* bus = nullptr;
  AppMode mode = AppMode::kPerSample;
  std::vector<AppExecutor*> subscribers;
  hw::IrqLine line = 0;  // per-sample handoff (kPerSample only)
  /// §II-B Task I fault model. Seeded by HubRuntime::start() from the hub
  /// RNG (one fork per stream, in stream order — the legacy fork sequence).
  std::unique_ptr<env::FaultProfile> fault;

  struct Pending {
    sensors::Sample sample;
    int window;
    /// The reading was lost (fault after retries / hub down): the handler
    /// dispatches the IRQ but skips the bus transfer and delivers a lost
    /// marker to the subscribers.
    bool lost = false;
  };
  RingFifo<Pending> pending;
  /// Handshake back to the sampler: the MCU holds the value on the PIO bus
  /// and waits until the CPU has picked it up (§II-A step 1 / Fig. 4's
  /// MCU-wait energy).
  sim::Signal transfer_done;
};

class AppExecutor {
 public:
  struct Tuning {
    int batch_flushes_per_window;
    double mcu_speed_factor;

    // Explicit constructor (not NSDMIs): a default argument of the
    // enclosing class could not instantiate member initializers before the
    // class is complete.
    Tuning(int flushes = 1, double factor = 1.0)
        : batch_flushes_per_window{flushes}, mcu_speed_factor{factor} {}
  };

  AppExecutor(sim::Simulator& sim, hw::IotHub& hub, apps::AppId id, AppMode mode, int windows,
              QosChecker& qos, trace::MipsCounter& mips, Tuning tuning = Tuning{1, 1.0});

  [[nodiscard]] const apps::WorkloadSpec& spec() const { return spec_; }
  [[nodiscard]] apps::AppId id() const { return spec_.id; }
  [[nodiscard]] AppMode mode() const { return mode_; }
  [[nodiscard]] WindowCollector& collector(int w) {
    return *collectors_.at(static_cast<std::size_t>(w));
  }
  void set_completion_line(hw::IrqLine line) { line_ = line; }
  /// Attaches the hub's environment (nullptr = legacy always-on hub). Must
  /// be called before the loops are spawned; the executor consults it for
  /// lost-window gating only.
  void set_environment(const env::HubEnvironment* environment) { env_ = environment; }

  /// CPU-side loop (all modes); spawn exactly once.
  [[nodiscard]] sim::Task<void> cpu_loop();
  /// MCU-side companion loop; spawn for kBatched and kOffloaded.
  [[nodiscard]] sim::Task<void> mcu_loop();

  /// Busy-time accounting on the app's critical path (Fig. 8).
  void add_busy(energy::Routine r, sim::Duration d);

  /// Extracts results once the simulation has drained.
  [[nodiscard]] AppResult build_result() const;

 private:
  [[nodiscard]] sim::Task<void> per_sample_cpu_window(int w);
  [[nodiscard]] sim::Task<void> batched_cpu_window(int w);
  [[nodiscard]] sim::Task<void> offloaded_cpu_window(int w);
  [[nodiscard]] sim::Task<void> batched_mcu_window(int w);
  [[nodiscard]] sim::Task<void> offloaded_mcu_window(int w);

  /// Runs the host kernel, frees the window's readings, fills the
  /// WindowRecord, returns the output.
  apps::WindowOutput run_kernel(int w);

  /// True when the hub's environment marked window `w` lost (crash or
  /// outage): the kernel, upload and QoS recording are skipped for it.
  [[nodiscard]] bool window_is_lost(int w) const {
    return env_ != nullptr && env_->window_lost(w);
  }
  /// Records a skipped window: the record survives (metric 0, lost marker)
  /// but no QoS window is booked — availability, not latency, captures it.
  /// Frees the window's readings.
  void record_lost_window(int w);

  /// Executes `total` of kernel time in preemptible slices, so interrupt
  /// handling and other apps interleave with long computations the way an
  /// OS timeslices them (critical for the heavy-weight A11).
  [[nodiscard]] sim::Task<void> execute_sliced(hw::Processor& p, sim::Duration total,
                                               energy::Routine attr);

  /// Blocking cloud/phone session driven by `host` over `nic`.
  [[nodiscard]] sim::Task<void> net_phase(hw::Processor& host, hw::Nic& nic,
                                          std::size_t upload_bytes);

  void record_completion(int w);

  sim::Simulator& sim_;
  hw::IotHub& hub_;
  const apps::WorkloadSpec& spec_;
  std::unique_ptr<apps::IotApp> app_;
  AppMode mode_;
  int windows_;
  QosChecker& qos_;
  trace::MipsCounter& mips_;
  hw::IrqLine line_ = 0;  // batched/offloaded completion line
  Tuning tuning_;
  const env::HubEnvironment* env_ = nullptr;  // nullptr = legacy always-on hub

  std::vector<std::unique_ptr<WindowCollector>> collectors_;
  std::vector<WindowRecord> records_;
  trace::MemoryProfiler memory_;
  BusyBreakdown busy_total_{};
};

}  // namespace iotsim::core
