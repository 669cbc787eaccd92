#include "core/app_executor.h"

#include <cassert>

#include "sim/join.h"

namespace iotsim::core {

using energy::Routine;
using sim::Duration;
using sim::Task;

std::size_t WindowCollector::total_wire_bytes() const {
  std::size_t bytes = 0;
  for (sensors::SensorId id : input.sensors()) {
    bytes += input.of(id).wire_bytes(sensors::spec_of(id).sample_bytes);
  }
  return bytes;
}

AppExecutor::AppExecutor(sim::Simulator& sim, hw::IotHub& hub, apps::AppId id, AppMode mode,
                         int windows, QosChecker& qos, trace::MipsCounter& mips, Tuning tuning)
    : sim_{sim},
      hub_{hub},
      spec_{apps::spec_of(id)},
      app_{apps::make_app(id)},
      mode_{mode},
      windows_{windows},
      qos_{qos},
      mips_{mips},
      tuning_{tuning} {
  assert(windows > 0);
  assert(tuning_.batch_flushes_per_window >= 1);
  const auto expected = static_cast<std::size_t>(spec_.interrupts_per_window());
  records_.resize(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    auto col = std::make_unique<WindowCollector>();
    col->expected = expected;
    col->input = apps::WindowInput{spec_.sensor_ids, sim::SimTime::origin() + spec_.window * w};
    collectors_.push_back(std::move(col));
  }
}

void AppExecutor::add_busy(Routine r, Duration d) {
  switch (r) {
    case Routine::kDataCollection: busy_total_.data_collection += d; break;
    case Routine::kInterrupt: busy_total_.interrupt += d; break;
    case Routine::kDataTransfer: busy_total_.data_transfer += d; break;
    case Routine::kComputation:
    case Routine::kNetwork: busy_total_.computation += d; break;
    case Routine::kIdle: break;
  }
}

apps::WindowOutput AppExecutor::run_kernel(int w) {
  trace::Workspace ws{memory_};
  apps::WindowInput& input = collector(w).input;
  apps::WindowOutput out = app_->process_window(input, ws);
  input.release();  // the window's readings are spent
  mips_.add(spec_.code, static_cast<std::uint64_t>(spec_.fig6_mips * 1e6));

  auto& rec = records_[static_cast<std::size_t>(w)];
  rec.window = w;
  rec.started = input.window_start;
  rec.summary = out.summary;
  rec.metric = out.metric;
  rec.event = out.event;
  return out;
}

void AppExecutor::record_completion(int w) {
  auto& rec = records_[static_cast<std::size_t>(w)];
  rec.completed = sim_.now();
  qos_.record_window(spec_.id, rec.started, rec.completed);
}

void AppExecutor::record_lost_window(int w) {
  apps::WindowInput& input = collector(w).input;
  input.release();  // no kernel reads a lost window's readings
  auto& rec = records_[static_cast<std::size_t>(w)];
  rec.window = w;
  rec.started = input.window_start;
  rec.completed = sim_.now();
  rec.summary = "window lost: hub down";
  rec.metric = 0.0;
  rec.event = false;
}

Task<void> AppExecutor::net_phase(hw::Processor& host, hw::Nic& nic, std::size_t upload_bytes) {
  const auto& net = spec_.net;
  // Protocol round trips: short bursts of host work, radio-idle waits.
  for (int i = 0; i < net.round_trips; ++i) {
    co_await host.execute(Duration::from_ms(1.0), Routine::kNetwork);
    add_busy(Routine::kNetwork, Duration::from_ms(1.0));
    co_await host.wait(net.rtt, hw::SleepPolicy::kLightSleep, Routine::kNetwork);
  }
  if (upload_bytes > 0) {
    const Duration wire = nic.wire_time(upload_bytes);
    co_await sim::when_all(sim_, nic.transmit(upload_bytes),
                           host.execute(wire, Routine::kNetwork));
    add_busy(Routine::kNetwork, wire);
  }
  if (net.download_bytes > 0) {
    const Duration wire = nic.wire_time(net.download_bytes);
    co_await sim::when_all(sim_, nic.receive(net.download_bytes),
                           host.execute(wire, Routine::kNetwork));
    add_busy(Routine::kNetwork, wire);
  }
}


Task<void> AppExecutor::execute_sliced(hw::Processor& p, Duration total,
                                       energy::Routine attr) {
  static const Duration kSlice = Duration::from_ms(0.1);
  Duration remaining = total;
  while (remaining > Duration::zero()) {
    const Duration slice = remaining < kSlice ? remaining : kSlice;
    co_await p.execute(slice, attr);
    remaining -= slice;
  }
}

// ------------------------------------------------------------ CPU side ----


Task<void> AppExecutor::per_sample_cpu_window(int w) {
  auto& col = collector(w);
  // The per-stream handlers fill the collector; this loop only waits for
  // the barrier (the CPU-side waiting cost lives in the handlers).
  while (!col.complete()) co_await col.done.wait();

  if (window_is_lost(w)) {
    record_lost_window(w);
    co_return;
  }
  co_await execute_sliced(hub_.cpu(), spec_.cpu_compute, Routine::kComputation);
  add_busy(Routine::kComputation, spec_.cpu_compute);
  const auto out = run_kernel(w);
  if (spec_.net.active() && out.net_payload_bytes > 0) {
    co_await net_phase(hub_.cpu(), hub_.main_nic(), out.net_payload_bytes);
  }
  record_completion(w);
}

Task<void> AppExecutor::batched_cpu_window(int w) {
  // One interrupt + bulk transfer per flush (the paper's Batching has one
  // flush per window; the batch-size ablation uses more). Between flushes
  // the CPU may sleep as deep as the flush gap's break-even allows.
  const int flushes = tuning_.batch_flushes_per_window;
  const Duration flush_gap = spec_.window / flushes;
  const std::size_t declared = spec_.sensor_bytes_per_window();
  for (int f = 0; f < flushes; ++f) {
    co_await hub_.irq().wait_and_dispatch(line_, hw::SleepPolicy::kLightSleep,
                                          Routine::kDataTransfer, flush_gap);
    add_busy(Routine::kInterrupt, hub_.spec().interrupt_dispatch);
    // Last flush carries any blob remainder: size from actuals.
    std::size_t bytes = declared / static_cast<std::size_t>(flushes);
    if (f + 1 == flushes) {
      const std::size_t actual = collector(w).total_wire_bytes();
      const std::size_t sent = bytes * static_cast<std::size_t>(flushes - 1);
      bytes = actual > sent ? actual - sent : 0;
    }
    const Duration transfer = hub_.spec().transfer_time(bytes);
    co_await hub_.transfer_to_cpu(bytes, Routine::kDataTransfer);
    add_busy(Routine::kDataTransfer, transfer);
  }

  if (window_is_lost(w)) {
    record_lost_window(w);
    co_return;
  }
  co_await execute_sliced(hub_.cpu(), spec_.cpu_compute, Routine::kComputation);
  add_busy(Routine::kComputation, spec_.cpu_compute);
  const auto out = run_kernel(w);
  if (spec_.net.active() && out.net_payload_bytes > 0) {
    co_await net_phase(hub_.cpu(), hub_.main_nic(), out.net_payload_bytes);
  }
  record_completion(w);
}

Task<void> AppExecutor::offloaded_cpu_window(int w) {
  // The CPU idles in deep sleep for the whole offloaded window; its sleep
  // energy books under Computation, the way Fig. 9 accounts it.
  co_await hub_.irq().wait_and_dispatch(line_, hw::SleepPolicy::kDeepSleep,
                                        Routine::kComputation, spec_.window);
  add_busy(Routine::kInterrupt, hub_.spec().interrupt_dispatch);
  if (window_is_lost(w)) {
    record_lost_window(w);
    co_return;
  }
  co_await hub_.transfer_to_cpu(spec_.result_bytes, Routine::kComputation);
  record_completion(w);
}

Task<void> AppExecutor::cpu_loop() {
  for (int w = 0; w < windows_; ++w) {
    switch (mode_) {
      case AppMode::kPerSample: co_await per_sample_cpu_window(w); break;
      case AppMode::kBatched: co_await batched_cpu_window(w); break;
      case AppMode::kOffloaded: co_await offloaded_cpu_window(w); break;
    }
  }
}

// ------------------------------------------------------------ MCU side ----

Task<void> AppExecutor::batched_mcu_window(int w) {
  auto& col = collector(w);
  const int flushes = tuning_.batch_flushes_per_window;
  for (int f = 1; f <= flushes; ++f) {
    const std::size_t threshold =
        f == flushes ? col.expected
                     : col.expected * static_cast<std::size_t>(f) /
                           static_cast<std::size_t>(flushes);
    while (col.received < threshold) co_await col.progress.wait();
    co_await hub_.irq().raise(line_);
  }
}

Task<void> AppExecutor::offloaded_mcu_window(int w) {
  auto& col = collector(w);
  while (!col.complete()) co_await col.done.wait();

  if (window_is_lost(w)) {
    // Nothing to compute or upload; still wake the CPU so its window loop
    // advances (the completion IRQ doubles as the reboot heartbeat).
    co_await hub_.irq().raise(line_);
    co_return;
  }
  const Duration mcu_time =
      sim::Duration::from_seconds(spec_.mcu_compute.to_seconds() * tuning_.mcu_speed_factor);
  co_await execute_sliced(hub_.mcu(), mcu_time, Routine::kComputation);
  add_busy(Routine::kComputation, mcu_time);
  const auto out = run_kernel(w);
  if (spec_.net.active() && out.net_payload_bytes > 0) {
    // The ESP8266's own radio carries the cloud session; the main CPU
    // stays asleep (§III-B4's source of savings for cloud apps).
    co_await net_phase(hub_.mcu(), hub_.mcu_nic(), out.net_payload_bytes);
  }
  co_await hub_.irq().raise(line_);
}

Task<void> AppExecutor::mcu_loop() {
  assert(mode_ != AppMode::kPerSample);
  for (int w = 0; w < windows_; ++w) {
    if (mode_ == AppMode::kBatched) {
      co_await batched_mcu_window(w);
    } else {
      co_await offloaded_mcu_window(w);
    }
  }
}

AppResult AppExecutor::build_result() const {
  AppResult r;
  r.records = records_;
  r.qos = qos_.of(spec_.id);
  r.mode = mode_;
  r.heap_peak_bytes = memory_.peak_heap_bytes();
  r.stack_peak_bytes = memory_.peak_stack_bytes();
  r.instructions = mips_.instructions(spec_.code);
  const auto n = static_cast<std::int64_t>(windows_);
  r.busy_per_window = BusyBreakdown{
      busy_total_.data_collection / n,
      busy_total_.interrupt / n,
      busy_total_.data_transfer / n,
      busy_total_.computation / n,
  };
  return r;
}

}  // namespace iotsim::core
