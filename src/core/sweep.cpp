#include "core/sweep.h"

#include <bit>
#include <cstring>
#include <utility>
#include <exception>
#include <limits>
#include <thread>

#include "cache/result_cache.h"
#include "core/scenario_runner.h"
#include "core/thread_pool.h"

namespace iotsim::core {

namespace {

/// Appends primitives to a byte buffer in a fixed, platform-independent
/// layout (little-endian integers, IEEE-754 bit patterns for doubles).
class ByteSink {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void dur(sim::Duration d) { i64(d.count_ns()); }

  [[nodiscard]] std::string take() && { return std::move(bytes_); }

 private:
  std::string bytes_;
};

ScenarioResult invalid_result(const Scenario& sc, std::vector<ScenarioError> errors) {
  ScenarioResult r;
  r.scheme = sc.scheme;
  r.errors = std::move(errors);
  r.qos_met = false;
  return r;
}

void append_app_list(ByteSink& s, const std::vector<apps::AppId>& ids) {
  s.size(ids.size());
  for (apps::AppId id : ids) s.u8(static_cast<std::uint8_t>(id));
}

void append_world(ByteSink& s, const sensors::WorldConfig& w) {
  s.size(w.quakes.size());
  for (const auto& q : w.quakes) {
    s.f64(q.start_s);
    s.f64(q.duration_s);
    s.f64(q.magnitude);
  }
  s.size(w.utterances.size());
  for (const auto& u : w.utterances) {
    s.f64(u.start_s);
    s.i32(u.word_id);
  }
  s.f64(w.heart_bpm);
  s.f64(w.heart_irregular_prob);
  s.f64(w.walking_cadence_hz);
}

void append_environment(ByteSink& s, const env::EnvironmentConfig& e) {
  s.u8(static_cast<std::uint8_t>(e.faults.model));
  s.f64(e.faults.fault_prob);
  s.f64(e.faults.burst_enter_prob);
  s.f64(e.faults.burst_exit_prob);
  s.f64(e.faults.good_fault_prob);
  s.f64(e.faults.burst_fault_prob);
  s.f64(e.faults.degrade_per_hour);
  s.f64(e.faults.degrade_cap);
  s.f64(e.crash.crash_prob_per_window);
  s.i32(e.crash.reboot_windows);
  s.u8(static_cast<std::uint8_t>(e.power.model));
  s.f64(e.power.battery_capacity_wh);
  s.f64(e.power.battery_usable_fraction);
  s.f64(e.power.initial_soc);
  s.f64(e.power.resume_soc);
  s.f64(e.power.harvest.peak_w);
  s.f64(e.power.harvest.period_s);
  s.f64(e.power.harvest.duty);
  s.f64(e.power.harvest.phase_s);
}

void append_hub_spec(ByteSink& s, const hw::HubSpec& h) {
  s.f64(h.cpu.active_w);
  s.f64(h.cpu.busy_w);
  s.f64(h.cpu.light_sleep_w);
  s.f64(h.cpu.deep_sleep_w);
  s.f64(h.cpu.transition_w);
  s.dur(h.cpu.light_wake_latency);
  s.dur(h.cpu.deep_wake_latency);
  s.f64(h.mcu.active_w);
  s.f64(h.mcu.sleep_w);
  s.f64(h.mcu.transition_w);
  s.dur(h.mcu.wake_latency);
  for (const auto& bus : {h.pio_bus, h.link_bus}) {
    s.f64(bus.active_w);
    s.f64(bus.idle_w);
  }
  for (const auto& nic : {h.main_nic, h.mcu_nic}) {
    s.f64(nic.tx_w);
    s.f64(nic.rx_w);
    s.f64(nic.idle_w);
    s.f64(nic.bytes_per_second);
    s.dur(nic.tail);
  }
  s.f64(h.main_board_base_w);
  s.f64(h.mcu_board_base_w);
  s.u8(h.dma_enabled ? 1 : 0);
  s.dur(h.dma_setup);
  s.dur(h.transfer_fixed_overhead);
  s.dur(h.transfer_per_byte);
  s.dur(h.interrupt_raise);
  s.dur(h.interrupt_dispatch);
  s.size(h.mcu_ram_bytes);
  s.size(h.mcu_firmware_reserved);
  s.dur(h.mcu_buffer_store);
  s.f64(h.cpu_nominal_mips);
  s.f64(h.mcu_nominal_mips);
}

}  // namespace

std::string scenario_key(const Scenario& sc) {
  // Keep in sync with the fields of Scenario, sensors::WorldConfig,
  // hw::HubSpec, core::HubInstance and the energy::*PowerSpec structs (see
  // the note in core/scenario.h; tests/core/test_scenario_key.cpp mutates
  // every field). A version tag guards persisted keys against layout drift.
  ByteSink s;
  s.u64(0x696F7453696D3036ull);  // "iotSim06": drops world.sensor_fault_prob

  append_app_list(s, sc.app_ids);
  s.u8(static_cast<std::uint8_t>(sc.scheme));
  s.i32(sc.windows);
  s.u64(sc.seed);
  s.u8(sc.record_power_trace ? 1 : 0);
  s.i32(sc.batch_flushes_per_window);
  s.f64(sc.mcu_speed_factor);

  append_world(s, sc.world);
  append_hub_spec(s, sc.hub);

  // --- shared uplink ---
  s.u8(sc.network.has_value() ? 1 : 0);
  if (sc.network) {
    s.f64(sc.network->bytes_per_second);
    s.i32(sc.network->queue_depth);
    s.u8(static_cast<std::uint8_t>(sc.network->backoff));
    s.dur(sc.network->backoff_slot);
    s.i32(sc.network->max_backoff_exponent);
    s.dur(sc.network->reservation_window);
  }

  // --- environment (scenario-level default) ---
  s.u8(sc.environment.has_value() ? 1 : 0);
  if (sc.environment) append_environment(s, *sc.environment);

  // --- fleet ---
  s.size(sc.hubs.size());
  for (const auto& inst : sc.hubs) {
    append_hub_spec(s, inst.hub);
    append_app_list(s, inst.app_ids);
    s.u8(inst.world.has_value() ? 1 : 0);
    if (inst.world) append_world(s, *inst.world);
    s.u8(inst.environment.has_value() ? 1 : 0);
    if (inst.environment) append_environment(s, *inst.environment);
    s.i32(inst.count);
  }

  return std::move(s).take();
}

SweepRunner::SweepRunner() = default;

SweepRunner::SweepRunner(SweepOptions opts) : opts_{std::move(opts)} {
  // The disk tier sits under the memo: without memoization there is no
  // content key per run() slot to address entries with.
  if (opts_.memoize && !opts_.cache_dir.empty()) {
    disk_ = std::make_unique<cache::ResultCache>(opts_.cache_dir);
  }
}

SweepRunner::~SweepRunner() = default;

int SweepRunner::jobs() const {
  if (opts_.jobs > 0) return opts_.jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<ScenarioResult> SweepRunner::run(const std::vector<Scenario>& scenarios) {
  const std::size_t n = scenarios.size();
  stats_.scheduled += n;

  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::shared_ptr<const ScenarioResult>> slots(n);
  std::vector<std::size_t> alias_of(n, kNone);  // duplicate → producing index
  std::unordered_map<std::string, std::size_t> producer;  // key → producing index
  // Insertion-ordered view of `producer`: cache_ is populated from this so
  // the fill order follows the input batch, not the hash-table layout.
  std::vector<std::pair<std::string, std::size_t>> produced;
  std::vector<std::size_t> to_run;
  to_run.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    if (auto errors = scenarios[i].validate(); !errors.empty()) {
      ++stats_.invalid;
      slots[i] = std::make_shared<const ScenarioResult>(
          invalid_result(scenarios[i], std::move(errors)));
      continue;
    }
    if (!opts_.memoize) {
      to_run.push_back(i);
      continue;
    }
    std::string key = scenario_key(scenarios[i]);
    if (auto it = cache_.find(key); it != cache_.end()) {
      ++stats_.cache_hits;
      slots[i] = it->second;
      continue;
    }
    if (auto it = producer.find(key); it != producer.end()) {
      ++stats_.cache_hits;
      alias_of[i] = it->second;
      continue;
    }
    if (disk_) {
      if (auto hit = disk_->lookup(key)) {
        ++stats_.disk_hits;
        slots[i] = std::move(hit);
        cache_.emplace(std::move(key), slots[i]);  // promote into the memo
        continue;
      }
    }
    producer.emplace(key, i);
    produced.emplace_back(std::move(key), i);
    to_run.push_back(i);
  }

  // Fan the distinct scenarios out. Each job writes only its own slot, so
  // the result order is the input order regardless of scheduling; a scenario
  // is simulated by a self-contained Simulator seeded from its own content,
  // which is what makes the numbers bit-identical at any thread count.
  if (!to_run.empty()) {
    std::vector<std::exception_ptr> failures(to_run.size());
    {
      ThreadPool pool{static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(jobs()), to_run.size()))};
      for (std::size_t k = 0; k < to_run.size(); ++k) {
        const std::size_t idx = to_run[k];
        pool.submit([this, &scenarios, &slots, &failures, k, idx] {
          try {
            slots[idx] = std::make_shared<const ScenarioResult>(
                run_scenario(scenarios[idx], opts_.exec));
          } catch (...) {
            failures[k] = std::current_exception();
          }
        });
      }
      pool.wait_idle();
    }
    for (const auto& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
    stats_.executed += to_run.size();
    for (const std::size_t idx : to_run) {
      stats_.events_dispatched += slots[idx]->energy.kernel().events_dispatched;
    }
  }

  if (opts_.memoize) {
    // Persist executed results before the memo consumes the keys. Stores
    // run serially on this thread, in batch insertion order — determinism
    // costs nothing here, the workers are already joined.
    if (disk_) {
      for (const auto& [key, idx] : produced) {
        if (disk_->store(key, *slots[idx])) ++stats_.disk_stores;
      }
    }
    for (auto& [key, idx] : produced) cache_.emplace(std::move(key), slots[idx]);
    for (std::size_t i = 0; i < n; ++i) {
      if (alias_of[i] != kNone) slots[i] = slots[alias_of[i]];
    }
  }

  std::vector<ScenarioResult> results;
  results.reserve(n);
  for (const auto& slot : slots) results.push_back(*slot);
  return results;
}

ScenarioResult SweepRunner::run_one(const Scenario& scenario) {
  ++stats_.scheduled;
  if (auto errors = scenario.validate(); !errors.empty()) {
    ++stats_.invalid;
    return invalid_result(scenario, std::move(errors));
  }
  if (!opts_.memoize) {
    ++stats_.executed;
    ScenarioResult result = run_scenario(scenario, opts_.exec);
    stats_.events_dispatched += result.energy.kernel().events_dispatched;
    return result;
  }
  std::string key = scenario_key(scenario);
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++stats_.cache_hits;
    return *it->second;
  }
  if (disk_) {
    if (auto hit = disk_->lookup(key)) {
      ++stats_.disk_hits;
      cache_.emplace(std::move(key), hit);
      return *hit;
    }
  }
  auto result = std::make_shared<const ScenarioResult>(run_scenario(scenario, opts_.exec));
  ++stats_.executed;
  stats_.events_dispatched += result->energy.kernel().events_dispatched;
  if (disk_ && disk_->store(key, *result)) ++stats_.disk_stores;
  cache_.emplace(std::move(key), result);
  return *result;
}

}  // namespace iotsim::core
