#include "core/hub_runtime.h"

#include <utility>

#include "check/check.h"
#include "energy/energy_accountant.h"
#include "energy/energy_report.h"
#include "net/medium.h"

namespace iotsim::core {

using energy::Routine;
using sim::Duration;
using sim::Task;

HubRuntime::HubRuntime(sim::Simulator& sim, energy::EnergyAccountant& acct, Config cfg)
    : sim_{sim},
      acct_{acct},
      cfg_{std::move(cfg)},
      rng_{cfg_.seed},
      streams_{sim::ArenaAllocator<SensorStream>{cfg_.arena}},
      executors_{sim::ArenaAllocator<AppExecutor>{cfg_.arena}} {
  // The hub's components register contiguously from here — remember the
  // slice so the environment supervisor can read this hub's ledger share.
  comp_begin_ = acct.component_count();
  hub_ = std::make_unique<hw::IotHub>(sim_, acct, cfg_.spec, cfg_.component_scope);

  if (cfg_.env) {
    env_ = std::make_unique<env::HubEnvironment>(*cfg_.env, cfg_.seed, cfg_.windows,
                                                 sim::Duration::sec(1));
  }

  if (cfg_.medium != nullptr) {
    // Backoff RNGs come from the hub seed xor fixed per-NIC salts — NOT from
    // rng_.fork(), which would shift the fork sequence the sensors and fault
    // models consume and perturb every existing result. Slots 2i/2i+1 keep
    // attachment handles independent of cross-shard construction order (an
    // eagerly built fleet attached in exactly this order, so the handles —
    // and the per-attachment stats layout — are unchanged).
    hub_->main_nic().attach_medium(*cfg_.medium, sim::Rng{cfg_.seed ^ 0x6D61696E5F6E6963ull},
                                   2 * cfg_.hub_index);
    hub_->mcu_nic().attach_medium(*cfg_.medium, sim::Rng{cfg_.seed ^ 0x6D63755F6E696320ull},
                                  2 * cfg_.hub_index + 1);
  }

  // Offload plan (consulted by kCom / kBcom).
  OffloadPlanner planner{hub_->spec()};
  plan_ = planner.plan(cfg_.app_ids);

  // Decide each app's mode up front. Batching buffers must fit the MCU
  // RAM; apps that do not fit fall back to per-sample delivery.
  std::map<apps::AppId, AppMode> modes;
  for (apps::AppId id : cfg_.app_ids) {
    AppMode mode = mode_for(id, plan_);
    if (mode == AppMode::kBatched) {
      const std::size_t need = apps::spec_of(id).sensor_bytes_per_window();
      if (!hub_->mcu().reserve_ram(need)) {
        notes_[id] = "batch buffer does not fit MCU RAM; fell back to per-sample";
        mode = AppMode::kPerSample;
      }
    }
    modes[id] = mode;
  }
  if (cfg_.scheme == Scheme::kCom || cfg_.scheme == Scheme::kBcom) {
    (void)hub_->mcu().reserve_ram(plan_.mcu_ram_used);
  }

  // Executors.
  const AppExecutor::Tuning tuning{cfg_.batch_flushes_per_window, cfg_.mcu_speed_factor};
  for (apps::AppId id : cfg_.app_ids) {
    executors_.emplace_back(sim_, *hub_, id, modes[id], cfg_.windows, qos_, mips_, tuning);
  }

  // Sensors & buses — one physical instance per sensor id (per hub: fleet
  // hubs each own their physical sensors).
  for (apps::AppId id : cfg_.app_ids) {
    for (auto sid : apps::spec_of(id).sensor_ids) {
      if (!sensors_.contains(sid)) {
        auto sensor = sensors::make_sensor(sid, rng_, cfg_.world);
        buses_[sid] = &hub_->add_pio_bus(sensor->spec().id);
        sensors_[sid] = std::move(sensor);
      }
    }
  }
  comp_end_ = acct.component_count();
}

AppMode HubRuntime::mode_for(apps::AppId id, const OffloadPlan& plan) const {
  switch (cfg_.scheme) {
    case Scheme::kBaseline:
    case Scheme::kBeam:
      return AppMode::kPerSample;
    case Scheme::kBatching:
      return AppMode::kBatched;
    case Scheme::kCom:
      // COM where possible; where the MCU cannot host the app the paper's
      // COM column simply is not applicable — such apps run as baseline.
      return plan.offloaded(id) ? AppMode::kOffloaded : AppMode::kPerSample;
    case Scheme::kBcom:
      return plan.offloaded(id) ? AppMode::kOffloaded : AppMode::kBatched;
  }
  return AppMode::kPerSample;
}

void HubRuntime::start() {
  // Streams: shared per sensor under BEAM, exclusive per (app, sensor)
  // otherwise.
  if (cfg_.scheme == Scheme::kBeam) {
    std::map<sensors::SensorId, SensorStream*> shared;
    for (auto& exec : executors_) {
      for (auto sid : exec.spec().sensor_ids) {
        auto it = shared.find(sid);
        if (it == shared.end()) {
          SensorStream stream;
          stream.sensor_id = sid;
          stream.sensor = sensors_[sid].get();
          stream.bus = buses_[sid];
          stream.mode = AppMode::kPerSample;
          stream.subscribers = {&exec};
          streams_.push_back(std::move(stream));
          shared[sid] = &streams_.back();
        } else {
          it->second->subscribers.push_back(&exec);
        }
      }
    }
  } else {
    for (auto& exec : executors_) {
      for (auto sid : exec.spec().sensor_ids) {
        SensorStream stream;
        stream.sensor_id = sid;
        stream.sensor = sensors_[sid].get();
        stream.bus = buses_[sid];
        stream.mode = exec.mode();
        stream.subscribers = {&exec};
        streams_.push_back(std::move(stream));
      }
    }
  }

  // IRQ lines: one per per-sample stream, one per batched/offloaded app.
  // Streams also get their fault model seeded here — one rng_.fork() per
  // stream, in stream order: the legacy fork sequence, regardless of which
  // fault model the fork feeds.
  env::FaultProfileConfig fault_cfg;
  if (env_) {
    fault_cfg = env_->config().faults;
  } else {
    fault_cfg.fault_prob = cfg_.world.sensor_fault_prob;
  }
  for (auto& st : streams_) {
    st.fault = env::make_fault_profile(fault_cfg, rng_.fork());
    if (st.mode == AppMode::kPerSample) {
      st.line = hub_->irq().allocate_line("stream_" + st.sensor->spec().id);
    }
  }
  for (auto& exec : executors_) {
    exec.set_environment(env_.get());
    if (exec.mode() != AppMode::kPerSample) {
      exec.set_completion_line(
          hub_->irq().allocate_line(std::string{apps::code_of(exec.id())} + "_done"));
    }
  }

  // Spawn everything. The environment supervisor goes first: at shared
  // window-boundary timestamps it must run before the samplers, so the gate
  // for the next window is decided before any sampler consults it.
  if (env_ && env_->needs_supervisor()) {
    sim_.spawn(env_supervisor());
  }
  for (auto& st : streams_) {
    sim_.spawn(stream_sampler(&st));
    if (st.mode == AppMode::kPerSample) {
      sim_.spawn(stream_cpu_handler(&st));
    }
  }
  for (auto& exec : executors_) {
    sim_.spawn(exec.cpu_loop());
    if (exec.mode() != AppMode::kPerSample) {
      sim_.spawn(exec.mcu_loop());
    }
  }
}

Task<void> HubRuntime::stream_sampler(SensorStream* st) {
  const auto& sspec = st->sensor->spec();
  const int per_window = sspec.samples_per_window();
  const Duration window = st->subscribers.front()->spec().window;
  const Duration period = window / per_window;

  for (int w = 0; w < cfg_.windows; ++w) {
    for (int k = 0; k < per_window; ++k) {
      const sim::SimTime nominal = sim::SimTime::origin() + window * w + period * k;
      if (sim_.now() < nominal) {
        co_await hub_->mcu().wait(nominal - sim_.now(), hw::SleepPolicy::kLightSleep,
                                  Routine::kDataCollection);
      }
      // Down-gate: while the hub is crashed/rebooting or browned out the
      // driver never runs — no jitter record, no fault draw, no conversion,
      // no MCU work. The slot still delivers a lost marker so the window
      // barrier (and the per-sample IRQ count) stays intact.
      if (env_ != nullptr && env_->window_lost(w)) {
        env_->note_sample_lost_outage();
        co_await deliver_lost(st, w);
        continue;
      }

      const Duration jitter = sim_.now() - nominal;
      for (AppExecutor* sub : st->subscribers) {
        qos_.record_sample_jitter(sub->id(), jitter);
      }

      // §II-B Task I: check sensor availability. A failed check aborts the
      // read ("the MCU stops reading and throws an error"); the driver
      // backs off briefly and retries. Bounded retries keep the sample
      // count invariant — under the legacy iid model the final attempt
      // always reads; correlated/degrading profiles lose the sample after
      // three failed checks.
      int failed = 0;
      for (int attempt = 0; attempt < 3; ++attempt) {
        if (!st->fault->check_fails(sim_.now())) break;
        ++failed;
        ++sensor_read_errors_;
        co_await hub_->mcu().execute(sim::Duration::from_us(40.0),
                                     Routine::kDataCollection);  // check + error path
        co_await hub_->mcu().wait(sim::Duration::from_us(200.0),
                                  hw::SleepPolicy::kBusyWait, Routine::kDataCollection);
      }
      if (failed == 3 && !st->fault->delivers_after_failed_retries()) {
        if (env_ != nullptr) env_->note_sample_lost_fault();
        co_await deliver_lost(st, w);
        continue;
      }

      // §II-B's remaining tasks: check+convert inside the sensor (bus
      // powered, MCU free), then the driver's fetch+format on the MCU.
      // Analog sensors output continuously — there is no exclusive
      // conversion phase to serialise on (their datasheet latency is ADC
      // settling, absorbed in the driver fetch).
      const Duration conversion = sspec.conversion_time();
      if (!conversion.is_zero() && sspec.bus != sensors::BusType::kAnalog) {
        co_await st->bus->occupy(conversion, Routine::kDataCollection);
      }
      co_await hub_->mcu().execute(sspec.mcu_busy_time(), Routine::kDataCollection);
      st->subscribers.front()->add_busy(Routine::kDataCollection, sspec.mcu_busy_time());

      sensors::Sample sample = st->sensor->read(sim_.now());

      if (st->mode == AppMode::kPerSample) {
        st->pending.push_back(SensorStream::Pending{std::move(sample), w});
        co_await hub_->irq().raise(st->line);
        // The MCU must hold the value for the CPU: it waits, powered, until
        // the handler's transfer completes (Fig. 4's MCU-wait share).
        co_await hub_->mcu().wait_signal(
            st->transfer_done, hw::SleepPolicy::kBusyWait, Routine::kDataTransfer,
            hub_->spec().transfer_time(sspec.sample_bytes));
      } else {
        // Batching/offload: append to the MCU-side window buffer.
        co_await hub_->mcu().execute(hub_->spec().mcu_buffer_store,
                                     Routine::kDataCollection);
        st->subscribers.front()->collector(w).add(st->sensor_id, std::move(sample));
      }
    }
  }
}

Task<void> HubRuntime::stream_cpu_handler(SensorStream* st) {
  const auto& sspec = st->sensor->spec();
  const int per_window = sspec.samples_per_window();
  const Duration gap = st->subscribers.front()->spec().window / per_window;
  const std::int64_t total = static_cast<std::int64_t>(per_window) * cfg_.windows;

  // The baseline's defining inefficiency (Fig. 5a): the per-sample driver
  // blocks on the MCU, so the CPU stays in the active state for the whole
  // stream lifetime — it never sleeps while interrupts are in flight.
  auto idle_pin =
      hub_->cpu().constrain_idle(hw::SleepPolicy::kBusyWait, Routine::kDataTransfer);

  for (std::int64_t i = 0; i < total; ++i) {
    co_await hub_->irq().wait_and_dispatch(st->line, hw::SleepPolicy::kBusyWait,
                                           Routine::kDataTransfer, gap);
    AppExecutor* owner = st->subscribers.front();
    owner->add_busy(Routine::kInterrupt, hub_->spec().interrupt_dispatch);

    IOTSIM_CHECK(!st->pending.empty(),
                 "hub '%s' sensor '%s': IRQ dispatched with no pending sample at t=%s",
                 cfg_.name.c_str(), st->sensor->spec().id.c_str(),
                 sim_.now().to_string().c_str());
    SensorStream::Pending p = st->pending.pop_front();

    if (p.lost) {
      // Lost marker: no value is held on the bus — skip the transfer (the
      // sampler is not in the handshake; notify_all is a safe no-op) and
      // deliver loss markers to every subscriber.
      st->transfer_done.notify_all();
      for (AppExecutor* sub : st->subscribers) {
        sub->collector(p.window).add_lost();
      }
      continue;
    }

    const std::size_t bytes = p.sample.wire_bytes(sspec.sample_bytes);
    co_await hub_->transfer_to_cpu(bytes, Routine::kDataTransfer);
    owner->add_busy(Routine::kDataTransfer, hub_->spec().transfer_time(bytes));

    // Release the MCU from its bus-hold handshake.
    st->transfer_done.notify_all();

    // Fan the value out to every subscriber (BEAM's CPU-side sharing).
    for (std::size_t s = 0; s + 1 < st->subscribers.size(); ++s) {
      st->subscribers[s]->collector(p.window).add(st->sensor_id, p.sample);
    }
    st->subscribers.back()->collector(p.window).add(st->sensor_id, std::move(p.sample));
  }
  idle_pin.release();
}

Task<void> HubRuntime::deliver_lost(SensorStream* st, int w) {
  if (st->mode == AppMode::kPerSample) {
    // Keep the handler's fixed dispatch count: the IRQ still fires, but the
    // marker carries no value, so the sampler skips the bus-hold handshake.
    st->pending.push_back(SensorStream::Pending{sensors::Sample{}, w, /*lost=*/true});
    co_await hub_->irq().raise(st->line);
  } else {
    st->subscribers.front()->collector(w).add_lost();
  }
}

double HubRuntime::hub_joules() const {
  double joules = 0.0;
  for (std::size_t c = comp_begin_; c < comp_end_; ++c) {
    joules += acct_.component_joules(c);
  }
  return joules;
}

Task<void> HubRuntime::env_supervisor() {
  const Duration window = sim::Duration::sec(1);
  for (int w = 0; w < cfg_.windows; ++w) {
    const sim::SimTime begin = sim::SimTime::origin() + window * w;
    const sim::SimTime end = begin + window;

    if (const auto offset = env_->crash_at(w)) {
      co_await sim::Delay{*offset};
      // Whatever the MCU buffered for this window but has not flushed is
      // gone (the batching scheme's exposure to crashes). The window is
      // marked lost, so no kernel reads the collectors (the executors free
      // their readings when they record the loss); only the wiped samples
      // are counted here.
      std::uint64_t buffered = 0;
      for (auto& exec : executors_) {
        if (exec.mode() != AppMode::kPerSample) {
          const auto& col = exec.collector(w);
          buffered += static_cast<std::uint64_t>(col.received - col.lost);
        }
      }
      env_->apply_crash(w, buffered);
      if (end > sim_.now()) co_await sim::Delay{end - sim_.now()};
    } else {
      co_await sim::Delay{end - sim_.now()};
    }

    // Window boundary: bill the hub's ledger delta to the power source and
    // decide the gate for the next window. The flush (which splits open
    // power segments) only happens for finite sources — a mains hub's
    // ledger must stay byte-identical to the legacy single-flush run.
    double consumed = 0.0;
    if (env_->power_limited()) {
      hub_->flush_power();
      const double joules = hub_joules();
      consumed = joules - last_hub_joules_;
      last_hub_joules_ = joules;
    }
    env_->end_of_window(w, begin, end, consumed);
  }
}

HubResult HubRuntime::harvest(const energy::EnergyAccountant& acct, sim::Duration span) const {
  HubResult hr;
  hr.name = cfg_.name;
  // The hub's components registered contiguously at construction; on the
  // single-hub path they are the whole ledger.
  hr.energy = energy::EnergyReport::from_accountant(acct, span, comp_begin_, comp_end_);
  hr.plan = plan_;
  hr.notes = notes_;
  hr.interrupts_raised = hub_->irq().raised_count();
  hr.cpu_wakeups = hub_->cpu().wakeup_count();
  hr.sensor_read_errors = sensor_read_errors_;
  hr.availability = availability();
  for (const hw::Nic* nic : {&hub_->main_nic(), &hub_->mcu_nic()}) {
    if (const net::AirtimeStats* stats = nic->airtime_stats()) {
      hr.airtime_wait += stats->airtime_wait;
      hr.airtime_grants += stats->grants;
      hr.net_retries += stats->retries;
      hr.net_drops += stats->drops;
    }
  }
  hr.qos_met = qos_.all_met();
  hr.qos_summary = qos_.summary();
  for (const auto& exec : executors_) {
    hr.apps.emplace(exec.id(), exec.build_result());
  }
  return hr;
}

}  // namespace iotsim::core
