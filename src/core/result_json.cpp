#include "core/result_json.h"

#include "codecs/json/json_writer.h"

namespace iotsim::core {

namespace {

using codecs::json::Value;

Value busy_to_json(const BusyBreakdown& b) {
  Value v;
  v["data_collection_ms"] = Value{b.data_collection.to_ms()};
  v["interrupt_ms"] = Value{b.interrupt.to_ms()};
  v["data_transfer_ms"] = Value{b.data_transfer.to_ms()};
  v["computation_ms"] = Value{b.computation.to_ms()};
  v["total_ms"] = Value{b.total().to_ms()};
  return v;
}

Value qos_to_json(const AppQos& q) {
  Value v;
  v["windows"] = Value{static_cast<int>(q.windows)};
  v["deadline_misses"] = Value{static_cast<int>(q.deadline_misses)};
  v["mean_latency_ms"] = Value{q.mean_latency().to_ms()};
  v["worst_latency_ms"] = Value{q.worst_latency.to_ms()};
  v["worst_sample_jitter_ms"] = Value{q.worst_sample_jitter.to_ms()};
  return v;
}

Value app_to_json(const AppResult& a) {
  Value v;
  v["mode"] = Value{std::string{to_string(a.mode)}};
  v["heap_peak_bytes"] = Value{static_cast<double>(a.heap_peak_bytes)};
  v["stack_peak_bytes"] = Value{static_cast<double>(a.stack_peak_bytes)};
  v["instructions"] = Value{static_cast<double>(a.instructions)};
  v["qos"] = qos_to_json(a.qos);
  v["busy_per_window"] = busy_to_json(a.busy_per_window);
  Value records;
  for (const auto& rec : a.records) {
    Value r;
    r["window"] = Value{rec.window};
    r["started_s"] = Value{rec.started.to_seconds()};
    r["completed_s"] = Value{rec.completed.to_seconds()};
    r["summary"] = Value{rec.summary};
    r["metric"] = Value{rec.metric};
    r["event"] = Value{rec.event};
    records.push_back(std::move(r));
  }
  v["records"] = std::move(records);
  return v;
}

/// Adds "energy_by_routine_j" / "energy_by_component_j" keys to `v`.
void add_energy_json(Value& v, const energy::EnergyReport& report) {
  Value by_routine;
  for (auto r : energy::kAllRoutines) {
    by_routine[std::string{to_string(r)}] = Value{report.joules(r)};
  }
  Value by_component;
  for (const auto& [name, row] : report.by_component()) {
    double total = 0.0;
    for (double j : row) total += j;
    by_component[name] = Value{total};
  }
  v["energy_by_routine_j"] = std::move(by_routine);
  v["energy_by_component_j"] = std::move(by_component);
}

Value plan_to_json(const OffloadPlan& plan) {
  Value v;
  for (const auto& [id, d] : plan.decisions) {
    Value decision;
    decision["offload"] = Value{d.offload};
    decision["reason"] = Value{d.reason};
    v[std::string{apps::code_of(id)}] = std::move(decision);
  }
  return v;
}

Value notes_to_json(const std::map<apps::AppId, std::string>& notes) {
  Value v;
  for (const auto& [id, note] : notes) {
    v[std::string{apps::code_of(id)}] = Value{note};
  }
  return v;
}

Value availability_to_json(const env::AvailabilityStats& a) {
  Value v;
  v["modeled"] = Value{a.modeled};
  v["power_limited"] = Value{a.power_limited};
  v["uptime_fraction"] = Value{a.uptime_fraction};
  v["reboots"] = Value{static_cast<double>(a.reboots)};
  v["windows_lost"] = Value{static_cast<double>(a.windows_lost)};
  v["samples_lost_faults"] = Value{static_cast<double>(a.samples_lost_faults)};
  v["samples_lost_outage"] = Value{static_cast<double>(a.samples_lost_outage)};
  v["samples_lost_crash"] = Value{static_cast<double>(a.samples_lost_crash)};
  v["downtime_s"] = Value{a.downtime.to_seconds()};
  v["harvested_j"] = Value{a.harvested_j};
  v["billed_j"] = Value{a.billed_j};
  v["stored_j"] = Value{a.stored_j};
  v["energy_neutral_margin"] = Value{a.energy_neutral_margin()};
  return v;
}

/// Adds "apps", "offload_plan", "mcu_ram_used_bytes" and "notes" keys to `v`.
void add_app_sections(Value& v, const HubResult& h) {
  Value apps_v;
  for (const auto& [id, res] : h.apps) {
    apps_v[std::string{apps::code_of(id)}] = app_to_json(res);
  }
  v["apps"] = std::move(apps_v);
  v["offload_plan"] = plan_to_json(h.plan);
  v["mcu_ram_used_bytes"] = Value{static_cast<double>(h.plan.mcu_ram_used)};
  v["notes"] = notes_to_json(h.notes);
}

Value hub_to_json(const HubResult& h) {
  Value v;
  v["name"] = Value{h.name};
  v["total_joules"] = Value{h.total_joules()};
  v["interrupts_raised"] = Value{static_cast<double>(h.interrupts_raised)};
  v["cpu_wakeups"] = Value{static_cast<double>(h.cpu_wakeups)};
  v["sensor_read_errors"] = Value{static_cast<double>(h.sensor_read_errors)};
  v["availability"] = availability_to_json(h.availability);
  v["airtime_wait_ms"] = Value{h.airtime_wait.to_ms()};
  v["airtime_grants"] = Value{static_cast<double>(h.airtime_grants)};
  v["net_retries"] = Value{static_cast<double>(h.net_retries)};
  v["net_drops"] = Value{static_cast<double>(h.net_drops)};
  v["qos_met"] = Value{h.qos_met};
  add_energy_json(v, h.energy);
  add_app_sections(v, h);
  return v;
}

}  // namespace

Value to_json(const ScenarioResult& result) {
  Value v;
  v["scheme"] = Value{std::string{to_string(result.scheme)}};
  v["span_s"] = Value{result.span.to_seconds()};
  v["total_joules"] = Value{result.total_joules()};
  v["average_watts"] = Value{result.average_watts()};
  v["interrupts_raised"] = Value{static_cast<double>(result.interrupts_raised)};
  v["cpu_wakeups"] = Value{static_cast<double>(result.cpu_wakeups)};
  v["qos_met"] = Value{result.qos_met};

  add_energy_json(v, result.energy);

  // A single-hub result repeats its hub's per-app sections at the top
  // level; a fleet (even of one hub) and an invalid result leave them empty.
  if (!result.fleet && !result.hubs.empty()) {
    add_app_sections(v, result.hubs.front());
  } else {
    add_app_sections(v, HubResult{});
  }

  {
    const energy::CongestionSummary& c = result.energy.congestion();
    Value net_v;
    net_v["modeled"] = Value{c.modeled};
    net_v["utilization"] = Value{c.utilization};
    net_v["airtime_wait_ms"] = Value{c.airtime_wait.to_ms()};
    net_v["grants"] = Value{static_cast<double>(c.grants)};
    net_v["retries"] = Value{static_cast<double>(c.retries)};
    net_v["drops"] = Value{static_cast<double>(c.drops)};
    v["network"] = std::move(net_v);
  }

  {
    // Only the deterministic kernel counter is serialized: peak queue depth
    // and scheduler kind vary with execution shape (sharding splits the
    // population), and results must be byte-identical across ExecPolicies.
    const energy::KernelSummary& k = result.energy.kernel();
    Value kernel_v;
    kernel_v["events_dispatched"] = Value{static_cast<double>(k.events_dispatched)};
    v["kernel"] = std::move(kernel_v);
  }

  {
    const energy::AvailabilitySummary& a = result.energy.availability();
    Value avail_v;
    avail_v["modeled"] = Value{a.modeled};
    avail_v["hubs_modeled"] = Value{static_cast<double>(a.hubs_modeled)};
    avail_v["reboots"] = Value{static_cast<double>(a.reboots)};
    avail_v["windows_lost"] = Value{static_cast<double>(a.windows_lost)};
    avail_v["samples_lost_faults"] = Value{static_cast<double>(a.samples_lost_faults)};
    avail_v["samples_lost_outage"] = Value{static_cast<double>(a.samples_lost_outage)};
    avail_v["samples_lost_crash"] = Value{static_cast<double>(a.samples_lost_crash)};
    avail_v["downtime_s"] = Value{a.downtime.to_seconds()};
    avail_v["harvested_j"] = Value{a.harvested_j};
    avail_v["billed_j"] = Value{a.billed_j};
    avail_v["energy_neutral_margin"] = Value{a.energy_neutral_margin()};
    v["availability"] = std::move(avail_v);
  }

  Value hubs_v;
  for (const auto& h : result.hubs) {
    hubs_v.push_back(hub_to_json(h));
  }
  v["hubs"] = std::move(hubs_v);
  return v;
}

std::string to_json_text(const ScenarioResult& result) {
  return codecs::json::dump(to_json(result));
}

}  // namespace iotsim::core
