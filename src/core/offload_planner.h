// Decides which apps fit the MCU (§III-B1/§IV-E3): the light/heavy
// classification behind COM and BCOM.
#pragma once

#include <map>
#include <utility>
#include <string>
#include <vector>

#include "apps/workload_spec.h"
#include "hw/boards.h"

namespace iotsim::core {

struct OffloadDecision {
  bool offload = false;
  std::string reason;  // why the app was (not) offloaded
};

struct OffloadPlan {
  std::map<apps::AppId, OffloadDecision> decisions;
  std::size_t mcu_ram_used = 0;

  [[nodiscard]] bool offloaded(apps::AppId id) const {
    auto it = decisions.find(id);
    return it != decisions.end() && it->second.offload;
  }
};

class OffloadPlanner {
 public:
  /// Takes the spec by value: callers often pass a temporary
  /// (default_hub_spec()), and a stored reference would dangle.
  explicit OffloadPlanner(hw::HubSpec hub) : hub_{std::move(hub)} {}

  /// Greedy feasibility pass in app order. An app offloads iff:
  ///  * its kernel has an MCU port (spec.mcu_compute > 0),
  ///  * every sensor it reads is MCU-friendly,
  ///  * its memory footprint fits the remaining MCU RAM,
  ///  * the MCU can sustain kernel + sensor-driver time within the window
  ///    (throughput/QoS check).
  [[nodiscard]] OffloadPlan plan(const std::vector<apps::AppId>& candidates) const;

 private:
  hw::HubSpec hub_;
};

}  // namespace iotsim::core
