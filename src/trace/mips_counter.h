// Instruction-rate accounting — the simulated stand-in for the paper's
// oprofile MIPS characterisation (Fig. 6).
//
// Kernels report retired-instruction counts per invocation (calibrated per
// workload, see apps/workload_spec.h); the counter sums them per owner, and
// the run reports the totals the paper's "MIPS executed" metric divides by
// the workload window.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

namespace iotsim::trace {

class MipsCounter {
 public:
  /// Accumulates `instructions` retired by `owner` (an app or component tag).
  void add(const std::string& owner, std::uint64_t instructions);

  [[nodiscard]] std::uint64_t instructions(const std::string& owner) const;

 private:
  std::unordered_map<std::string, std::uint64_t> counts_;
};

}  // namespace iotsim::trace
