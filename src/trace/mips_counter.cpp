#include "trace/mips_counter.h"

namespace iotsim::trace {

void MipsCounter::add(const std::string& owner, std::uint64_t instructions) {
  counts_[owner] += instructions;
}

std::uint64_t MipsCounter::instructions(const std::string& owner) const {
  auto it = counts_.find(owner);
  return it == counts_.end() ? 0 : it->second;
}

}  // namespace iotsim::trace
