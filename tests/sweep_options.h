// SweepOptions for tests: a worker count and memo switch, every other field
// at its default. Designated initializers that leave out trailing fields
// trip GCC's -Wmissing-field-initializers, which CI treats as an error.
#pragma once

#include "core/sweep.h"

namespace iotsim::test {

inline core::SweepOptions with_jobs(int jobs, bool memoize = true) {
  core::SweepOptions options;
  options.jobs = jobs;
  options.memoize = memoize;
  return options;
}

}  // namespace iotsim::test
