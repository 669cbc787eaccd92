// Factories for the semantic passes (one translation unit each; see the
// pass headers' comments for the exact heuristics and their blind spots).
#pragma once

#include <memory>

namespace iotsim::analyze {

class Pass;

std::unique_ptr<Pass> make_coro_dangling_ref_pass();
std::unique_ptr<Pass> make_shared_mutable_static_pass();
std::unique_ptr<Pass> make_unordered_iteration_pass();
std::unique_ptr<Pass> make_pointer_order_pass();
/// hash-coverage and codec-coverage: one pass over a table of rules.
std::unique_ptr<Pass> make_coverage_pass();

}  // namespace iotsim::analyze
