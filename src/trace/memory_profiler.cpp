#include "trace/memory_profiler.h"

#include <algorithm>
#include <cassert>

namespace iotsim::trace {

void MemoryProfiler::on_alloc(std::size_t bytes) {
  live_heap_ += bytes;
  peak_heap_ = std::max(peak_heap_, live_heap_);
  ++alloc_count_;
}

void MemoryProfiler::on_free(std::size_t bytes) {
  assert(bytes <= live_heap_);
  live_heap_ -= bytes;
}

void MemoryProfiler::on_stack_enter(std::size_t bytes) {
  live_stack_ += bytes;
  peak_stack_ = std::max(peak_stack_, live_stack_);
}

void MemoryProfiler::on_stack_exit(std::size_t bytes) {
  assert(bytes <= live_stack_);
  live_stack_ -= bytes;
}

void Workspace::clear() {
  for (auto& b : buffers_) prof_.on_free(b.bytes);
  buffers_.clear();
}

}  // namespace iotsim::trace
