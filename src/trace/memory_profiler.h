// Heap/stack usage accounting for app kernels — the simulated stand-in for
// the paper's oprofile-based memory tracing (§III-B, Fig. 6).
//
// Kernels allocate their working buffers through a Workspace, which tracks
// live and peak heap bytes; stack usage is accounted by RAII StackFrame
// markers placed in kernel entry points (a portable approximation of the
// paper's stack-trace dumps).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace iotsim::trace {

class MemoryProfiler {
 public:
  void on_alloc(std::size_t bytes);
  void on_free(std::size_t bytes);
  void on_stack_enter(std::size_t bytes);
  void on_stack_exit(std::size_t bytes);

  [[nodiscard]] std::size_t live_heap_bytes() const { return live_heap_; }
  [[nodiscard]] std::size_t peak_heap_bytes() const { return peak_heap_; }
  [[nodiscard]] std::size_t live_stack_bytes() const { return live_stack_; }
  [[nodiscard]] std::size_t peak_stack_bytes() const { return peak_stack_; }
  [[nodiscard]] std::uint64_t allocation_count() const { return alloc_count_; }

 private:
  std::size_t live_heap_ = 0;
  std::size_t peak_heap_ = 0;
  std::size_t live_stack_ = 0;
  std::size_t peak_stack_ = 0;
  std::uint64_t alloc_count_ = 0;
};

/// RAII marker for a kernel stack frame of known extent.
class StackFrame {
 public:
  StackFrame(MemoryProfiler& prof, std::size_t bytes) : prof_{prof}, bytes_{bytes} {
    prof_.on_stack_enter(bytes_);
  }
  ~StackFrame() { prof_.on_stack_exit(bytes_); }
  StackFrame(const StackFrame&) = delete;
  StackFrame& operator=(const StackFrame&) = delete;

 private:
  MemoryProfiler& prof_;
  std::size_t bytes_;
};

/// A profiled heap arena kernels allocate working buffers from. Buffers are
/// real allocations (kernels genuinely use them); the arena only adds
/// accounting.
class Workspace {
 public:
  explicit Workspace(MemoryProfiler& prof) : prof_{prof} {}

  /// Allocates a zero-initialised buffer of `count` Ts tracked by the
  /// profiler. The buffer lives until the Workspace is destroyed or clear().
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_default_constructible_v<T>,
                  "Workspace buffers hold trivial element types only");
    const std::size_t bytes = count * sizeof(T);
    auto buf = std::make_unique<unsigned char[]>(bytes);
    T* out = reinterpret_cast<T*>(buf.get());
    prof_.on_alloc(bytes);
    buffers_.push_back(Buffer{std::move(buf), bytes});
    return out;
  }

  /// Frees everything allocated so far (end of a kernel invocation).
  void clear();

  [[nodiscard]] MemoryProfiler& profiler() { return prof_; }

  ~Workspace() { clear(); }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

 private:
  struct Buffer {
    std::unique_ptr<unsigned char[]> data;
    std::size_t bytes;
  };
  MemoryProfiler& prof_;
  std::vector<Buffer> buffers_;
};

}  // namespace iotsim::trace
