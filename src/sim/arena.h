// A per-hub-lifetime arena for coroutine frames.
//
// A fleet run creates and destroys millions of short-lived Task frames (one
// per sensor burst, NIC grant, batch flush). Routing them through the global
// allocator is both slow and — once hubs shard across worker threads — a
// contention point. An Arena gives each shard its own chunked bump allocator
// with a size-class freelist, so frame churn stays thread-local and frees
// during a run are recycled instead of growing the arena without bound.
//
// Frames find their arena through a thread-local scope (ArenaScope): promise
// operator new tags each allocation with the owning Arena* in a header, so
// delete works even if the frame outlives the scope (frames must not outlive
// the Arena itself — ScenarioRunner declares the Arena before the Simulator
// that owns the frames, making destruction order safe). With no scope
// installed, allocation falls back to the global heap; the tag makes the two
// paths coexist safely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace iotsim::sim {

/// A chunked bump allocator with per-size-class freelists. Single-threaded;
/// each shard owns one. All chunks are released at destruction.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena();

  /// Raw arena allocation (no header, no freelist reuse across sizes other
  /// than the exact class). `size` is rounded up to the allocation grain.
  [[nodiscard]] void* allocate(std::size_t size);
  /// Returns a block from allocate() to its size-class freelist.
  void deallocate(void* p, std::size_t size);

  /// Bytes reserved from the upstream allocator (chunk footprint).
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }
  /// Live (allocated, not yet freed) block count — leak canary for tests.
  [[nodiscard]] std::size_t live_blocks() const { return live_blocks_; }

 private:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  static constexpr std::size_t kGrain = 64;  // freelist size-class granularity
  static constexpr std::size_t kMaxClasses = 64;  // classes cover <= 4 KiB
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  struct FreeNode {
    FreeNode* next;
  };

  [[nodiscard]] static std::size_t size_class(std::size_t rounded) {
    return rounded / kGrain - 1;
  }

  [[nodiscard]] void* bump(std::size_t rounded);

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cursor_ = nullptr;
  std::size_t chunk_left_ = 0;
  FreeNode* free_[kMaxClasses] = {};
  std::size_t bytes_reserved_ = 0;
  std::size_t live_blocks_ = 0;
};

/// A std-allocator adapter over Arena, so shard-local containers (the hub
/// runtimes themselves, their stream/executor verticals) draw node storage
/// from the shard's arena instead of the shared global heap. Stateful: a
/// default-constructed (or nullptr) allocator falls back to the global heap,
/// which keeps arena-parameterised types usable outside a fleet run. The
/// container must not outlive the arena.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "Arena blocks carry only fundamental alignment");

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena* arena) : arena_{arena} {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_{other.arena()} {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (arena_ != nullptr) return static_cast<T*>(arena_->allocate(n * sizeof(T)));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) {
    if (arena_ != nullptr) {
      arena_->deallocate(p, n * sizeof(T));
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }

  [[nodiscard]] Arena* arena() const { return arena_; }

  template <typename U>
  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator<U>& b) {
    return a.arena_ == b.arena();
  }

 private:
  Arena* arena_ = nullptr;
};

/// RAII: installs `arena` as the current thread's frame arena for the
/// enclosing scope. Scopes nest; the previous arena is restored on exit.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* previous_;
};

/// Coroutine-frame allocation: arena-backed under an ArenaScope, global heap
/// otherwise. A header tags each block with its owner so frame_free routes
/// correctly regardless of the scope active at destruction time.
[[nodiscard]] void* frame_allocate(std::size_t size);
void frame_free(void* frame);

}  // namespace iotsim::sim
