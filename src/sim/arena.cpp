#include "sim/arena.h"

#include <new>

#include "check/check.h"

namespace iotsim::sim {

namespace {

// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables) —
// per-worker by construction (thread_local): each shard thread binds its
// own arena, so there is no cross-shard sharing to race on.
thread_local Arena* tls_arena = nullptr;

/// Prepended to every frame_allocate block. 16 bytes keeps the payload at
/// max_align for coroutine frames.
struct alignas(std::max_align_t) FrameHeader {
  Arena* owner;       // nullptr: block came from ::operator new
  std::size_t bytes;  // total block size including this header
};

}  // namespace

Arena::~Arena() {
  // Chunks free wholesale; IOTSIM_CHECK here would fire on scenarios that
  // legitimately end with live detached frames (Simulator tears them down
  // after the arena in non-runner usage), so live_blocks() is surfaced to
  // tests instead of enforced.
}

void* Arena::bump(std::size_t rounded) {
  if (chunk_left_ < rounded) {
    const std::size_t chunk = rounded > kChunkBytes ? rounded : kChunkBytes;
    chunks_.push_back(std::make_unique<std::byte[]>(chunk));
    cursor_ = chunks_.back().get();
    chunk_left_ = chunk;
    bytes_reserved_ += chunk;
  }
  std::byte* p = cursor_;
  cursor_ += rounded;
  chunk_left_ -= rounded;
  return p;
}

void* Arena::allocate(std::size_t size) {
  const std::size_t rounded = ((size == 0 ? 1 : size) + kGrain - 1) / kGrain * kGrain;
  ++live_blocks_;
  const std::size_t cls = size_class(rounded);
  if (cls < kMaxClasses && free_[cls] != nullptr) {
    FreeNode* node = free_[cls];
    free_[cls] = node->next;
    return node;
  }
  return bump(rounded);
}

void Arena::deallocate(void* p, std::size_t size) {
  IOTSIM_CHECK_GT(live_blocks_, std::size_t{0}, "Arena: deallocate with no live blocks");
  --live_blocks_;
  const std::size_t rounded = ((size == 0 ? 1 : size) + kGrain - 1) / kGrain * kGrain;
  const std::size_t cls = size_class(rounded);
  if (cls < kMaxClasses) {
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }
  // Oversized blocks are not recycled; they return with their chunk.
}

ArenaScope::ArenaScope(Arena& arena) : previous_{tls_arena} { tls_arena = &arena; }

ArenaScope::~ArenaScope() { tls_arena = previous_; }

void* frame_allocate(std::size_t size) {
  // alignas on FrameHeader makes sizeof a multiple of max_align, so the
  // payload after the header stays max_align-aligned.
  const std::size_t total = size + sizeof(FrameHeader);
  Arena* arena = tls_arena;
  void* block = arena != nullptr ? arena->allocate(total) : ::operator new(total);
  auto* header = static_cast<FrameHeader*>(block);
  header->owner = arena;
  header->bytes = total;
  return header + 1;
}

void frame_free(void* frame) {
  if (frame == nullptr) return;
  auto* header = static_cast<FrameHeader*>(frame) - 1;
  if (header->owner != nullptr) {
    header->owner->deallocate(header, header->bytes);
  } else {
    ::operator delete(header);
  }
}

}  // namespace iotsim::sim
