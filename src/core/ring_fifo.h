// A first-in first-out queue over a ring of reused slots.
//
// Unlike std::deque, which allocates and frees a node as its front and back
// move through memory, the ring keeps its storage: it grows (doubling) only
// when full, so a queue whose depth stays bounded stops allocating after
// its first few pushes.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "check/check.h"

namespace iotsim::core {

template <class T>
class RingFifo {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }

  void push_back(T value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(value);
    ++count_;
  }

  /// Removes and returns the oldest element. Precondition: !empty().
  T pop_front() {
    IOTSIM_CHECK(count_ > 0, "pop_front() on empty RingFifo");
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return value;
  }

 private:
  void grow() {
    std::vector<T> larger(slots_.empty() ? 4 : 2 * slots_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      larger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(larger);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two size, or empty
  std::size_t head_ = 0;  // index of the oldest element
  std::size_t count_ = 0;
};

}  // namespace iotsim::core
