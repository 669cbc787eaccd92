// Coroutine processes for the discrete-event kernel.
//
// Hardware components and runtimes are written as C++20 coroutines returning
// Task<T>. A task suspends on awaitables (Delay, Signal::wait, SimMutex) and
// is resumed by the Simulator's event loop, so simulated time only advances
// between suspension points. Tasks are lazy: a child task starts when
// awaited; a top-level task starts when passed to Simulator::spawn.
// Suspending allocates nothing beyond the frame itself: Signal and SimMutex
// queue each waiter through a node inside its awaiter.
//
// Determinism: all resumptions go through the event queue (never inline), so
// wake order at equal timestamps is the schedule order.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/arena.h"
#include "sim/sim_time.h"

namespace iotsim::sim {

class Simulator;

namespace detail {

/// State shared by every task promise; awaitables reach the Simulator
/// through it.
///
/// The allocation operators route coroutine frames through the thread's
/// current Arena (sim/arena.h) when an ArenaScope is active — per-shard
/// frame churn without global-allocator traffic — and fall back to the
/// global heap otherwise. Lookup finds them here for both Task<T> and
/// Task<void> promise types.
struct PromiseBase {
  Simulator* sim = nullptr;
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  static void* operator new(std::size_t size) { return frame_allocate(size); }
  static void operator delete(void* p) noexcept { frame_free(p); }
  static void operator delete(void* p, std::size_t) noexcept { frame_free(p); }
};

/// At a task's final suspend point, control transfers to the awaiting parent
/// (symmetric transfer) or back to the event loop for a detached task.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename P>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) const noexcept {
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

/// A lazily-started simulation coroutine yielding a value of type T.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    detail::FinalAwaiter final_suspend() const noexcept { return {}; }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
    void unhandled_exception() { this->exception = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_{h} {}
  Task(Task&& o) noexcept : h_{std::exchange(o.h_, nullptr)} {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return h_ != nullptr; }
  [[nodiscard]] bool done() const { return h_ && h_.done(); }
  [[nodiscard]] Handle handle() const { return h_; }

  /// Result after completion; rethrows a stored exception.
  [[nodiscard]] T& result() {
    assert(done());
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return *h_.promise().value;
  }

  struct Awaiter {
    Handle h;
    bool await_ready() const noexcept { return !h || h.done(); }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> parent) const noexcept {
      h.promise().sim = parent.promise().sim;
      h.promise().continuation = parent;
      return h;  // start the child
    }
    T await_resume() const {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
      return std::move(*h.promise().value);
    }
  };
  Awaiter operator co_await() const& noexcept { return Awaiter{h_}; }
  Awaiter operator co_await() && noexcept { return Awaiter{h_}; }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    detail::FinalAwaiter final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() { this->exception = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_{h} {}
  Task(Task&& o) noexcept : h_{std::exchange(o.h_, nullptr)} {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return h_ != nullptr; }
  [[nodiscard]] bool done() const { return h_ && h_.done(); }
  [[nodiscard]] Handle handle() const { return h_; }

  /// Rethrows the stored exception, if the task ended with one.
  void check() const {
    assert(done());
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

  struct Awaiter {
    Handle h;
    bool await_ready() const noexcept { return !h || h.done(); }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> parent) const noexcept {
      h.promise().sim = parent.promise().sim;
      h.promise().continuation = parent;
      return h;
    }
    void await_resume() const {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
    }
  };
  Awaiter operator co_await() const& noexcept { return Awaiter{h_}; }
  Awaiter operator co_await() && noexcept { return Awaiter{h_}; }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_;
};

/// `co_await Delay{d}` — resume after `d` of simulated time.
struct Delay {
  Duration d;
  Simulator* sim = nullptr;  // bound at suspension from the promise

  bool await_ready() const noexcept { return false; }
  template <typename P>
  void await_suspend(std::coroutine_handle<P> h) {
    sim = h.promise().sim;
    assert(sim != nullptr && "Delay awaited outside a spawned task");
    arm(h);
  }
  void await_resume() const noexcept {}

 private:
  void arm(std::coroutine_handle<> h);  // defined in process.cpp
};

namespace detail {

/// A coroutine suspended on a Signal or SimMutex. The node is a member of
/// the awaiter, which lives in the suspended coroutine's frame, so queuing a
/// waiter allocates nothing; the node is unlinked before the wakeup is
/// scheduled, so it never outlives its frame in a list.
struct WaitNode {
  std::coroutine_handle<> h{};
  Simulator* sim = nullptr;
  WaitNode* next = nullptr;
};

/// Intrusive FIFO of WaitNodes (a singly linked list with a tail pointer).
/// Move-only: moving it leaves the source empty, so a moved Signal or
/// SimMutex never shares waiters with its old storage.
class WaitList {
 public:
  WaitList() = default;
  WaitList(WaitList&& o) noexcept
      : head_{std::exchange(o.head_, nullptr)},
        tail_{std::exchange(o.tail_, nullptr)},
        size_{std::exchange(o.size_, 0)} {}
  WaitList& operator=(WaitList&&) = delete;

  void push_back(WaitNode* n) {
    n->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    ++size_;
  }
  /// Unlinks and returns the oldest node; the list must not be empty.
  WaitNode* pop_front() {
    WaitNode* n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return n;
  }
  /// Detaches the whole chain, oldest first, leaving the list empty.
  WaitNode* take_all() {
    tail_ = nullptr;
    size_ = 0;
    return std::exchange(head_, nullptr);
  }

  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace detail

/// A broadcast condition: waiters suspend until notify_all, which wakes
/// every current waiter in the order they began waiting. Wakeups are
/// scheduled at now() (never resumed inline) to preserve determinism. Each
/// waiter is queued through a node in its own awaiter, so waiting and
/// notifying allocate nothing. Movable while waiters are queued; the
/// moved-from Signal is left with none.
class Signal {
 public:
  struct WaitAwaiter {
    Signal* s;
    detail::WaitNode node{};
    bool await_ready() const noexcept { return false; }
    template <typename P>
    void await_suspend(std::coroutine_handle<P> h) {
      assert(h.promise().sim != nullptr);
      node.h = h;
      node.sim = h.promise().sim;
      s->waiters_.push_back(&node);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] WaitAwaiter wait() { return WaitAwaiter{this}; }
  void notify_all();
  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  detail::WaitList waiters_;
};

/// FIFO mutex for exclusive simulated resources (a CPU, a bus). Like
/// Signal, each blocked acquirer is queued through a node in its awaiter.
class SimMutex {
 public:
  struct AcquireAwaiter {
    SimMutex* m;
    detail::WaitNode node{};
    bool await_ready() const noexcept {
      if (!m->locked_) {
        m->locked_ = true;
        return true;
      }
      return false;
    }
    template <typename P>
    void await_suspend(std::coroutine_handle<P> h) {
      assert(h.promise().sim != nullptr);
      node.h = h;
      node.sim = h.promise().sim;
      m->waiters_.push_back(&node);
    }
    void await_resume() const noexcept {}
  };

  /// `co_await m.acquire(); ... m.release();`
  [[nodiscard]] AcquireAwaiter acquire() { return AcquireAwaiter{this}; }
  void release();

  [[nodiscard]] bool locked() const { return locked_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size(); }

 private:
  bool locked_ = false;
  detail::WaitList waiters_;
};

}  // namespace iotsim::sim
