// Coroutine processes for the discrete-event kernel.
//
// Hardware components and runtimes are written as C++20 coroutines returning
// Task<T>. A task suspends on awaitables (Delay, Signal::wait, SimMutex) and
// is resumed by the Simulator's event loop, so simulated time only advances
// between suspension points. Tasks are lazy: a child task starts when
// awaited; a top-level task starts when passed to Simulator::spawn.
//
// Determinism: all resumptions go through the event queue (never inline), so
// wake order at equal timestamps is the schedule order.
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

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

/// A broadcast condition: waiters suspend until notify; wakeups are scheduled
/// (never inline) to preserve determinism.
class Signal {
 public:
  struct WaitAwaiter {
    Signal* s;
    bool await_ready() const noexcept { return false; }
    template <typename P>
    void await_suspend(std::coroutine_handle<P> h) {
      assert(h.promise().sim != nullptr);
      s->enqueue(h, h.promise().sim);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] WaitAwaiter wait() { return WaitAwaiter{this}; }
  void notify_all();
  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  friend struct WaitAwaiter;
  struct Waiter {
    std::coroutine_handle<> h;
    Simulator* sim;
  };
  void enqueue(std::coroutine_handle<> h, Simulator* sim) { waiters_.push_back({h, sim}); }
  std::deque<Waiter> waiters_;
};

/// FIFO mutex for exclusive simulated resources (a CPU, a bus).
class SimMutex {
 public:
  struct AcquireAwaiter {
    SimMutex* m;
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
      m->waiters_.push_back({h, h.promise().sim});
    }
    void await_resume() const noexcept {}
  };

  /// `co_await m.acquire(); ... m.release();`
  [[nodiscard]] AcquireAwaiter acquire() { return AcquireAwaiter{this}; }
  void release();

  [[nodiscard]] bool locked() const { return locked_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size(); }

 private:
  friend struct AcquireAwaiter;
  struct Waiter {
    std::coroutine_handle<> h;
    Simulator* sim;
  };
  bool locked_ = false;
  std::deque<Waiter> waiters_;
};

}  // namespace iotsim::sim
