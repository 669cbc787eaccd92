// A minimal fixed-size worker pool for fanning out independent jobs.
//
// Deliberately tiny: submit() enqueues a job, wait_idle() blocks until the
// queue is drained and every worker is back to waiting. Jobs must not throw —
// callers that need error propagation capture an std::exception_ptr inside
// the job themselves (see core::SweepRunner).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.h"

namespace iotsim::core {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least one).
  explicit ThreadPool(int threads) {
    const int n = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }

  /// Drains the queue, then joins every worker.
  ~ThreadPool() {
    {
      std::lock_guard lock{mu_};
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> job) {
    {
      std::lock_guard lock{mu_};
      // A job submitted after the destructor began would be dropped on the
      // floor, never run — a silent-loss bug, so it is an invariant.
      IOTSIM_CHECK(!stopping_, "ThreadPool::submit() after shutdown began");
      queue_.push_back(std::move(job));
    }
    work_cv_.notify_one();
  }

  /// Blocks until every submitted job has finished.
  void wait_idle() {
    std::unique_lock lock{mu_};
    idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
  }

 private:
  void worker() {
    std::unique_lock lock{mu_};
    for (;;) {
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      auto job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      lock.unlock();
      job();
      lock.lock();
      --running_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int running_ = 0;
  bool stopping_ = false;
};

}  // namespace iotsim::core
