#include "sim/process.h"

#include "sim/simulator.h"

namespace iotsim::sim {

void Delay::arm(std::coroutine_handle<> h) {
  sim->after(d, [h] { h.resume(); });
}

void Signal::notify_all() {
  // Detach the waiter list first: a resumed waiter may immediately wait()
  // again, and that registration belongs to the *next* notification.
  for (detail::WaitNode* w = waiters_.take_all(); w != nullptr;) {
    detail::WaitNode* next = w->next;
    w->sim->at(w->sim->now(), [h = w->h] { h.resume(); });
    w = next;
  }
}

void SimMutex::release() {
  assert(locked_ && "release() of an unlocked SimMutex");
  if (waiters_.empty()) {
    locked_ = false;
    return;
  }
  // Hand the lock to the first waiter; locked_ stays true across the
  // scheduled wakeup so no third party can sneak in between.
  const detail::WaitNode* w = waiters_.pop_front();
  w->sim->at(w->sim->now(), [h = w->h] { h.resume(); });
}

}  // namespace iotsim::sim
