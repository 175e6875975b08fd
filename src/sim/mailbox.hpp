// Typed FIFO mailbox for signalling between simulated processes
// (e.g. a PE signalling the per-node proxy daemon).
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "sim/engine.hpp"

namespace gdrshmem::sim {

template <typename T>
class Mailbox {
 public:
  /// Deposit a message (from any simulation context) and wake waiters.
  void post(T msg) {
    queue_.push_back(std::move(msg));
    available_.notify();
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  /// Non-blocking receive.
  std::optional<T> try_receive() {
    if (queue_.empty()) return std::nullopt;
    T msg = std::move(queue_.front());
    queue_.pop_front();
    return msg;
  }

  /// Blocking receive: the calling process sleeps until a message arrives.
  T receive(Process& self) {
    self.await_until(available_, [this] { return !queue_.empty(); });
    T msg = std::move(queue_.front());
    queue_.pop_front();
    return msg;
  }

  /// Blocking receive with a deadline: returns nullopt if no message arrived
  /// by `deadline`. A finite future deadline schedules one wake event, which
  /// keeps the simulation alive until it fires; Time::never() schedules
  /// nothing and behaves exactly like receive().
  std::optional<T> receive_until(Process& self, Time deadline) {
    Engine& eng = self.engine();
    if (eng.now() < deadline && deadline != Time::never()) {
      eng.schedule_at(deadline, [this] { available_.notify(); });
    }
    self.await_until(available_, [this, &eng, deadline] {
      return !queue_.empty() || eng.now() >= deadline;
    });
    return try_receive();
  }

  /// Discard all queued messages (proxy restart drops stale in-flight ctrl
  /// traffic; requesters re-issue).
  std::size_t clear() {
    std::size_t n = queue_.size();
    queue_.clear();
    return n;
  }

 private:
  std::deque<T> queue_;
  Notification available_;
};

}  // namespace gdrshmem::sim
