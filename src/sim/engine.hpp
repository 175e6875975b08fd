// Deterministic virtual-time discrete-event engine with cooperative
// processes.
//
// Each simulated processing element (PE), proxy daemon, or service runs as a
// `Process`: a cooperative thread of control that is scheduled so that
// exactly one context (either the engine or one process) executes at any
// instant, with control transferring only at explicit wait points. This
// gives:
//   * determinism: event order is (time, sequence-number) and handoffs are
//     strictly serialized, so every run is bit-identical;
//   * simplicity: functional state (heaps, queues) needs no locking.
//
// *How* control transfers is pluggable (see exec_backend.hpp): user-space
// fibers by default, one-OS-thread-per-process as a fallback — selected by
// GDRSHMEM_SIM_BACKEND=fibers|threads or the Engine constructor. Both
// backends produce identical virtual-time results.
//
// Timing is virtual: `Process::delay()` advances the simulated clock without
// consuming wall time beyond the handoff cost.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/exec_backend.hpp"
#include "sim/time.hpp"

namespace gdrshmem::sim {

class Engine;
class Process;

/// Thrown inside a daemon process when the engine shuts it down; the process
/// body should let it propagate (it unwinds the process's stack).
struct ProcessKilled {};

/// Thrown by Engine::run() when no event is pending but non-daemon processes
/// are still blocked.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// A broadcast wakeup point. Processes block on it with Process::await();
/// notify() wakes every current waiter at the present virtual time.
/// Level-triggered conditions are built on top by re-checking a predicate
/// after each wakeup (see Process::await_until).
class Notification {
 public:
  /// Wake all processes currently waiting. Safe to call from event callbacks
  /// and from process context.
  void notify();

 private:
  friend class Process;
  std::vector<Process*> waiters_;
};

/// A cooperative simulated thread of control.
class Process {
 public:
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  const std::string& name() const { return name_; }
  Engine& engine() const { return *engine_; }

  /// The process whose context is currently executing, or nullptr when the
  /// caller is in engine/event context. Works under both backends — with
  /// fibers every process shares the engine's OS thread, so per-OS-thread
  /// state cannot identify the running PE; use this instead.
  static Process* current();

  /// Arbitrary per-process slot for layered APIs (e.g. the C-API context
  /// binding). The engine does not interpret it.
  void* user_slot() const { return user_slot_; }
  void set_user_slot(void* v) { user_slot_ = v; }

  /// Advance virtual time by `d` (callable only from this process's context).
  void delay(Duration d);

  /// Block until `n` is notified.
  void await(Notification& n);

  /// Block on `n` until `pred()` holds; re-checks after every notification.
  /// The predicate is evaluated once before waiting.
  template <typename Pred>
  void await_until(Notification& n, Pred&& pred) {
    while (!pred()) await(n);
  }

 private:
  friend class Engine;
  friend class Notification;
  friend class ExecutionBackend;
  Process(Engine& eng, std::string name, bool daemon);

  /// Hand control back to the engine; throws ProcessKilled on wakeup if a
  /// kill was requested while we were out.
  void yield_to_engine();
  void check_killed() const;

  Engine* engine_;
  std::string name_;
  bool daemon_;
  bool kill_requested_ = false;
  enum class State { kCreated, kReady, kRunning, kBlocked, kDone } state_ = State::kCreated;
  std::function<void(Process&)> body_;
  std::unique_ptr<ProcessExec> exec_;
  void* user_slot_ = nullptr;
};

/// Wakeup batching chosen by GDRSHMEM_SIM_BATCH (0/1, on/off, true/false);
/// on when unset. Unknown values throw std::invalid_argument.
bool batch_from_env();

/// The event loop. Owns all processes, the pending-event queue, and the
/// execution backend.
class Engine {
 public:
  explicit Engine(BackendKind backend = backend_from_env(),
                  QueueKind queue = queue_from_env());
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time now() const { return now_; }
  BackendKind backend_kind() const { return backend_->kind(); }
  QueueKind queue_kind() const { return queue_.kind(); }

  /// When true (default), Notification::notify schedules one queue event
  /// that resumes the whole woken cohort in registration order, instead of
  /// one event per waiter — a 16K-PE barrier release costs one queue
  /// operation rather than 16K. Virtual times and process execution order
  /// are unchanged; only events_executed() differs. Toggle for A/B runs.
  bool batch_wakeups() const { return batch_wakeups_; }
  void set_batch_wakeups(bool b) { batch_wakeups_ = b; }

  /// Schedule `fn` to run in engine context at absolute time `at`
  /// (must be >= now()). Events at equal times run in scheduling order.
  void schedule_at(Time at, EventFn fn);
  void schedule_after(Duration d, EventFn fn) {
    schedule_at(now_ + d, std::move(fn));
  }

  /// Create a process whose body starts running at virtual time now().
  /// Daemon processes do not keep the simulation alive: once the event queue
  /// drains, the run ends and daemons are killed.
  Process& spawn(std::string name, std::function<void(Process&)> body,
                 bool daemon = false);

  /// Run until the event queue is empty. Throws DeadlockError if non-daemon
  /// processes remain blocked with nothing pending; rethrows the first
  /// exception a process body raised, after releasing everything blocked.
  void run();

  /// Kill and unwind all daemon processes (also done by run() on completion).
  void shutdown_daemons();

  /// Forcibly unwind one process: ProcessKilled is raised at its current
  /// wait point and its stack is reclaimed. Safe to call from event context
  /// on blocked or ready processes; no-op if the process already finished.
  /// Used by fault injection to crash a proxy daemon mid-transfer.
  void kill(Process& p) { kill_process(p); }

  /// Number of events executed so far (diagnostic).
  std::uint64_t events_executed() const { return events_executed_; }
  /// Events executed by every engine of this process, counted when each
  /// run() returns (a bench records it as its deterministic event total).
  static std::uint64_t process_events_executed();

  // ---- retained-capacity bookkeeping ------------------------------------
  // Exported as core::Metrics gauges by Runtime::snapshot_metrics. The
  // high-water marks are sticky: they survive release_retained_memory().

  /// Largest number of simultaneously pending events ever observed.
  std::size_t queue_size_hwm() const { return queue_.size_hwm(); }
  /// Largest callback-slot pool ever grown to.
  std::size_t slot_pool_hwm() const { return slot_pool_hwm_; }
  /// Bytes currently retained by the event queue and slot pool (capacity).
  std::size_t retained_bytes() const;
  /// Shrink queue and slot-pool storage to fit the current contents. Called
  /// automatically when run() drains the queue (release-on-quiescence);
  /// safe to call at any time.
  void release_retained_memory();

 private:
  friend class Process;
  friend class Notification;
  friend class ExecutionBackend;

  // Pending events live in a slot pool (`slots_` + `free_slots_`) so the
  // callback storage is recycled instead of reallocated; the ordering
  // structure (EventQueue: timing wheel by default, binary heap for A/B and
  // differential testing) holds only lightweight {time, seq, slot} entries.
  // Order is the strict total order (at, seq) — queue layout can never
  // affect pop order, which keeps runs bit-identical across backends *and*
  // across queue kinds.

  // Runs `p` (engine context) until it yields back; the engine context is
  // suspended meanwhile.
  void run_process(Process& p);
  void kill_process(Process& p);

  std::unique_ptr<ExecutionBackend> backend_;
  Time now_ = Time::zero();
  std::exception_ptr first_error_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  EventQueue queue_;
  bool batch_wakeups_ = batch_from_env();
  std::size_t slot_pool_hwm_ = 0;
  std::vector<EventFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<Process>> processes_;
  bool running_ = false;
};

}  // namespace gdrshmem::sim
