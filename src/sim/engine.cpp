#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace gdrshmem::sim {

// ---------------------------------------------------------------------------
// Backend selection

BackendKind backend_from_env() {
  const char* v = std::getenv("GDRSHMEM_SIM_BACKEND");
  if (v == nullptr || *v == '\0') return BackendKind::kFibers;
  std::string s(v);
  if (s == "fibers") return BackendKind::kFibers;
  if (s == "threads") return BackendKind::kThreads;
  throw std::invalid_argument(
      "GDRSHMEM_SIM_BACKEND must be 'fibers' or 'threads', got '" + s + "'");
}

const char* to_string(BackendKind k) {
  return k == BackendKind::kFibers ? "fibers" : "threads";
}

std::unique_ptr<ExecutionBackend> make_backend(BackendKind k) {
  return k == BackendKind::kFibers ? make_fiber_backend() : make_thread_backend();
}

bool batch_from_env() {
  const char* v = std::getenv("GDRSHMEM_SIM_BATCH");
  if (v == nullptr || *v == '\0') return true;
  std::string s(v);
  if (s == "1" || s == "on" || s == "true") return true;
  if (s == "0" || s == "off" || s == "false") return false;
  throw std::invalid_argument(
      "GDRSHMEM_SIM_BATCH must be one of 0/1/on/off/true/false, got '" + s +
      "'");
}

// ---------------------------------------------------------------------------
// ExecutionBackend shared helpers

void ExecutionBackend::run_body(Process& p) {
  try {
    p.check_killed();
    p.state_ = Process::State::kRunning;
    p.body_(p);
  } catch (const ProcessKilled&) {
    // graceful daemon shutdown
  } catch (...) {
    // Surface the first process failure from Engine::run() instead of
    // terminating the program when it escapes the process context.
    if (!p.engine_->first_error_) {
      p.engine_->first_error_ = std::current_exception();
    }
  }
  p.body_ = nullptr;  // release captures as soon as the body is done
  p.state_ = Process::State::kDone;
}

ProcessExec* ExecutionBackend::exec(Process& p) { return p.exec_.get(); }

namespace {
thread_local Process* t_current_process = nullptr;
}

void ExecutionBackend::set_current(Process* p) { t_current_process = p; }

Process* Process::current() { return t_current_process; }

// ---------------------------------------------------------------------------
// Notification

void Notification::notify() {
  if (waiters_.empty()) return;
  std::vector<Process*> woken;
  woken.swap(waiters_);
  Engine& eng = woken.front()->engine();
  if (eng.batch_wakeups_) {
    // One queue event resumes the whole cohort in registration order. The
    // unbatched path gives the K wakeup events consecutive sequence numbers,
    // so nothing can interleave between them anyway (anything scheduled by a
    // resumed process sorts after the last wakeup) — resuming back-to-back
    // from a single event is trace-order identical and turns a 16K-PE
    // barrier release into one queue operation instead of 16K.
    for (Process* p : woken) {
      if (p->state_ == Process::State::kDone) continue;
      p->state_ = Process::State::kReady;
    }
    eng.schedule_at(eng.now(), [&eng, woken = std::move(woken)] {
      // run_process skips processes that reached kDone (e.g. killed by fault
      // injection) between the notify and this event executing.
      for (Process* p : woken) eng.run_process(*p);
    });
    return;
  }
  for (Process* p : woken) {
    // A process killed while blocked here has already been unwound; its
    // execution context is gone and must never be rescheduled. Process::await
    // deregisters on unwind, so this is a backstop against stale pointers.
    if (p->state_ == Process::State::kDone) continue;
    Engine& e = p->engine();
    e.schedule_at(e.now(), [&e, p] { e.run_process(*p); });
    p->state_ = Process::State::kReady;
  }
}

// ---------------------------------------------------------------------------
// Process

Process::Process(Engine& eng, std::string name, bool daemon)
    : engine_(&eng), name_(std::move(name)), daemon_(daemon) {}

Process::~Process() = default;

void Process::check_killed() const {
  if (kill_requested_) throw ProcessKilled{};
}

void Process::yield_to_engine() {
  engine_->backend_->yield(*this);
  check_killed();
}

void Process::delay(Duration d) {
  check_killed();
  if (d < Duration::zero()) throw std::invalid_argument("negative delay");
  Engine& eng = *engine_;
  eng.schedule_at(eng.now() + d, [&eng, this] { eng.run_process(*this); });
  state_ = State::kReady;
  yield_to_engine();
  state_ = State::kRunning;
}

void Process::await(Notification& n) {
  check_killed();
  n.waiters_.push_back(this);
  state_ = State::kBlocked;
  try {
    yield_to_engine();
  } catch (...) {
    // Killed while blocked: a normal wakeup swaps us out of the waiter list
    // inside notify(), but a kill resumes us directly, so we are still
    // registered. Deregister before unwinding, or a later notify() would
    // resume this process's reclaimed execution context.
    std::erase(n.waiters_, this);
    throw;
  }
  state_ = State::kRunning;
}

// ---------------------------------------------------------------------------
// Engine

Engine::Engine(BackendKind backend, QueueKind queue)
    : backend_(make_backend(backend)), queue_(queue) {}

Engine::~Engine() {
  shutdown_daemons();
  // Any remaining non-daemon processes that never finished (e.g. after a
  // DeadlockError was thrown to the caller) must also be released so their
  // execution contexts can be unwound and reclaimed.
  for (auto& p : processes_) {
    if (p->state_ != Process::State::kDone) kill_process(*p);
  }
}

void Engine::schedule_at(Time at, EventFn fn) {
  if (at < now_) throw std::invalid_argument("schedule_at in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
    slot_pool_hwm_ = std::max(slot_pool_hwm_, slots_.size());
  }
  queue_.push(EventQueue::Entry{at, next_seq_++, slot});
}

std::size_t Engine::retained_bytes() const {
  return queue_.retained_bytes() + slots_.capacity() * sizeof(EventFn) +
         free_slots_.capacity() * sizeof(std::uint32_t);
}

void Engine::release_retained_memory() {
  queue_.release_retained();
  if (queue_.empty()) {
    // Every slot is free: the indices parked in free_slots_ are all dead, so
    // both vectors can be emptied rather than merely shrunk.
    slots_.clear();
    free_slots_.clear();
  }
  slots_.shrink_to_fit();
  free_slots_.shrink_to_fit();
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body,
                       bool daemon) {
  // Process is neither copyable nor movable, so construct it in place;
  // Engine is a friend of the private constructor.
  processes_.push_back(
      std::unique_ptr<Process>(new Process(*this, std::move(name), daemon)));
  Process& p = *processes_.back();
  p.body_ = std::move(body);
  p.exec_ = backend_->create(p);

  schedule_at(now_, [this, &p] { run_process(p); });
  p.state_ = Process::State::kReady;
  return p;
}

void Engine::run_process(Process& p) {
  if (p.state_ == Process::State::kDone) return;
  backend_->resume(p);
}

void Engine::kill_process(Process& p) {
  if (p.state_ == Process::State::kDone) return;
  p.kill_requested_ = true;
  backend_->resume(p);
  assert(p.state_ == Process::State::kDone);
}

namespace {
std::atomic<std::uint64_t> g_process_events{0};
}  // namespace

std::uint64_t Engine::process_events_executed() { return g_process_events; }

void Engine::run() {
  if (running_) throw std::logic_error("Engine::run is not reentrant");
  running_ = true;
  const std::uint64_t events_before = events_executed_;
  while (!queue_.empty()) {
    EventQueue::Entry e = queue_.pop();
    EventFn fn = std::move(slots_[e.slot]);
    free_slots_.push_back(e.slot);
    now_ = e.at;
    ++events_executed_;
    fn();
  }
  running_ = false;
  g_process_events += events_executed_ - events_before;
  // Release-on-quiescence: a burst (e.g. a full-cluster barrier release)
  // grows the queue and slot pool to O(PE-count); without this the capacity
  // would be retained for the engine's lifetime. HWMs stay observable via
  // queue_size_hwm()/slot_pool_hwm().
  release_retained_memory();

  if (first_error_) {
    // A process failed; release everything still blocked, then rethrow.
    shutdown_daemons();
    for (auto& p : processes_) {
      if (p->state_ != Process::State::kDone) kill_process(*p);
    }
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }

  // Detect stuck non-daemon processes: nothing left to run but they are not
  // done — the simulated program deadlocked.
  std::vector<std::string> stuck;
  for (auto& p : processes_) {
    if (!p->daemon_ && p->state_ != Process::State::kDone) stuck.push_back(p->name());
  }
  shutdown_daemons();
  if (!stuck.empty()) {
    std::ostringstream os;
    os << "simulation deadlock: " << stuck.size() << " process(es) blocked forever:";
    for (const auto& n : stuck) os << ' ' << n;
    // Release the stuck processes so their contexts can unwind before throwing.
    for (auto& p : processes_) {
      if (p->state_ != Process::State::kDone) kill_process(*p);
    }
    throw DeadlockError(os.str());
  }
}

void Engine::shutdown_daemons() {
  for (auto& p : processes_) {
    if (p->daemon_) kill_process(*p);
  }
}

}  // namespace gdrshmem::sim
