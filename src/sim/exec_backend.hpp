// Execution backends for the virtual-time engine.
//
// A `Process` is a cooperative thread of control; *how* control transfers
// between the engine loop and a process body is a backend concern:
//
//   * fibers  — user-space stackful contexts (makecontext/swapcontext) with
//               guard-paged stacks; a handoff is a function-call-cost context
//               swap on the engine's own OS thread. Default.
//   * threads — one OS thread per process with a mutex/condvar baton; a
//               handoff costs two kernel context switches. Kept as a
//               fallback and as the determinism cross-check.
//
// Exactly one context (engine or one process) runs at any instant under
// either backend, so event order — and therefore every simulation result —
// is bit-identical across backends.
#pragma once

#include <functional>
#include <memory>

namespace gdrshmem::sim {

class Engine;
class Process;

enum class BackendKind { kThreads, kFibers };

/// Backend chosen by GDRSHMEM_SIM_BACKEND ("threads" | "fibers");
/// fibers when unset. Unknown values throw std::invalid_argument.
BackendKind backend_from_env();

const char* to_string(BackendKind k);

/// How the fiber backend swaps contexts:
///   * fast     — a ~20-instruction register swap (callee-saved GPRs, mxcsr,
///                x87 control word). No syscall. x86-64 only; on other
///                architectures it silently degrades to ucontext.
///   * ucontext — swapcontext(3). Portable, but glibc performs an
///                rt_sigprocmask syscall per swap, which dominates handoff
///                cost (~1 us each) at 4K-16K PEs. Kept as the reference and
///                as the A/B baseline for bench_engine_overhead.
/// Both modes transfer control at the same points, so results are
/// bit-identical. Selected by GDRSHMEM_SIM_FIBER_SWITCH; fast when unset.
enum class FiberSwitch { kFast, kUcontext };

/// Mode chosen by GDRSHMEM_SIM_FIBER_SWITCH ("fast" | "ucontext"); fast when
/// unset. Unknown values throw std::invalid_argument. Read at FiberBackend
/// construction (i.e. per Engine), not cached per process.
FiberSwitch fiber_switch_from_env();

/// Per-process execution state (a fiber stack + context, or an OS thread +
/// condvar). Owned by the Process; destroyed only once the process is done.
class ProcessExec {
 public:
  virtual ~ProcessExec() = default;
};

/// Strategy for transferring control between the engine and processes.
/// All calls happen on the engine's OS thread or inside a process context it
/// resumed — never concurrently.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual BackendKind kind() const = 0;

  /// Create the execution state for `p`, primed to run its body on the first
  /// resume(). Called from Engine::spawn (engine or process context).
  virtual std::unique_ptr<ProcessExec> create(Process& p) = 0;

  /// Engine context: run `p` until it yields back or finishes.
  virtual void resume(Process& p) = 0;

  /// Process context (called from within `p`): give control back to the
  /// engine; returns when the engine next resumes `p`.
  virtual void yield(Process& p) = 0;

 protected:
  // Backend implementations are written against these helpers instead of
  // being friends of Process/Engine themselves.
  static void run_body(Process& p);          ///< standard body + kill/error wrap
  static ProcessExec* exec(Process& p);
  /// Maintain Process::current() for the calling OS thread. Thread backend:
  /// set once per process thread. Fiber backend: set/cleared around each
  /// context swap on the engine thread.
  static void set_current(Process* p);
};

std::unique_ptr<ExecutionBackend> make_thread_backend();
std::unique_ptr<ExecutionBackend> make_fiber_backend();
std::unique_ptr<ExecutionBackend> make_backend(BackendKind k);

}  // namespace gdrshmem::sim
