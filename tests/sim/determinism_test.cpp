// Determinism regression tests for the execution backends.
//
// The engine's contract is that virtual-time results are bit-identical
// across runs AND across backends: the fiber and thread backends may differ
// only in wall-clock cost, never in event order, event count, or any
// simulated state. These tests run a contended multi-process workload
// (mailbox ring + notifications + nested spawns + a daemon) and compare full
// execution traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/stack_pool.hpp"
#include "sim/time.hpp"

namespace gdrshmem::sim {
namespace {

struct RunTrace {
  std::vector<std::string> log;  // "<name>@<ns>" at every observable step
  std::uint64_t events_executed = 0;
  std::int64_t end_ns = 0;

  bool operator==(const RunTrace&) const = default;
};

/// A deliberately messy workload: a token ring over mailboxes, a broadcast
/// notification that releases all PEs mid-run, a child process spawned from
/// a running process, and a daemon that ticks forever in the background.
RunTrace run_workload(BackendKind kind, int pes, int rounds,
                      QueueKind queue = queue_from_env(),
                      bool batch = batch_from_env()) {
  RunTrace out;
  Engine eng(kind, queue);
  eng.set_batch_wakeups(batch);
  std::vector<Mailbox<int>> ring(static_cast<std::size_t>(pes));
  Notification phase2;
  int phase1_done = 0;

  // Daemon: ticks a bounded number of times, then blocks forever (a daemon
  // that self-schedules unboundedly would keep the event queue alive and
  // run() would never terminate).
  Notification never;
  eng.spawn(
      "ticker",
      [&](Process& p) {
        for (int i = 0; i < 40; ++i) {
          p.delay(Duration::ns(37));
          out.log.push_back("tick@" + std::to_string(eng.now().count_ns()));
        }
        p.await(never);
      },
      /*daemon=*/true);

  for (int pe = 0; pe < pes; ++pe) {
    eng.spawn("pe" + std::to_string(pe), [&, pe](Process& p) {
      if (pe == 0) ring[0].post(0);
      for (int r = 0; r < rounds; ++r) {
        int token = ring[static_cast<std::size_t>(pe)].receive(p);
        out.log.push_back("pe" + std::to_string(pe) + ":tok" +
                          std::to_string(token) + "@" +
                          std::to_string(eng.now().count_ns()));
        p.delay(Duration::ns(10 + pe));
        ring[static_cast<std::size_t>((pe + 1) % pes)].post(token + 1);
      }
      ++phase1_done;
      if (phase1_done == pes) {
        phase2.notify();
      } else {
        p.await(phase2);
      }
      if (pe == 1) {
        eng.spawn("child", [&](Process& c) {
          c.delay(Duration::ns(5));
          out.log.push_back("child@" + std::to_string(eng.now().count_ns()));
        });
      }
      p.delay(Duration::ns(pe * 3));
      out.log.push_back("pe" + std::to_string(pe) + ":done@" +
                        std::to_string(eng.now().count_ns()));
    });
  }

  eng.run();
  out.events_executed = eng.events_executed();
  out.end_ns = eng.now().count_ns();
  return out;
}

TEST(Determinism, RepeatedRunsAreBitIdenticalPerBackend) {
  for (BackendKind kind : {BackendKind::kThreads, BackendKind::kFibers}) {
    RunTrace a = run_workload(kind, 8, 6);
    RunTrace b = run_workload(kind, 8, 6);
    EXPECT_EQ(a, b) << "backend " << to_string(kind)
                    << " is not deterministic across runs";
    EXPECT_FALSE(a.log.empty());
  }
}

TEST(Determinism, FibersAndThreadsProduceIdenticalTraces) {
  RunTrace threads = run_workload(BackendKind::kThreads, 8, 6);
  RunTrace fibers = run_workload(BackendKind::kFibers, 8, 6);
  EXPECT_EQ(threads.events_executed, fibers.events_executed);
  EXPECT_EQ(threads.end_ns, fibers.end_ns);
  EXPECT_EQ(threads, fibers);
}

TEST(Determinism, CrossBackendAtScale) {
  // More PEs and rounds: the trace grows past 10k entries, so any
  // scheduling divergence between backends has plenty of room to surface.
  RunTrace threads = run_workload(BackendKind::kThreads, 32, 12);
  RunTrace fibers = run_workload(BackendKind::kFibers, 32, 12);
  ASSERT_EQ(threads.log.size(), fibers.log.size());
  EXPECT_EQ(threads, fibers);
}

TEST(Determinism, HeapAndWheelQueuesProduceIdenticalTraces) {
  // The pending-event queue is swappable under the (at, seq) total order:
  // the timing wheel and the reference binary heap must be bit-identical —
  // on both execution backends.
  for (BackendKind kind : {BackendKind::kThreads, BackendKind::kFibers}) {
    RunTrace heap = run_workload(kind, 16, 8, QueueKind::kHeap);
    RunTrace wheel = run_workload(kind, 16, 8, QueueKind::kWheel);
    EXPECT_EQ(heap, wheel) << "queue divergence on backend " << to_string(kind);
  }
}

TEST(Determinism, AllFourQueueBackendCombinationsAgree) {
  // The whole GDRSHMEM_SIM_* cross-product: backend x queue x wakeup
  // batching, and on fibers also the switch mechanism x stack pooling (20
  // runs). Each setting may change wall-clock cost only: one log and one end
  // time across all runs, and an event count that depends on batching alone
  // (a batched fan-out coalesces its wakeups into fewer events).
  FiberStackPool& pool = FiberStackPool::instance();
  const std::size_t pool_cap = pool.capacity();
  const RunTrace ref =
      run_workload(BackendKind::kFibers, 12, 6, QueueKind::kHeap);
  std::uint64_t events[2] = {};  // by batching: [0] off, [1] on
  int runs = 0;
  auto check = [&](const RunTrace& t, bool batch, const std::string& cfg) {
    ++runs;
    EXPECT_EQ(ref.log, t.log) << cfg;
    EXPECT_EQ(ref.end_ns, t.end_ns) << cfg;
    if (events[batch] == 0) events[batch] = t.events_executed;
    EXPECT_EQ(events[batch], t.events_executed) << cfg;
  };
  for (BackendKind kind : {BackendKind::kThreads, BackendKind::kFibers}) {
    for (QueueKind queue : {QueueKind::kHeap, QueueKind::kWheel}) {
      for (bool batch : {false, true}) {
        const std::string cfg = std::string(to_string(kind)) + "/" +
                                to_string(queue) +
                                (batch ? "/batched" : "/unbatched");
        if (kind == BackendKind::kThreads) {
          check(run_workload(kind, 12, 6, queue, batch), batch, cfg);
          continue;
        }
        for (const char* mode : {"fast", "ucontext"}) {
          // 64 stacks pool every process of a run; 0 maps each afresh.
          for (std::size_t cap : {std::size_t{64}, std::size_t{0}}) {
            ::setenv("GDRSHMEM_SIM_FIBER_SWITCH", mode, 1);
            pool.set_capacity(cap);
            RunTrace t = run_workload(kind, 12, 6, queue, batch);
            pool.set_capacity(pool_cap);
            ::unsetenv("GDRSHMEM_SIM_FIBER_SWITCH");
            check(t, batch, cfg + "/" + mode + (cap ? "/pooled" : "/unpooled"));
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 20);
  EXPECT_LT(events[true], events[false])
      << "batching should execute fewer queue events on a broadcast wakeup";
}

TEST(Determinism, FastAndUcontextFiberSwitchesProduceIdenticalTraces) {
  // The fiber backend's context-switch mechanism (raw register swap vs
  // swapcontext) changes only wall-clock cost; control transfers at the same
  // points, so the trace must be bit-identical. The mode is read per Engine
  // construction, so flipping the env between runs is enough.
  auto run_with_switch = [](const char* mode) {
    ::setenv("GDRSHMEM_SIM_FIBER_SWITCH", mode, 1);
    RunTrace t = run_workload(BackendKind::kFibers, 16, 8);
    ::unsetenv("GDRSHMEM_SIM_FIBER_SWITCH");
    return t;
  };
  RunTrace fast = run_with_switch("fast");
  RunTrace uctx = run_with_switch("ucontext");
  EXPECT_EQ(fast, uctx);
  // And against the thread backend, which has no fiber switch at all.
  RunTrace threads = run_workload(BackendKind::kThreads, 16, 8);
  EXPECT_EQ(fast, threads);
}

TEST(Determinism, WakeupBatchingPreservesTraceOrder) {
  // Batched notification fan-out coalesces K wakeup events into one; the
  // observable trace and end time must not move (events_executed legally
  // differs, so compare log + end_ns, not the whole struct).
  auto run_batched = [](bool batch) {
    RunTrace out;
    Engine eng(BackendKind::kFibers);
    eng.set_batch_wakeups(batch);
    Notification gate;
    int arrived = 0;
    const int pes = 24;
    for (int pe = 0; pe < pes; ++pe) {
      eng.spawn("pe" + std::to_string(pe), [&, pe](Process& p) {
        p.delay(Duration::ns(pe % 5));
        if (++arrived == pes) {
          gate.notify();
        } else {
          p.await(gate);
        }
        p.delay(Duration::ns(3 + pe));
        out.log.push_back("pe" + std::to_string(pe) + "@" +
                          std::to_string(eng.now().count_ns()));
      });
    }
    eng.run();
    out.events_executed = eng.events_executed();
    out.end_ns = eng.now().count_ns();
    return out;
  };
  RunTrace batched = run_batched(true);
  RunTrace unbatched = run_batched(false);
  EXPECT_EQ(unbatched.log, batched.log);
  EXPECT_EQ(unbatched.end_ns, batched.end_ns);
  EXPECT_LT(batched.events_executed, unbatched.events_executed)
      << "batching should execute fewer queue events on a broadcast wakeup";
}

}  // namespace
}  // namespace gdrshmem::sim
