// Engine execution overhead: how fast does the simulator itself run?
//
// Every other bench in this directory reports *virtual* time; this one
// reports *wall* time. Four sections:
//
//   1. backend A/B   — the original 64-PE message-rate workload under the
//                      thread and fiber backends (fiber speedup headline).
//   2. PE sweep      — the same workload at 64 -> 16384 PEs (fibers; 16K OS
//                      threads is not a thing), reporting events/sec per
//                      scale point. This is the scale-out regression series:
//                      events/sec collapsing at high PE counts means the
//                      event queue or the stack management stopped scaling.
//   3. 4K-PE A/B     — optimized configuration (timing-wheel queue, warm
//                      fiber-stack pool, batched wakeups, fast fiber switch)
//                      vs the PR-1 baseline (binary heap, cold unpooled
//                      stacks, per-waiter wakeups, swapcontext + its
//                      per-swap syscall) on a barrier+message-rate
//                      workload, measured end-to-end: engine construction,
//                      spawn, run, teardown. Headline: speedup_4kpe (the
//                      pool only pays off across repeated runs in one
//                      process, which is exactly the sweep/CI shape).
//   4. cross-checks  — heap and wheel must execute identical event counts to
//                      identical virtual end times (and batching must not
//                      move virtual time) or the bench aborts: the perf
//                      numbers are meaningless if determinism broke.
//
// `--scale-smoke` runs a single 1K-PE barrier+message-rate round under a
// wall-clock budget and exits — the cheap scale canary for check_tier1.sh.
//
// Wall numbers are machine-dependent: the absolute seconds and events/sec
// in BENCH_engine.json are a report that no gate reads. The wall check is
// three same-run ratios, each held to a floor far below every value seen on
// 1- and 4-core hosts; the bench writes its file, then exits 1 naming each
// ratio below its floor. Exporting section 3's baseline settings for the
// whole run (GDRSHMEM_SIM_QUEUE=heap GDRSHMEM_SIM_BATCH=off
// GDRSHMEM_SIM_FIBER_SWITCH=ucontext GDRSHMEM_SIM_STACK_POOL=0) fails the
// 4K-PE A/B floor.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/stack_pool.hpp"
#include "sim/time.hpp"

using namespace gdrshmem;
using sim::BackendKind;
using sim::Duration;
using sim::Engine;
using sim::FiberStackPool;
using sim::Mailbox;
using sim::Process;
using sim::QueueKind;

namespace {

struct Result {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::int64_t virtual_end_ns = 0;
  std::size_t queue_hwm = 0;

  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  }
};

struct Config {
  BackendKind backend = BackendKind::kFibers;
  QueueKind queue = QueueKind::kWheel;
  bool batch = true;
  bool barrier = false;  ///< add a notification barrier per iteration
  bool time_lifecycle = false;  ///< include construct/spawn/teardown in wall_s
};

/// Message-rate workload: each PE posts a window of messages to its right
/// neighbour's mailbox, drains its own, and optionally joins a full-PE
/// barrier — so every message costs a blocked receive and a wakeup, and each
/// barrier release is a PE-count-sized same-instant burst.
Result run_message_rate(const Config& cfg, int pes, int iters, int window) {
  Result res;
  const double t0 = bench::wall_now();
  double run_wall = 0;
  {
    Engine eng(cfg.backend, cfg.queue);
    eng.set_batch_wakeups(cfg.batch);
    std::vector<Mailbox<int>> boxes(static_cast<std::size_t>(pes));
    sim::Notification barrier;
    int waiting = 0;

    for (int pe = 0; pe < pes; ++pe) {
      eng.spawn("pe" + std::to_string(pe), [&, pe](Process& p) {
        const int right = (pe + 1) % pes;
        for (int i = 0; i < iters; ++i) {
          for (int w = 0; w < window; ++w) {
            boxes[static_cast<std::size_t>(right)].post(w);
            p.delay(Duration::ns(5));  // per-message injection cost
          }
          for (int w = 0; w < window; ++w) {
            boxes[static_cast<std::size_t>(pe)].receive(p);
          }
          if (cfg.barrier) {
            if (++waiting == pes) {
              waiting = 0;
              barrier.notify();
            } else {
              p.await(barrier);
            }
          }
        }
      });
    }

    const double r0 = bench::wall_now();
    eng.run();
    run_wall = bench::wall_now() - r0;
    res.events = eng.events_executed();
    res.virtual_end_ns = (eng.now() - sim::Time::zero()).count_ns();
    res.queue_hwm = eng.queue_size_hwm();
  }  // engine teardown (stack release/unmap) inside the lifecycle window
  res.wall_s = cfg.time_lifecycle ? bench::wall_now() - t0 : run_wall;
  return res;
}

/// Ratios that fell below their floor, each named, for the exit status.
std::vector<std::string> floor_failures;

/// Print `ratio` against its `floor` and record it if it falls short (a
/// NaN ratio does too).
void check_ratio(const char* name, double ratio, double floor) {
  std::printf("%s: %.3g (floor >= %g)\n\n", name, ratio, floor);
  if (!(ratio >= floor)) {
    char line[160];
    std::snprintf(line, sizeof line, "%s %.3g is below its floor %g", name,
                  ratio, floor);
    floor_failures.emplace_back(line);
  }
}

[[noreturn]] void die_divergence(const char* what, const Result& a,
                                 const Result& b) {
  std::fprintf(stderr,
               "FATAL: %s diverged (events %llu vs %llu, end %lld vs %lld "
               "ns) — determinism contract broken\n",
               what, static_cast<unsigned long long>(a.events),
               static_cast<unsigned long long>(b.events),
               static_cast<long long>(a.virtual_end_ns),
               static_cast<long long>(b.virtual_end_ns));
  std::exit(1);
}

/// --scale-smoke: one 1K-PE barrier+message-rate round under a wall budget.
/// The budget is deliberately loose (CI boxes vary wildly); it catches
/// catastrophic scale regressions, not percent-level drift.
int scale_smoke() {
  constexpr double kBudgetSeconds = 20.0;
  Config cfg;
  cfg.barrier = true;
  cfg.time_lifecycle = true;
  Result warm = run_message_rate(cfg, 128, 2, 4);  // warm the stack pool
  Result r = run_message_rate(cfg, 1024, 4, 8);
  std::printf("scale-smoke: 1024-PE barrier+msgrate: %llu events, %.3f s "
              "(budget %.0f s), queue hwm %zu\n",
              static_cast<unsigned long long>(r.events), r.wall_s,
              kBudgetSeconds, r.queue_hwm);
  (void)warm;
  if (r.wall_s > kBudgetSeconds) {
    std::fprintf(stderr, "scale-smoke FAILED: %.3f s exceeds %.0f s budget\n",
                 r.wall_s, kBudgetSeconds);
    return 1;
  }
  if (r.queue_hwm < 1024) {
    std::fprintf(stderr, "scale-smoke FAILED: queue hwm %zu < PE count — "
                 "barrier burst did not reach the queue\n", r.queue_hwm);
    return 1;
  }
  std::printf("scale-smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale-smoke") == 0) return scale_smoke();
  }

  // ---- 1. backend A/B at 64 PEs (the original headline) ------------------
  const int pes = 64, iters = 50, window = 16;
  std::printf("== engine overhead: %d-PE message-rate workload, "
              "%d iters x window %d ==\n", pes, iters, window);

  Config threads_cfg, fibers_cfg;
  threads_cfg.backend = BackendKind::kThreads;
  // Warm both backends once (thread pool spin-up, stack pool, page faults).
  run_message_rate(fibers_cfg, 8, 2, 4);
  run_message_rate(threads_cfg, 8, 2, 4);

  Result threads = run_message_rate(threads_cfg, pes, iters, window);
  Result fibers = run_message_rate(fibers_cfg, pes, iters, window);

  std::printf("%-10s %12s %14s %16s\n", "backend", "events", "wall (s)",
              "events/sec");
  std::printf("%-10s %12llu %14.4f %16.0f\n", "threads",
              static_cast<unsigned long long>(threads.events), threads.wall_s,
              threads.events_per_sec());
  std::printf("%-10s %12llu %14.4f %16.0f\n", "fibers",
              static_cast<unsigned long long>(fibers.events), fibers.wall_s,
              fibers.events_per_sec());
  if (threads.events != fibers.events ||
      threads.virtual_end_ns != fibers.virtual_end_ns) {
    die_divergence("backends", threads, fibers);
  }
  const double speedup = fibers.events_per_sec() / threads.events_per_sec();
  check_ratio("speedup_fibers_vs_threads", speedup, 10.0);

  const std::string base = "engine/msgrate/" + std::to_string(pes) + "pe";
  bench::add_wall_point(base + "/threads", threads.wall_s, threads.events);
  bench::add_wall_point(base + "/fibers", fibers.wall_s, fibers.events);
  bench::add_point(base + "/virtual_end",
                   static_cast<double>(fibers.virtual_end_ns) * 1e-3);
  bench::add_metric("speedup_fibers_vs_threads", speedup);
  bench::add_metric("pes", static_cast<double>(pes));

  // ---- 2. PE-count sweep 64 -> 16384 (fibers) ----------------------------
  // iters*window shrinks as PEs grow so each point stays seconds-scale; the
  // gated quantities are events (exact) and the 16K-PE over 64-PE events/sec
  // ratio (floor), not wall time. A queue or stack pool that stops scaling
  // collapses that ratio.
  struct SweepPoint { int pes, iters, window; };
  const SweepPoint sweep[] = {
      {64, 50, 16}, {256, 24, 16}, {1024, 12, 8}, {4096, 6, 8}, {16384, 2, 6},
  };
  std::printf("== PE-count sweep (fibers, wheel queue, batched wakeups, "
              "barrier each iter) ==\n");
  std::printf("%8s %12s %14s %16s %12s\n", "pes", "events", "wall (s)",
              "events/sec", "queue hwm");
  std::vector<Result> swept;
  for (const SweepPoint& sp : sweep) {
    Config cfg;
    cfg.barrier = true;
    const Result& r =
        swept.emplace_back(run_message_rate(cfg, sp.pes, sp.iters, sp.window));
    std::printf("%8d %12llu %14.4f %16.0f %12zu\n", sp.pes,
                static_cast<unsigned long long>(r.events), r.wall_s,
                r.events_per_sec(), r.queue_hwm);
    const std::string name = "engine/sweep/" + std::to_string(sp.pes) + "pe";
    bench::add_wall_point(name + "/fibers", r.wall_s, r.events);
    bench::add_point(name + "/virtual_end",
                     static_cast<double>(r.virtual_end_ns) * 1e-3);
  }
  const double sweep_ratio =
      swept.back().events_per_sec() / swept.front().events_per_sec();
  check_ratio("events_per_sec_16kpe_vs_64pe", sweep_ratio, 0.02);

  // ---- 3. 4K-PE optimized-vs-baseline A/B --------------------------------
  // End-to-end lifecycle timing (construct + spawn + run + teardown): the
  // pool's mmap/munmap savings, the wheel/batching queue savings, and the
  // syscall-free fiber switch all land in this window. Baseline = PR-1
  // engine shape: heap queue, per-waiter wakeups, pooling disabled (every
  // stack is a fresh mmap, torn down again), swapcontext handoffs (an
  // rt_sigprocmask syscall per switch). The switch mode is read per Engine
  // construction, so pinning it via the environment around each run is exact.
  // The unit under test is a *job*: construct, spawn 4K PEs, run a
  // barrier+message-rate round, tear down — repeated kReps times in one
  // process, which is exactly how the engine is used (every test, bench
  // point, and sweep iteration is its own Engine lifetime). The stack
  // pool's whole value is amortization across those lifetimes, so the A/B
  // must include them; a single long in-engine run would hide it.
  const int ab_pes = 4096, ab_iters = 1, ab_window = 4, ab_reps = 3;
  FiberStackPool& pool = FiberStackPool::instance();
  const std::size_t pool_cap = pool.capacity();

  auto run_reps = [&](const Config& cfg) {
    Result total;
    for (int rep = 0; rep < ab_reps; ++rep) {
      Result r = run_message_rate(cfg, ab_pes, ab_iters, ab_window);
      total.wall_s += r.wall_s;
      total.events += r.events;
      if (rep == 0) {
        total.virtual_end_ns = r.virtual_end_ns;
      } else if (r.virtual_end_ns != total.virtual_end_ns) {
        die_divergence("4K A/B repetitions", total, r);
      }
    }
    return total;
  };

  Config baseline_cfg;
  baseline_cfg.queue = QueueKind::kHeap;
  baseline_cfg.batch = false;
  baseline_cfg.barrier = true;
  baseline_cfg.time_lifecycle = true;
  pool.set_capacity(0);
  pool.trim();
  ::setenv("GDRSHMEM_SIM_FIBER_SWITCH", "ucontext", 1);
  Result ab_base = run_reps(baseline_cfg);

  Config opt_cfg = baseline_cfg;
  opt_cfg.queue = QueueKind::kWheel;
  opt_cfg.batch = true;
  pool.set_capacity(pool_cap);
  ::setenv("GDRSHMEM_SIM_FIBER_SWITCH", "fast", 1);
  run_message_rate(opt_cfg, ab_pes, 1, 1);  // warm the pool at 4K geometry
  Result ab_opt = run_reps(opt_cfg);
  ::unsetenv("GDRSHMEM_SIM_FIBER_SWITCH");

  if (ab_base.virtual_end_ns != ab_opt.virtual_end_ns) {
    die_divergence("4K A/B configs", ab_base, ab_opt);
  }
  const double ab_speedup = ab_base.wall_s / ab_opt.wall_s;
  std::printf("== 4K-PE A/B (%d jobs, lifecycle wall: "
              "construct+spawn+run+teardown each) ==\n", ab_reps);
  std::printf("baseline  (heap, unpooled, unbatched, ucontext): %.4f s, "
              "%llu events\n",
              ab_base.wall_s, static_cast<unsigned long long>(ab_base.events));
  std::printf("optimized (wheel, pooled, batched, fast switch): %.4f s, "
              "%llu events\n",
              ab_opt.wall_s, static_cast<unsigned long long>(ab_opt.events));
  check_ratio("speedup_4kpe_vs_baseline", ab_speedup, 2.0);
  bench::add_wall_point("engine/4kpe_ab/baseline", ab_base.wall_s,
                        ab_base.events);
  bench::add_wall_point("engine/4kpe_ab/optimized", ab_opt.wall_s,
                        ab_opt.events);
  bench::add_metric("speedup_4kpe_vs_baseline", ab_speedup);

  // ---- 4. queue/batching determinism cross-checks ------------------------
  {
    Config heap_cfg, wheel_cfg;
    heap_cfg.queue = QueueKind::kHeap;
    heap_cfg.barrier = wheel_cfg.barrier = true;
    Result h = run_message_rate(heap_cfg, 256, 6, 8);
    Result w = run_message_rate(wheel_cfg, 256, 6, 8);
    if (h.events != w.events || h.virtual_end_ns != w.virtual_end_ns) {
      die_divergence("heap/wheel queues", h, w);
    }
    Config nobatch_cfg = wheel_cfg;
    nobatch_cfg.batch = false;
    Result nb = run_message_rate(nobatch_cfg, 256, 6, 8);
    if (nb.virtual_end_ns != w.virtual_end_ns) {
      die_divergence("batching (virtual time)", nb, w);
    }
    std::printf("cross-check OK: heap == wheel (%llu events), batching "
                "preserves virtual time\n\n",
                static_cast<unsigned long long>(h.events));
  }

  const int status = bench::report_and_run(argc, argv, "engine");
  std::fflush(stdout);  // the failures end a redirected log, after the report
  for (const std::string& f : floor_failures) {
    std::fprintf(stderr, "engine wall check FAILED: %s\n", f.c_str());
  }
  return floor_failures.empty() ? status : 1;
}
