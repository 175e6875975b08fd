// Fault injection end-to-end: correctness of every recovery path under a
// seeded plan, bit-identical determinism across runs and across execution
// backends, and the report/trace surfacing of fault counters.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/trace.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

constexpr std::size_t kNumFaultEvents =
    static_cast<std::size_t>(sim::FaultEvent::kCount_);

std::array<std::uint64_t, kNumFaultEvents> fault_counts(Runtime& rt) {
  std::array<std::uint64_t, kNumFaultEvents> c{};
  for (std::size_t i = 0; i < kNumFaultEvents; ++i) {
    c[i] = rt.faults().count(static_cast<sim::FaultEvent>(i));
  }
  return c;
}

unsigned char pattern(int pe, int iter, std::size_t i) {
  return static_cast<unsigned char>(pe * 131 + iter * 17 + i * 7 + 3);
}

/// A mixed RMA + atomics workload that exercises direct RDMA, the chunked
/// GDR pipeline, and remote atomics; every byte is verified at the target.
void mixed_workload(Ctx& ctx, int iters, std::size_t n) {
  const int np = ctx.n_pes();
  const int me = ctx.my_pe();
  const int target = (me + 1) % np;
  const int from = (me + np - 1) % np;
  auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
  auto* host = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kHost));
  auto* ctr = static_cast<std::int64_t*>(
      ctx.shmalloc(sizeof(std::int64_t), Domain::kHost));
  *ctr = 0;
  auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
  std::vector<unsigned char> hsrc(n);
  ctx.barrier_all();

  for (int iter = 0; iter < iters; ++iter) {
    for (std::size_t i = 0; i < n; ++i) src[i] = pattern(me, iter, i);
    for (std::size_t i = 0; i < n; ++i) hsrc[i] = pattern(me, iter + 100, i);
    ctx.putmem(dev, src, n, target);           // D->D: pipeline / proxy
    ctx.putmem(host, hsrc.data(), n, target);  // H->H: direct RDMA
    for (int k = 0; k < 8; ++k) ctx.atomic_fetch_add(ctr, 1, iter % np);
    ctx.quiet();
    ctx.barrier_all();
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 64)) {
      ASSERT_EQ(dev[i], pattern(from, iter, i)) << "dev byte " << i;
      ASSERT_EQ(host[i], pattern(from, iter + 100, i)) << "host byte " << i;
    }
    ctx.barrier_all();
  }
  ctx.barrier_all();
  // Every PE added 8 per iteration to one rotating counter owner; each
  // owner's total must be exact — lost or double-applied atomics both fail.
  std::int64_t expect = 0;
  for (int iter = 0; iter < iters; ++iter) {
    if (iter % np == me) expect += 8 * np;
  }
  ASSERT_EQ(*ctr, expect);
  ctx.barrier_all();
}

struct RunResult {
  std::int64_t end_ns = 0;
  std::array<std::uint64_t, kNumFaultEvents> counts{};
  bool operator==(const RunResult&) const = default;
};

RunResult run_mixed(sim::BackendKind backend, const std::string& plan) {
  hw::ClusterConfig cluster = make_cluster(2, 2);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.sim_backend = backend;
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse(plan);
  auto rt = run_spmd(cluster, opts,
                     [&](Ctx& ctx) { mixed_workload(ctx, 3, 256u << 10); });
  RunResult r;
  r.end_ns = rt->engine().now().count_ns();
  r.counts = fault_counts(*rt);
  return r;
}

const char* kMixedPlan = "seed=11,wire_error_rate=8e-3,atomic_error_rate=5e-3";

TEST(FaultInjection, WireErrorsAreRecoveredAndDeterministic) {
  RunResult a = run_mixed(sim::BackendKind::kFibers, kMixedPlan);
  RunResult b = run_mixed(sim::BackendKind::kFibers, kMixedPlan);
  EXPECT_EQ(a, b) << "same seed must give a bit-identical run";
  EXPECT_GT(a.counts[static_cast<std::size_t>(sim::FaultEvent::kRetransmit)], 0u)
      << "plan with wire_error_rate=8e-3 should have caused retransmits";
}

TEST(FaultInjection, FiberAndThreadBackendsAgreeUnderFaults) {
  RunResult fib = run_mixed(sim::BackendKind::kFibers, kMixedPlan);
  RunResult thr = run_mixed(sim::BackendKind::kThreads, kMixedPlan);
  EXPECT_EQ(fib, thr)
      << "fault behaviour must be bit-identical on fibers and threads";
}

TEST(FaultInjection, ShortFlapRidesThroughOnHcaRetransmits) {
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 8u << 20;
  // 300 us outage starting at t=40 us: well inside the 7-retry exponential
  // envelope, so the HCA alone must absorb it — no CQ error surfaces.
  opts.faults = sim::FaultPlan::parse("flap=1@40+300");
  const std::size_t n = 256u << 10;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* host = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kHost));
    std::vector<unsigned char> buf(n);
    if (ctx.my_pe() == 0) {
      for (int iter = 0; iter < 20; ++iter) {
        for (std::size_t i = 0; i < n; ++i) buf[i] = pattern(0, iter, i);
        ctx.putmem(host, buf.data(), n, 1);
        ctx.quiet();
      }
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; i += 997) {
        ASSERT_EQ(host[i], pattern(0, 19, i));
      }
    }
  });
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kRetransmit), 0u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kCompletionError), 0u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kSwReplay), 0u);
}

TEST(FaultInjection, LongFlapSurfacesErrorsAndSoftwareReplays) {
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 8u << 20;
  // 2.5 ms outage: longer than the whole tier-1 retry envelope, so at least
  // one op must exhaust its HCA retries and be replayed by software.
  opts.faults = sim::FaultPlan::parse("flap=1@40+2500");
  const std::size_t n = 256u << 10;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* host = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kHost));
    std::vector<unsigned char> buf(n);
    if (ctx.my_pe() == 0) {
      for (int iter = 0; iter < 6; ++iter) {
        for (std::size_t i = 0; i < n; ++i) buf[i] = pattern(0, iter, i);
        ctx.putmem(host, buf.data(), n, 1);
        ctx.quiet();
      }
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; i += 997) {
        ASSERT_EQ(host[i], pattern(0, 5, i));
      }
    }
  });
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kCompletionError), 0u);
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kSwReplay), 0u);
}

TEST(FaultInjection, SmallPutFailingAfterReturnIsReplayedByAnyWait) {
  // A small host put returns right after its post, blocking or not. When a
  // flap fails it after the caller has moved on, the caller's next progress
  // pass must replay it — here the wait for the peer's reply, with no
  // quiet() in between. Without that the two PEs wait on each other.
  for (bool nbi : {false, true}) {
    SCOPED_TRACE(nbi ? "putmem_nbi" : "putmem");
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    opts.host_heap_bytes = 8u << 20;
    opts.faults = sim::FaultPlan::parse("flap=0@4995+2500");
    auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
      auto* flag = static_cast<std::uint64_t*>(ctx.shmalloc(8, Domain::kHost));
      auto* reply = static_cast<std::uint64_t*>(ctx.shmalloc(8, Domain::kHost));
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        ctx.compute(sim::Time::zero() + sim::Duration::us(5000) - ctx.now());
        const std::uint64_t one = 1;
        if (nbi) {
          ctx.putmem_nbi(flag, &one, sizeof one, 1);
        } else {
          ctx.putmem(flag, &one, sizeof one, 1);
        }
        ctx.wait_until(reply, Cmp::kEq, std::uint64_t{1});
      } else {
        ctx.wait_until(flag, Cmp::kEq, std::uint64_t{1});
        ctx.p(reply, std::uint64_t{1}, 0);
      }
      ctx.barrier_all();
    });
    EXPECT_EQ(rt->faults().count(sim::FaultEvent::kCompletionError), 1u);
    EXPECT_EQ(rt->faults().count(sim::FaultEvent::kSwReplay), 1u);
  }
}

TEST(FaultInjection, ProxyCrashMidGetIsRecovered) {
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  // Kill the serving node's proxy 300 us into a ~multi-hundred-us 4 MB
  // proxied get; the requester must time out, reissue, and still read the
  // right bytes from the restarted daemon.
  opts.faults = sim::FaultPlan::parse("crash=1@300");
  const std::size_t n = 4u << 20;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; ++i) dev[i] = pattern(1, 0, i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> out(n, 0xee);
      ctx.getmem(out.data(), dev, n, 1);
      for (std::size_t i = 0; i < n; i += 4093) {
        ASSERT_EQ(out[i], pattern(1, 0, i)) << "byte " << i;
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyRestart), 1u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
}

TEST(FaultInjection, ProxyCrashMidPutIsRecovered) {
  // Inter-socket HCA<->GPU so a large H->D put takes the proxy pipeline.
  hw::ClusterConfig cluster = make_cluster(2, 1, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse("crash=1@300");
  const std::size_t n = 4u << 20;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> src(n);
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(0, 1, i);
      ctx.putmem(dev, src.data(), n, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; i += 4093) {
        ASSERT_EQ(dev[i], pattern(0, 1, i)) << "byte " << i;
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyRestart), 1u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
}

TEST(FaultInjection, P2pRevocationFallsBackAndStaysCorrect) {
  hw::ClusterConfig cluster = make_cluster(2, 2);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  // Node 1 loses GPUDirect before any traffic flows: every D-D transfer
  // touching it must reroute (proxy / host staging) yet move the same bytes.
  opts.faults = sim::FaultPlan::parse("revoke=1@0");
  const std::size_t n = 512u << 10;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
    ctx.barrier_all();
    if (me == 0) {
      // Healthy node -> revoked node, large and small.
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(0, 0, i);
      ctx.putmem(dev, src, n, 2);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (me == 2) {
      for (std::size_t i = 0; i < n; i += 1021) {
        ASSERT_EQ(dev[i], pattern(0, 0, i));
      }
      // Revoked node -> healthy node.
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(2, 1, i);
      ctx.putmem(dev, src, n, 0);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (me == 0) {
      for (std::size_t i = 0; i < n; i += 1021) {
        ASSERT_EQ(dev[i], pattern(2, 1, i));
      }
      // Large get from the revoked node's GPU (served by its proxy).
      std::vector<unsigned char> out(n);
      ctx.getmem(out.data(), dev, n, 2);
      for (std::size_t i = 0; i < n; i += 1021) {
        ASSERT_EQ(out[i], pattern(0, 0, i));
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kP2pRevoke), 1u);
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kGdrFallback), 0u);
}

TEST(FaultInjection, PlanNamingAMissingNodeIsRejected) {
  // On a 2-node cluster each of these entries would never fire; the runtime
  // refuses the plan and names the entry.
  for (const char* entry : {"revoke=2@0", "crash=2@0", "flap=5@0+10"}) {
    SCOPED_TRACE(entry);
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    opts.faults = sim::FaultPlan::parse(entry);
    try {
      Runtime rt(make_cluster(2, 1), opts);
      ADD_FAILURE() << "plan accepted";
    } catch (const ShmemError& e) {
      EXPECT_NE(std::string(e.what()).find(entry), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultInjection, EmptyPlanLeavesNoTrace) {
  auto rt = run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
                     [&](Ctx& ctx) {
                       auto* h = static_cast<int*>(ctx.shmalloc(sizeof(int)));
                       int v = 7;
                       ctx.putmem(h, &v, sizeof(v), (ctx.my_pe() + 1) % 4);
                       ctx.quiet();
                       ctx.barrier_all();
                     });
  EXPECT_FALSE(rt->faults_enabled());
  for (std::size_t i = 0; i < kNumFaultEvents; ++i) {
    EXPECT_EQ(rt->faults().count(static_cast<sim::FaultEvent>(i)), 0u);
  }
  EXPECT_EQ(format_report(*rt).find("fault injection"), std::string::npos);
}

TEST(DeadlineWait, NeverDeadlineIsPlainWaitFor) {
  // Without a fault plan every recovery deadline is Time::never(): the wait
  // must cost exactly the events of wait_for and leave nothing parked at
  // infinity, so the run ends at the last real event.
  auto run = [](bool never) {
    auto rt = run_spmd(
        make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
        [&](Ctx& ctx) {
          auto* flag = static_cast<std::uint64_t*>(
              ctx.shmalloc(sizeof(std::uint64_t), Domain::kHost));
          *flag = 0;
          ctx.barrier_all();
          if (ctx.my_pe() == 0) {
            ctx.compute(sim::Duration::us(20));
            std::uint64_t one = 1;
            ctx.putmem(flag, &one, sizeof(one), 1);
            ctx.quiet();
          } else {
            auto arrived = [&] { return *flag == 1; };
            if (never) {
              EXPECT_EQ(ctx.runtime().deadline_after(sim::Duration::us(1)),
                        sim::Time::never());
              EXPECT_TRUE(ctx.wait_for_deadline(arrived, sim::Time::never()));
            } else {
              ctx.wait_for(arrived);
            }
          }
          ctx.barrier_all();
        });
    return std::pair{rt->engine().now(), rt->engine().events_executed()};
  };
  const auto with_never = run(true);
  EXPECT_EQ(with_never, run(false));
  EXPECT_LT(with_never.first, sim::Time::zero() + sim::Duration::ms(1));
}

TEST(DeadlineWait, PastDeadlineReturnsFalseAtOnce) {
  run_spmd(make_cluster(1, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             ctx.compute(sim::Duration::us(5));
             const sim::Time t = ctx.now();
             EXPECT_FALSE(ctx.wait_for_deadline(
                 [] { return false; }, sim::Time::zero() + sim::Duration::us(1)));
             EXPECT_EQ(ctx.now(), t);
           });
}

TEST(FaultInjection, ReportAndTracerSurfaceFaultCounters) {
  hw::ClusterConfig cluster = make_cluster(2, 2);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse(kMixedPlan);
  Runtime rt(cluster, opts);
  rt.tracer().enable();
  rt.run([&](Ctx& ctx) { mixed_workload(ctx, 2, 256u << 10); });

  std::string report = format_report(rt);
  EXPECT_NE(report.find("fault injection (plan:"), std::string::npos);
  EXPECT_NE(report.find("retransmit"), std::string::npos);

  std::uint64_t traced_retransmits = 0;
  for (const TraceEvent& ev : rt.tracer().events()) {
    if (ev.kind == TraceEvent::Kind::kRetransmit) ++traced_retransmits;
  }
  EXPECT_EQ(traced_retransmits,
            rt.faults().count(sim::FaultEvent::kRetransmit))
      << "every injector event must be mirrored into the tracer";

  // The injector is the one store; the report's snapshot mirrors every kind,
  // including those that never fired.
  for (std::size_t i = 0; i < static_cast<std::size_t>(sim::FaultEvent::kCount_);
       ++i) {
    auto ev = static_cast<sim::FaultEvent>(i);
    auto it = rt.metrics().counters().find(std::string("faults/") +
                                           sim::to_string(ev));
    ASSERT_NE(it, rt.metrics().counters().end()) << sim::to_string(ev);
    EXPECT_EQ(it->second.value(), rt.faults().count(ev)) << sim::to_string(ev);
  }
}

}  // namespace
}  // namespace gdrshmem::core
