// Atomics tests: IB hardware 64-bit atomics on host and GPU symmetric
// memory (also with P2P revoked), the <64-bit mask technique, and
// concurrent-correctness.
#include <gtest/gtest.h>

#include "sim/fault.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

TEST(Atomics, FetchAddOnHostSymmetric) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* c = static_cast<std::int64_t*>(ctx.shmalloc(8));
             *c = 100;
             ctx.barrier_all();
             if (ctx.my_pe() == 0) {
               EXPECT_EQ(ctx.atomic_fetch_add(c, 7, 1), 100);
               EXPECT_EQ(ctx.atomic_fetch(c, 1), 107);
               ctx.atomic_inc(c, 1);
               EXPECT_EQ(ctx.atomic_fetch(c, 1), 108);
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_EQ(*c, 108);
             }
           });
}

TEST(Atomics, FetchAddOnGpuSymmetric) {
  // Section III-D: GDR lets the HCA run atomics on GPU memory directly.
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* c = static_cast<std::int64_t*>(ctx.shmalloc(8, Domain::kGpu));
             *c = 5;
             ctx.barrier_all();
             if (ctx.my_pe() == 0) {
               EXPECT_EQ(ctx.atomic_fetch_add(c, 3, 1), 5);
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_EQ(*c, 8);
             }
           });
}

TEST(Atomics, GpuWordOfRevokedNodeTakesCpuAssistedPath) {
  // With node 1's P2P revoked the HCA can no longer RMW its GPU memory, so
  // a host agent bounces the word. Both hardware atomics still return the
  // prior value and apply the update, and each counts one gdr-fallback.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.faults = sim::FaultPlan::parse("revoke=1@0");
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    auto* c = static_cast<std::int64_t*>(ctx.shmalloc(8, Domain::kGpu));
    *c = 5;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto fallbacks = [&] {
        return ctx.runtime().faults().count(sim::FaultEvent::kGdrFallback);
      };
      const std::uint64_t before = fallbacks();
      EXPECT_EQ(ctx.atomic_fetch_add(c, 3, 1), 5);
      EXPECT_EQ(fallbacks(), before + 1);
      EXPECT_EQ(ctx.atomic_compare_swap(c, 8, 42, 1), 8);
      EXPECT_EQ(fallbacks(), before + 2);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(*c, 42);
    }
  });
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kP2pRevoke), 1u);
}

TEST(Atomics, CompareSwapAndSwap) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* c = static_cast<std::int64_t*>(ctx.shmalloc(8));
             *c = 10;
             ctx.barrier_all();
             if (ctx.my_pe() == 0) {
               EXPECT_EQ(ctx.atomic_compare_swap(c, 99, 1, 1), 10);  // fails
               EXPECT_EQ(ctx.atomic_compare_swap(c, 10, 42, 1), 10); // succeeds
               EXPECT_EQ(ctx.atomic_swap(c, 77, 1), 42);
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_EQ(*c, 77);
             }
           });
}

TEST(Atomics, ConcurrentFetchAddIsLinearizable) {
  constexpr int kPerPe = 25;
  run_spmd(make_cluster(4, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* c = static_cast<std::int64_t*>(ctx.shmalloc(8));
             *c = 0;
             ctx.barrier_all();
             std::vector<std::int64_t> seen;
             for (int i = 0; i < kPerPe; ++i) {
               seen.push_back(ctx.atomic_fetch_add(c, 1, 0));
             }
             // Old values must be strictly increasing per PE.
             for (std::size_t i = 1; i < seen.size(); ++i) {
               EXPECT_GT(seen[i], seen[i - 1]);
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 0) {
               EXPECT_EQ(*c, 8 * kPerPe);
             }
           });
}

TEST(Atomics, MaskTechnique32Bit) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             // Two adjacent 32-bit counters in one 64-bit word: updates to
             // one lane must not disturb the other.
             auto* pair = static_cast<std::int32_t*>(ctx.shmalloc(8));
             pair[0] = 11;
             pair[1] = 22;
             ctx.barrier_all();
             if (ctx.my_pe() == 0) {
               EXPECT_EQ(ctx.atomic_fetch_add32(&pair[0], 5, 1), 11);
               EXPECT_EQ(ctx.atomic_fetch_add32(&pair[1], -2, 1), 22);
               EXPECT_EQ(ctx.atomic_compare_swap32(&pair[0], 16, 100, 1), 16);
               EXPECT_EQ(ctx.atomic_compare_swap32(&pair[0], 999, 0, 1), 100);
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_EQ(pair[0], 100);
               EXPECT_EQ(pair[1], 20);
             }
           });
}

TEST(Atomics, MaskTechnique32BitLanesStayExactUnderContention) {
  // Four PEs race on both lanes of PE 0's word: fetch-adds on lane 0,
  // compare-and-swap increments on lane 1. A hardware CAS that loses to a
  // write on either lane is retried, so both lanes end exact; more than two
  // hardware atomics per call prove the retry branch ran.
  constexpr int kPerPe = 8;
  std::uint64_t calls = 0;
  auto rt = run_spmd(
      make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
      [&](Ctx& ctx) {
        auto* lanes = static_cast<std::int32_t*>(ctx.shmalloc(8));
        lanes[0] = 0;
        lanes[1] = 0;
        ctx.barrier_all();
        std::int32_t seen = 0;
        for (int i = 0; i < kPerPe; ++i) {
          ctx.atomic_fetch_add32(&lanes[0], 1, 0);
          ++calls;
          while (true) {
            std::int32_t old =
                ctx.atomic_compare_swap32(&lanes[1], seen, seen + 1, 0);
            ++calls;
            if (old == seen) break;
            seen = old;  // another PE incremented first: retry from there
          }
          ++seen;
        }
        ctx.barrier_all();
        if (ctx.my_pe() == 0) {
          EXPECT_EQ(lanes[0], 4 * kPerPe);
          EXPECT_EQ(lanes[1], 4 * kPerPe);
        }
      });
  const OpStats st = rt->stats();
  EXPECT_EQ(st.atomics, calls);
  EXPECT_GT(st.ops(Protocol::kAtomicHw), 2 * calls);
}

TEST(Atomics, MisalignedTargetRejected) {
  run_spmd(make_cluster(1, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* buf = static_cast<std::byte*>(ctx.shmalloc(64));
             auto* misaligned = reinterpret_cast<std::int64_t*>(buf + 4);
             EXPECT_THROW(ctx.atomic_fetch_add(misaligned, 1, 0), ShmemError);
             ctx.barrier_all();
           });
}

TEST(Atomics, LockViaCompareSwap) {
  // The paper motivates atomics with locks/critical sections: build a
  // spinlock over cswap and verify mutual exclusion.
  int in_critical = 0;
  int violations = 0;
  int entries = 0;
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* lock = static_cast<std::int64_t*>(ctx.shmalloc(8));
             *lock = 0;
             ctx.barrier_all();
             for (int round = 0; round < 5; ++round) {
               while (ctx.atomic_compare_swap(lock, 0, 1 + ctx.my_pe(), 0) != 0) {
                 ctx.compute(sim::Duration::us(1));
               }
               if (in_critical != 0) ++violations;
               in_critical = 1;
               ++entries;
               ctx.compute(sim::Duration::us(2));
               in_critical = 0;
               // Release.
               std::int64_t expect = 1 + ctx.my_pe();
               EXPECT_EQ(ctx.atomic_compare_swap(lock, expect, 0, 0), expect);
             }
             ctx.barrier_all();
           });
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(entries, 20);
}

TEST(Atomics, LatencyIsMicrosecondScale) {
  auto rt = std::make_unique<Runtime>(make_cluster(2, 1),
                                      make_options(TransportKind::kEnhancedGdr));
  sim::Duration host_lat, gpu_lat;
  rt->run([&](Ctx& ctx) {
    auto* h = static_cast<std::int64_t*>(ctx.shmalloc(8, Domain::kHost));
    auto* g = static_cast<std::int64_t*>(ctx.shmalloc(8, Domain::kGpu));
    if (ctx.my_pe() == 0) {
      sim::Time t0 = ctx.now();
      for (int i = 0; i < 10; ++i) ctx.atomic_fetch_add(h, 1, 1);
      host_lat = (ctx.now() - t0) * 0.1;
      t0 = ctx.now();
      for (int i = 0; i < 10; ++i) ctx.atomic_fetch_add(g, 1, 1);
      gpu_lat = (ctx.now() - t0) * 0.1;
    }
    ctx.barrier_all();
  });
  EXPECT_GT(host_lat.to_us(), 1.0);
  EXPECT_LT(host_lat.to_us(), 6.0);
  EXPECT_GT(gpu_lat, host_lat);  // PCIe P2P RMW adds latency
  EXPECT_LT(gpu_lat.to_us(), 10.0);
}

}  // namespace
}  // namespace gdrshmem::core
