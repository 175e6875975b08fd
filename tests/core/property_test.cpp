// Property-style tests: odd-size sweeps, run-to-run determinism, randomized
// operation fuzzing against a reference memory model, proxy stress, and
// collectives on awkward PE counts.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/proxy.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

// ---------------------------------------------------------------------------
// Odd-size put/get round trips across the protocol boundaries.

class OddSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OddSizes, PutGetRoundTripAllDomains) {
  const std::size_t n = GetParam();
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  run_spmd(make_cluster(2, 2), opts, [&](Ctx& ctx) {
    for (Domain d : {Domain::kHost, Domain::kGpu}) {
      auto* sym = static_cast<unsigned char*>(ctx.shmalloc(n, d));
      std::vector<unsigned char> out(n, 0);
      std::vector<unsigned char> in(n);
      for (std::size_t i = 0; i < n; ++i) in[i] = static_cast<unsigned char>(i ^ 0x5a);
      if (ctx.my_pe() == 0) {
        ctx.putmem(sym, in.data(), n, 3);  // inter-node
        ctx.quiet();
        ctx.getmem(out.data(), sym, n, 3);
        EXPECT_EQ(out, in) << "domain " << to_string(d) << " size " << n;
      }
      ctx.barrier_all();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, OddSizes,
                         ::testing::Values(1, 3, 7, 17, 63, 127, 129, 255, 1000,
                                           4097, 8193, 65537, 300001),
                         [](const auto& param_info) {
                           return "bytes" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Determinism: identical configurations give bit-identical virtual time.

std::pair<std::int64_t, std::uint64_t> run_fingerprint() {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  Runtime rt(make_cluster(2, 2), opts);
  rt.run([&](Ctx& ctx) {
    auto* a = static_cast<std::int64_t*>(ctx.shmalloc(1024, Domain::kGpu));
    for (int i = 0; i < 10; ++i) {
      ctx.putmem(a, &i, sizeof(i), (ctx.my_pe() + 1) % 4);
      if (i % 3 == 0) ctx.atomic_add(a, 1, (ctx.my_pe() + 2) % 4);
      ctx.barrier_all();
    }
  });
  return {rt.engine().now().count_ns(), rt.verbs().ops_posted()};
}

TEST(Determinism, IdenticalRunsAreBitIdentical) {
  auto a = run_fingerprint();
  auto b = run_fingerprint();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------------
// Randomized operation fuzz against a reference model of symmetric memory.

TEST(Fuzz, RandomOpsMatchReferenceModel) {
  constexpr int kNp = 4;
  constexpr std::size_t kWords = 64;
  // reference[pe][i] mirrors what PE pe's symmetric array should hold.
  std::vector<std::vector<std::uint64_t>> reference(
      kNp, std::vector<std::uint64_t>(kWords, 0));

  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  run_spmd(make_cluster(2, 2), opts, [&](Ctx& ctx) {
    auto* arr = static_cast<std::uint64_t*>(
        ctx.shmalloc(kWords * sizeof(std::uint64_t), Domain::kGpu));
    ctx.barrier_all();
    // Only PE 0 mutates (so the reference needs no ordering model), but it
    // targets every PE with a random mix of ops and verifies with gets.
    if (ctx.my_pe() == 0) {
      sim::Rng rng(0xfeedface);
      for (int step = 0; step < 200; ++step) {
        int target = static_cast<int>(rng.next_below(kNp));
        std::size_t idx = rng.next_below(kWords);
        std::uint64_t val = rng.next_u64();
        switch (rng.next_below(3)) {
          case 0: {
            ctx.putmem(arr + idx, &val, sizeof(val), target);
            ctx.quiet();
            reference[static_cast<std::size_t>(target)][idx] = val;
            break;
          }
          case 1: {
            auto add = static_cast<std::int64_t>(val % 1000);
            ctx.atomic_add(reinterpret_cast<std::int64_t*>(arr + idx), add, target);
            reference[static_cast<std::size_t>(target)][idx] +=
                static_cast<std::uint64_t>(add);
            break;
          }
          case 2: {
            std::uint64_t got = 0;
            ctx.getmem(&got, arr + idx, sizeof(got), target);
            ASSERT_EQ(got, reference[static_cast<std::size_t>(target)][idx])
                << "step " << step << " target " << target << " idx " << idx;
            break;
          }
        }
      }
    }
    ctx.barrier_all();
    // Final full verification on every PE's own memory.
    for (std::size_t i = 0; i < kWords; ++i) {
      ASSERT_EQ(arr[i], reference[static_cast<std::size_t>(ctx.my_pe())][i]);
    }
    ctx.barrier_all();
  });
}

// ---------------------------------------------------------------------------
// Proxy stress: several PEs pull large blocks from GPUs on one node at once.

TEST(ProxyStress, ConcurrentLargeGetsAreServedFifo) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.gpu_heap_bytes = 32u << 20;
  auto rt = run_spmd(
      make_cluster(3, 2), opts, [&](Ctx& ctx) {
        constexpr std::size_t kBytes = 1u << 20;
        auto* sym = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
        for (std::size_t i = 0; i < kBytes; i += 4096) {
          sym[i] = static_cast<unsigned char>(ctx.my_pe() + 1);
        }
        ctx.barrier_all();
        // PEs 2..5 all pull from node 0's two PEs simultaneously.
        if (ctx.my_pe() >= 2) {
          int victim = ctx.my_pe() % 2;
          std::vector<unsigned char> local(kBytes);
          ctx.getmem(local.data(), sym, kBytes, victim);
          for (std::size_t i = 0; i < kBytes; i += 4096) {
            ASSERT_EQ(local[i], static_cast<unsigned char>(victim + 1));
          }
        }
        ctx.barrier_all();
      });
  EXPECT_EQ(rt->proxy(0).gets_served(), 4u);
}

TEST(ProxyStress, MixedPutsAndGetsThroughOneProxy) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.gpu_heap_bytes = 32u << 20;
  hw::ClusterConfig cluster = make_cluster(2, 2, /*same_socket=*/false);
  run_spmd(cluster, opts, [&](Ctx& ctx) {
    constexpr std::size_t kBytes = 512 * 1024;
    auto* sym = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    std::vector<unsigned char> host_buf(kBytes);
    ctx.barrier_all();
    if (ctx.my_pe() < 2) {
      // Node 0's PEs push large host->device puts into node 1 (proxy-put
      // because of the inter-socket write cap)...
      for (std::size_t i = 0; i < kBytes; ++i) {
        host_buf[i] = static_cast<unsigned char>(ctx.my_pe() * 3 + i % 7);
      }
      ctx.putmem(sym, host_buf.data(), kBytes, ctx.my_pe() + 2);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() >= 2) {
      for (std::size_t i = 0; i < kBytes; i += 1111) {
        ASSERT_EQ(sym[i],
                  static_cast<unsigned char>((ctx.my_pe() - 2) * 3 + i % 7));
      }
    }
    ctx.barrier_all();
  });
}

// ---------------------------------------------------------------------------
// Collectives on non-power-of-two PE counts.

class AwkwardPeCounts : public ::testing::TestWithParam<int> {};

TEST_P(AwkwardPeCounts, BarrierBroadcastReduceCollect) {
  const int np = GetParam();
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  run_spmd(make_cluster(np, 1), opts, [&](Ctx& ctx) {
    auto* v = static_cast<std::int64_t*>(ctx.shmalloc(8));
    auto* r = static_cast<std::int64_t*>(ctx.shmalloc(8));
    auto* blocks = static_cast<std::int64_t*>(
        ctx.shmalloc(8 * static_cast<std::size_t>(np)));
    *v = ctx.my_pe() + 1;
    ctx.barrier_all();
    ctx.team_reduce(ctx.team_world(), r, v, 1, ReduceOp::kSum);
    EXPECT_EQ(*r, np * (np + 1) / 2);
    ctx.team_broadcast(ctx.team_world(), v, r, 8, np - 1);  // root = last PE
    if (ctx.my_pe() != np - 1) {
      EXPECT_EQ(*v, np * (np + 1) / 2);
    }
    std::int64_t mine = 100 + ctx.my_pe();
    ctx.team_fcollect(ctx.team_world(), blocks, &mine, 8);
    for (int i = 0; i < np; ++i) EXPECT_EQ(blocks[i], 100 + i);
    ctx.barrier_all();
  });
}

INSTANTIATE_TEST_SUITE_P(NonPow2, AwkwardPeCounts, ::testing::Values(1, 2, 3, 5, 6, 7),
                         [](const auto& param_info) {
                           return "np" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Skewed barrier stress: PEs with random compute patterns never desync.

TEST(BarrierStress, RandomSkewsStaySynchronized) {
  constexpr int kNp = 6;
  std::vector<int> phase(kNp, 0);
  run_spmd(make_cluster(3, 2), make_options(TransportKind::kHostPipeline),
           [&](Ctx& ctx) {
             sim::Rng rng(static_cast<std::uint64_t>(ctx.my_pe()) * 7919 + 13);
             for (int round = 0; round < 12; ++round) {
               ctx.compute(sim::Duration::us(static_cast<double>(rng.next_below(40))));
               phase[ctx.my_pe()] = round;
               ctx.barrier_all();
               for (int pe = 0; pe < kNp; ++pe) {
                 ASSERT_GE(phase[pe], round) << "PE " << pe << " behind at round "
                                             << round;
               }
             }
           });
}

}  // namespace
}  // namespace gdrshmem::core
