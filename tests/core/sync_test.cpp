// Synchronization and collectives: barrier, wait_until, broadcast,
// reductions, fcollect — on both transports, across node boundaries.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

class SyncBothTransports : public ::testing::TestWithParam<TransportKind> {};

INSTANTIATE_TEST_SUITE_P(Transports, SyncBothTransports,
                         ::testing::Values(TransportKind::kHostPipeline,
                                           TransportKind::kEnhancedGdr),
                         [](const auto& param_info) {
                           const bool baseline =
                               param_info.param == TransportKind::kHostPipeline;
                           return baseline ? "Baseline" : "Enhanced";
                         });

TEST_P(SyncBothTransports, BarrierSynchronizesAllPes) {
  // Each PE contributes after a staggered delay; after the barrier every
  // PE must observe all contributions.
  constexpr int kNp = 8;
  std::vector<int> contributions(kNp, 0);
  run_spmd(make_cluster(4, 2), make_options(GetParam()), [&](Ctx& ctx) {
    ctx.compute(sim::Duration::us(10.0 * ctx.my_pe()));
    contributions[ctx.my_pe()] = 1;
    ctx.barrier_all();
    int sum = std::accumulate(contributions.begin(), contributions.end(), 0);
    EXPECT_EQ(sum, kNp) << "PE " << ctx.my_pe() << " passed the barrier early";
  });
}

TEST_P(SyncBothTransports, RepeatedBarriers) {
  std::vector<int> counters(4, 0);
  run_spmd(make_cluster(2, 2), make_options(GetParam()), [&](Ctx& ctx) {
    for (int round = 0; round < 20; ++round) {
      EXPECT_EQ(counters[ctx.my_pe()], round);
      counters[ctx.my_pe()] = round + 1;
      ctx.barrier_all();
      for (int pe = 0; pe < 4; ++pe) EXPECT_GE(counters[pe], round + 1);
    }
  });
}

TEST_P(SyncBothTransports, WaitUntilFlagFromRemotePut) {
  run_spmd(make_cluster(2, 1), make_options(GetParam()), [&](Ctx& ctx) {
    auto* flag = static_cast<std::int64_t*>(ctx.shmalloc(sizeof(std::int64_t)));
    auto* data = static_cast<int*>(ctx.shmalloc(sizeof(int)));
    if (ctx.my_pe() == 0) {
      int payload = 1234;
      ctx.putmem(data, &payload, sizeof(payload), 1);
      ctx.quiet();  // data strictly before flag
      std::int64_t one = 1;
      ctx.putmem(flag, &one, sizeof(one), 1);
      ctx.quiet();
    } else {
      ctx.wait_until<std::int64_t>(flag, Cmp::kEq, 1);
      EXPECT_EQ(*data, 1234);  // data ordered before the flag
    }
    ctx.barrier_all();
  });
}

TEST(Sync, WaitUntilComparisons) {
  run_spmd(make_cluster(1, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* v = static_cast<std::int64_t*>(ctx.shmalloc(8));
             if (ctx.my_pe() == 0) {
               for (std::int64_t x : {2, 5, 9}) {
                 ctx.compute(sim::Duration::us(3));
                 ctx.putmem(v, &x, 8, 1);
                 ctx.quiet();
               }
             } else {
               ctx.wait_until<std::int64_t>(v, Cmp::kGt, 4);
               EXPECT_GE(*v, 5);
               ctx.wait_until<std::int64_t>(v, Cmp::kGe, 9);
               ctx.wait_until<std::int64_t>(v, Cmp::kNe, 0);
               ctx.wait_until<std::int64_t>(v, Cmp::kLe, 9);
               ctx.wait_until<std::int64_t>(v, Cmp::kLt, 10);
             }
             ctx.barrier_all();
           });
}

TEST_P(SyncBothTransports, BroadcastFromEveryRoot) {
  constexpr std::size_t kWords = 33;
  run_spmd(make_cluster(3, 2), make_options(GetParam()), [&](Ctx& ctx) {
    auto* buf = static_cast<std::uint64_t*>(
        ctx.shmalloc(kWords * sizeof(std::uint64_t)));
    auto* src = static_cast<std::uint64_t*>(
        ctx.shmalloc(kWords * sizeof(std::uint64_t)));
    for (int root = 0; root < ctx.n_pes(); ++root) {
      for (std::size_t i = 0; i < kWords; ++i) {
        src[i] = 1000u * static_cast<unsigned>(root) + i;
        buf[i] = 0;
      }
      ctx.barrier_all();
      ctx.team_broadcast(ctx.team_world(), buf, src,
                         kWords * sizeof(std::uint64_t), root);
      if (ctx.my_pe() != root) {
        for (std::size_t i = 0; i < kWords; ++i) {
          ASSERT_EQ(buf[i], 1000u * static_cast<unsigned>(root) + i)
              << "root " << root << " word " << i;
        }
      }
      ctx.barrier_all();
    }
  });
}

TEST_P(SyncBothTransports, SumToAllDouble) {
  run_spmd(make_cluster(2, 2), make_options(GetParam()), [&](Ctx& ctx) {
    constexpr std::size_t kN = 16;
    auto* src = static_cast<double*>(ctx.shmalloc(kN * sizeof(double)));
    auto* dst = static_cast<double*>(ctx.shmalloc(kN * sizeof(double)));
    for (std::size_t i = 0; i < kN; ++i) src[i] = ctx.my_pe() + 0.25 * i;
    ctx.barrier_all();
    ctx.team_reduce(ctx.team_world(), dst, src, kN, ReduceOp::kSum);
    const int np = ctx.n_pes();
    for (std::size_t i = 0; i < kN; ++i) {
      double expect = np * (np - 1) / 2.0 + np * 0.25 * i;
      ASSERT_DOUBLE_EQ(dst[i], expect) << "element " << i;
    }
    ctx.barrier_all();
  });
}

TEST(Sync, MinMaxToAll) {
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* src = static_cast<std::int64_t*>(ctx.shmalloc(8));
             auto* mn = static_cast<std::int64_t*>(ctx.shmalloc(8));
             auto* mx = static_cast<std::int64_t*>(ctx.shmalloc(8));
             *src = 10 - 3 * ctx.my_pe();
             ctx.barrier_all();
             ctx.team_reduce(ctx.team_world(), mn, src, 1, ReduceOp::kMin);
             ctx.team_reduce(ctx.team_world(), mx, src, 1, ReduceOp::kMax);
             EXPECT_EQ(*mn, 10 - 3 * (ctx.n_pes() - 1));
             EXPECT_EQ(*mx, 10);
             ctx.barrier_all();
           });
}

TEST(Sync, ReduceInPlaceAlias) {
  run_spmd(make_cluster(1, 4), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* buf = static_cast<std::int32_t*>(ctx.shmalloc(4 * sizeof(int)));
             for (int i = 0; i < 4; ++i) buf[i] = ctx.my_pe() + i;
             ctx.barrier_all();
             // dst aliases src
             ctx.team_reduce(ctx.team_world(), buf, buf, 4, ReduceOp::kSum);
             for (int i = 0; i < 4; ++i) EXPECT_EQ(buf[i], 6 + 4 * i);
             ctx.barrier_all();
           });
}

// The ring allreduce streams through a fixed workspace, so reductions far
// larger than any internal scratch must complete (the old engine threw once
// nbytes * np exceeded a 256K region).
TEST(Sync, ReduceLargerThanWorkspaceCompletes) {
  constexpr std::size_t kElems = (1u << 20) / sizeof(double);  // 1 MB per PE
  run_spmd(make_cluster(1, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* big = static_cast<double*>(ctx.shmalloc(1u << 20));
             for (std::size_t i = 0; i < kElems; ++i) {
               big[i] = static_cast<double>(ctx.my_pe() + 1) *
                        static_cast<double>(i % 257);
             }
             ctx.barrier_all();
             ctx.team_reduce(ctx.team_world(), big, big, kElems,
                             ReduceOp::kSum);
             for (std::size_t i = 0; i < kElems; ++i) {
               ASSERT_EQ(big[i], 3.0 * static_cast<double>(i % 257));
             }
             ctx.barrier_all();
           });
}

TEST_P(SyncBothTransports, FcollectGathersBlocks) {
  constexpr std::size_t kBlock = 24;
  run_spmd(make_cluster(2, 2), make_options(GetParam()), [&](Ctx& ctx) {
    const int np = ctx.n_pes();
    auto* src = static_cast<unsigned char*>(ctx.shmalloc(kBlock));
    auto* dst = static_cast<unsigned char*>(
        ctx.shmalloc(kBlock * static_cast<std::size_t>(np)));
    for (std::size_t i = 0; i < kBlock; ++i) {
      src[i] = static_cast<unsigned char>(16 * ctx.my_pe() + i);
    }
    ctx.barrier_all();
    ctx.team_fcollect(ctx.team_world(), dst, src, kBlock);
    for (int pe = 0; pe < np; ++pe) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        ASSERT_EQ(dst[pe * kBlock + i], static_cast<unsigned char>(16 * pe + i));
      }
    }
    ctx.barrier_all();
  });
}

TEST(Sync, FcollectOnGpuDomain) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             constexpr std::size_t kBlock = 256;
             auto* src = static_cast<unsigned char*>(
                 ctx.shmalloc(kBlock, Domain::kGpu));
             auto* dst = static_cast<unsigned char*>(
                 ctx.shmalloc(kBlock * 2, Domain::kGpu));
             for (std::size_t i = 0; i < kBlock; ++i) {
               src[i] = static_cast<unsigned char>(ctx.my_pe() * 100 + i % 90);
             }
             ctx.barrier_all();
             ctx.team_fcollect(ctx.team_world(), dst, src, kBlock);
             for (int pe = 0; pe < 2; ++pe) {
               for (std::size_t i = 0; i < kBlock; i += 17) {
                 ASSERT_EQ(dst[pe * kBlock + i],
                           static_cast<unsigned char>(pe * 100 + i % 90));
               }
             }
             ctx.barrier_all();
           });
}

TEST(Sync, BarrierCountsInStats) {
  auto rt = run_spmd(make_cluster(1, 2), make_options(TransportKind::kEnhancedGdr),
                     [&](Ctx& ctx) { ctx.barrier_all(); });
  EXPECT_EQ(rt->stats().barriers, 2u);  // one entry per PE
}

}  // namespace
}  // namespace gdrshmem::core
