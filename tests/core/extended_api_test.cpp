// Extended OpenSHMEM surface: strided iput/iget, put-with-signal,
// non-blocking test, all-to-all, and the C API bindings.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gdrshmem/shmem.h"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

TEST(ExtendedApi, IputStridedScatter) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* mat = static_cast<std::int64_t*>(
                 ctx.shmalloc(16 * sizeof(std::int64_t)));
             std::fill_n(mat, 16, -1);
             ctx.barrier_all();
             if (ctx.my_pe() == 0) {
               std::int64_t col[4] = {10, 11, 12, 13};
               // Write a column into the remote 4x4 row-major matrix.
               ctx.iput(mat + 2, col, /*dst_stride=*/4, /*src_stride=*/1, 4, 1);
               ctx.quiet();
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               for (int r = 0; r < 4; ++r) {
                 EXPECT_EQ(mat[r * 4 + 2], 10 + r);
                 EXPECT_EQ(mat[r * 4 + 1], -1);  // neighbors untouched
               }
             }
             ctx.barrier_all();
           });
}

TEST(ExtendedApi, IgetStridedGather) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* mat = static_cast<std::int64_t*>(
                 ctx.shmalloc(16 * sizeof(std::int64_t)));
             std::iota(mat, mat + 16, 100 * ctx.my_pe());
             ctx.barrier_all();
             if (ctx.my_pe() == 0) {
               std::int64_t row_of_col[4] = {0, 0, 0, 0};
               ctx.iget(row_of_col, mat + 3, 1, 4, 4, 1);  // column 3 of PE 1
               for (int r = 0; r < 4; ++r) EXPECT_EQ(row_of_col[r], 100 + r * 4 + 3);
             }
             ctx.barrier_all();
           });
}

TEST(ExtendedApi, PutSignalOrdersDataBeforeSignal) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             constexpr std::size_t kBytes = 512 * 1024;  // pipeline path
             auto* data = static_cast<unsigned char*>(
                 ctx.shmalloc(kBytes, Domain::kGpu));
             auto* sig = static_cast<std::uint64_t*>(ctx.shmalloc(8));
             if (ctx.my_pe() == 0) {
               void* src = ctx.cuda_malloc(kBytes);
               auto* s = static_cast<unsigned char*>(src);
               for (std::size_t i = 0; i < kBytes; ++i) s[i] = 7;
               ctx.put_signal(data, src, kBytes, sig, 42, 1);
             } else {
               ctx.signal_wait_until(sig, Cmp::kEq, 42);
               // Signal implies the whole payload landed, even across the
               // mixed GDR/pipeline protocol split.
               EXPECT_EQ(data[0], 7);
               EXPECT_EQ(data[kBytes - 1], 7);
             }
             ctx.barrier_all();
           });
}

TEST(ExtendedApi, TestProbesWithoutBlocking) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* flag = static_cast<std::int64_t*>(ctx.shmalloc(8));
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_FALSE(ctx.test<std::int64_t>(flag, Cmp::kEq, 1));
               int polls = 0;
               while (!ctx.test<std::int64_t>(flag, Cmp::kEq, 1)) {
                 ctx.compute(sim::Duration::us(1));
                 ++polls;
                 ASSERT_LT(polls, 100000);
               }
               EXPECT_GT(polls, 0);
             } else {
               ctx.compute(sim::Duration::us(25));
               std::int64_t one = 1;
               ctx.putmem(flag, &one, sizeof(one), 1);
               ctx.quiet();
             }
             ctx.barrier_all();
           });
}

TEST(ExtendedApi, AlltoallExchangesBlocks) {
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             const int np = ctx.n_pes();
             constexpr std::size_t kBlock = 32;
             auto* src = static_cast<unsigned char*>(
                 ctx.shmalloc(kBlock * static_cast<std::size_t>(np)));
             auto* dst = static_cast<unsigned char*>(
                 ctx.shmalloc(kBlock * static_cast<std::size_t>(np)));
             for (int j = 0; j < np; ++j) {
               for (std::size_t i = 0; i < kBlock; ++i) {
                 src[j * kBlock + i] =
                     static_cast<unsigned char>(ctx.my_pe() * 16 + j * 4 + i % 4);
               }
             }
             ctx.barrier_all();
             ctx.team_alltoall(ctx.team_world(), dst, src, kBlock);
             for (int sender = 0; sender < np; ++sender) {
               for (std::size_t i = 0; i < kBlock; ++i) {
                 ASSERT_EQ(dst[sender * kBlock + i],
                           static_cast<unsigned char>(sender * 16 +
                                                      ctx.my_pe() * 4 + i % 4))
                     << "sender " << sender;
               }
             }
             ctx.barrier_all();
           });
}

TEST(ExtendedApi, AlltoallOnGpuDomainAcrossTransports) {
  for (auto kind : {TransportKind::kEnhancedGdr, TransportKind::kHostPipeline}) {
    run_spmd(make_cluster(2, 1), make_options(kind), [&](Ctx& ctx) {
      const int np = ctx.n_pes();
      constexpr std::size_t kBlock = 4096;
      auto* src = static_cast<unsigned char*>(
          ctx.shmalloc(kBlock * static_cast<std::size_t>(np), Domain::kGpu));
      auto* dst = static_cast<unsigned char*>(
          ctx.shmalloc(kBlock * static_cast<std::size_t>(np), Domain::kGpu));
      for (std::size_t i = 0; i < kBlock * static_cast<std::size_t>(np); ++i) {
        src[i] = static_cast<unsigned char>((ctx.my_pe() * 131 + i) % 255);
      }
      ctx.barrier_all();
      ctx.team_alltoall(ctx.team_world(), dst, src, kBlock);
      for (int sender = 0; sender < np; ++sender) {
        std::size_t block_in_sender = static_cast<std::size_t>(ctx.my_pe()) * kBlock;
        for (std::size_t i = 0; i < kBlock; i += 111) {
          ASSERT_EQ(dst[sender * kBlock + i],
                    static_cast<unsigned char>(
                        (sender * 131 + block_in_sender + i) % 255));
        }
      }
      ctx.barrier_all();
    });
  }
}

// ---- the C API ------------------------------------------------------------

TEST(CApi, RoundTripThroughClassicCalls) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             using namespace capi;
             EXPECT_EQ(shmem_n_pes(), 2);
             auto* v = static_cast<long long*>(shmem_malloc(sizeof(long long)));
             auto* d = static_cast<double*>(
                 shmem_malloc(4 * sizeof(double), Domain::kGpu));
             if (shmem_my_pe() == 0) {
               double vals[4] = {1.5, 2.5, 3.5, 4.5};
               shmem_put(d, vals, 4, 1);
               shmem_quiet();
               long long one = 1;
               shmem_putmem(v, &one, sizeof(one), 1);
               shmem_quiet();
             } else {
               shmem_longlong_wait_until(v, SHMEM_CMP_EQ, 1);
               EXPECT_DOUBLE_EQ(d[3], 4.5);
               EXPECT_EQ(shmem_atomic_fetch_add(v, 5LL, 0), 0);
             }
             shmem_barrier_all();
             if (shmem_my_pe() == 0) {
               EXPECT_EQ(*v, 5);
             }
             shmem_barrier_all();
           });
}

TEST(CApi, UnboundCallsThrow) {
  EXPECT_THROW(capi::shmem_my_pe(), ShmemError);
}

TEST(CApi, DoubleBindRejected) {
  run_spmd(make_cluster(1, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             EXPECT_THROW(capi::Bind second(ctx), ShmemError);
           });
}

TEST(CApi, ReductionsAndCollect) {
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             using namespace capi;
             auto* src = static_cast<double*>(shmem_malloc(sizeof(double)));
             auto* dst = static_cast<double*>(shmem_malloc(sizeof(double)));
             *src = shmem_my_pe() + 1.0;
             shmem_barrier_all();
             shmem_double_sum_to_all(dst, src, 1);
             EXPECT_DOUBLE_EQ(*dst, 1 + 2 + 3 + 4);
             auto* mx = static_cast<long long*>(shmem_malloc(8));
             auto* mxr = static_cast<long long*>(shmem_malloc(8));
             *mx = 10 * shmem_my_pe();
             shmem_barrier_all();
             shmem_long_max_to_all(mxr, mx, 1);
             EXPECT_EQ(*mxr, 30);
             shmem_barrier_all();
           });
}

}  // namespace
}  // namespace gdrshmem::core
