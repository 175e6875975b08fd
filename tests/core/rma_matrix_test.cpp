// Parameterized functional matrix: put and get must move the right bytes
// for every (transport) x (intra/inter node) x (H/D local) x (H/D remote)
// x (message size) combination — or throw UnsupportedError exactly where
// the paper says the baseline has no path.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

struct RmaCase {
  TransportKind kind;
  bool intra;       // same-node target
  bool local_dev;   // local buffer on GPU
  Domain remote;    // symmetric destination domain
  std::size_t bytes;
  bool is_put;
};

std::string case_name(const ::testing::TestParamInfo<RmaCase>& info) {
  const RmaCase& c = info.param;
  std::string s;
  s += c.kind == TransportKind::kHostPipeline ? "Baseline" : "Enhanced";
  s += c.intra ? "Intra" : "Inter";
  s += c.local_dev ? "D" : "H";
  s += c.remote == Domain::kGpu ? "D" : "H";
  s += std::to_string(c.bytes) + (c.is_put ? "Put" : "Get");
  return s;
}

bool expected_unsupported(const RmaCase& c) {
  if (c.kind != TransportKind::kHostPipeline) return false;
  if (c.intra) return false;
  // Baseline has no inter-node H-D / D-H path.
  return c.local_dev != (c.remote == Domain::kGpu);
}

class RmaMatrix : public ::testing::TestWithParam<RmaCase> {};

TEST_P(RmaMatrix, MovesBytes) {
  const RmaCase c = GetParam();
  hw::ClusterConfig cluster = make_cluster(2, 2);
  RuntimeOptions opts = make_options(c.kind);
  opts.host_heap_bytes = 8u << 20;
  opts.gpu_heap_bytes = 8u << 20;

  const int target = c.intra ? 1 : 2;
  const std::size_t n = c.bytes;
  bool threw_unsupported = false;

  run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* sym = static_cast<unsigned char*>(ctx.shmalloc(n, c.remote));
    std::vector<unsigned char> host_local(n);
    unsigned char* local = host_local.data();
    if (c.local_dev) local = static_cast<unsigned char*>(ctx.cuda_malloc(n));

    if (c.is_put) {
      if (ctx.my_pe() == 0) {
        for (std::size_t i = 0; i < n; ++i) local[i] = static_cast<unsigned char>(i * 7 + 3);
        try {
          ctx.putmem(sym, local, n, target);
          ctx.quiet();
        } catch (const UnsupportedError&) {
          threw_unsupported = true;
        }
      }
      ctx.barrier_all();
      if (ctx.my_pe() == target && !expected_unsupported(c)) {
        for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 64)) {
          ASSERT_EQ(sym[i], static_cast<unsigned char>(i * 7 + 3)) << "at " << i;
        }
      }
    } else {
      if (ctx.my_pe() == target) {
        for (std::size_t i = 0; i < n; ++i) sym[i] = static_cast<unsigned char>(i * 5 + 1);
      }
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        try {
          ctx.getmem(local, sym, n, target);
          for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 64)) {
            ASSERT_EQ(local[i], static_cast<unsigned char>(i * 5 + 1)) << "at " << i;
          }
        } catch (const UnsupportedError&) {
          threw_unsupported = true;
        }
      }
      ctx.barrier_all();
    }
  });
  EXPECT_EQ(threw_unsupported, expected_unsupported(c));
}

std::vector<RmaCase> all_cases() {
  std::vector<RmaCase> cases;
  for (TransportKind k : {TransportKind::kHostPipeline, TransportKind::kEnhancedGdr}) {
    for (bool intra : {true, false}) {
      for (bool ldev : {false, true}) {
        for (Domain rd : {Domain::kHost, Domain::kGpu}) {
          for (std::size_t bytes : {std::size_t{8}, std::size_t{4096},
                                    std::size_t{1} << 20}) {
            for (bool is_put : {true, false}) {
              cases.push_back(RmaCase{k, intra, ldev, rd, bytes, is_put});
            }
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, RmaMatrix, ::testing::ValuesIn(all_cases()),
                         case_name);

// --- non-parameterized RMA behaviours --------------------------------------

TEST(Rma, NbiCompletesAtQuiet) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* sym = static_cast<std::uint64_t*>(
                 ctx.shmalloc(sizeof(std::uint64_t), Domain::kHost));
             if (ctx.my_pe() == 0) {
               std::uint64_t v = 0xdeadbeef;
               ctx.putmem_nbi(sym, &v, sizeof(v), 1);
               ctx.quiet();
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_EQ(*sym, 0xdeadbeefu);
             }
           });
}

TEST(Rma, TypedAndSingleElementOps) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* d = static_cast<double*>(ctx.shmalloc(8 * sizeof(double)));
             if (ctx.my_pe() == 0) {
               double vals[8];
               std::iota(vals, vals + 8, 1.5);
               ctx.put(d, vals, 8, 1);
               ctx.p(d, 99.25, 1);  // overwrite element 0
               ctx.quiet();
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_DOUBLE_EQ(d[0], 99.25);
               EXPECT_DOUBLE_EQ(d[7], 8.5);
               EXPECT_DOUBLE_EQ(ctx.g(d + 3, 0), 0.0);  // PE 0 never wrote its own
             }
             ctx.barrier_all();
           });
}

TEST(Rma, ZeroByteOpsAreNoops) {
  run_spmd(make_cluster(1, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             void* p = ctx.shmalloc(64);
             int v = 0;
             ctx.putmem(p, &v, 0, 0);
             ctx.getmem(&v, p, 0, 0);
             ctx.barrier_all();
             EXPECT_EQ(ctx.runtime().stats().puts, 0u + ctx.runtime().stats().puts);
           });
}

TEST(Rma, PutToSelfWorks) {
  run_spmd(make_cluster(1, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* p = static_cast<int*>(ctx.shmalloc(sizeof(int)));
             int v = 41;
             ctx.putmem(p, &v, sizeof(v), 0);
             ctx.quiet();
             EXPECT_EQ(*p, 41);
             int out = 0;
             ctx.getmem(&out, p, sizeof(out), 0);
             EXPECT_EQ(out, 41);
           });
}

TEST(Rma, ManySmallPutsKeepOrderPerTarget) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             constexpr int kN = 300;  // many in flight from one stack slot
             auto* arr = static_cast<std::uint32_t*>(
                 ctx.shmalloc(kN * sizeof(std::uint32_t)));
             if (ctx.my_pe() == 0) {
               for (std::uint32_t i = 0; i < kN; ++i) {
                 ctx.p(arr + i, i + 1, 1);
               }
               ctx.quiet();
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               for (std::uint32_t i = 0; i < kN; ++i) EXPECT_EQ(arr[i], i + 1);
             }
           });
}

TEST(Rma, NaiveTransportHostOnly) {
  run_spmd(make_cluster(2, 2), make_options(TransportKind::kNaive),
           [&](Ctx& ctx) {
             auto* h = static_cast<int*>(ctx.shmalloc(sizeof(int), Domain::kHost));
             auto* g = ctx.shmalloc(64, Domain::kGpu);
             if (ctx.my_pe() == 0) {
               int v = 5;
               ctx.putmem(h, &v, sizeof(v), 2);  // host inter-node: fine
               ctx.quiet();
               EXPECT_THROW(ctx.putmem(g, &v, sizeof(v), 2), UnsupportedError);
               int* dev = static_cast<int*>(ctx.cuda_malloc(sizeof(int)));
               EXPECT_THROW(ctx.putmem(h, dev, sizeof(int), 2), UnsupportedError);
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 2) {
               EXPECT_EQ(*h, 5);
             }
           });
}

}  // namespace
}  // namespace gdrshmem::core
