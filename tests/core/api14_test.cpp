// The OpenSHMEM-1.4-shaped C API surface: shmem_calloc zeroing on both heaps
// (before its barrier, so puts right after it survive), and
// RuntimeOptions::from_env validation of every GDRSHMEM_* variable. Every
// other C function is checked against the Ctx call it wraps by the
// conformance table in api_conformance_test.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "gdrshmem/shmem.h"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace gdrshmem {
namespace {

using core::Ctx;
using core::Domain;
using core::RuntimeOptions;
using core::ShmemError;
using core::TransportKind;
using core::testing::make_cluster;
using core::testing::make_options;
using core::testing::run_spmd;

// ---- shmem_calloc ----------------------------------------------------------

TEST(Api14, CallocZeroesBothDomains) {
  run_spmd(make_cluster(1, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             constexpr std::size_t kN = 4096;
             for (Domain dom : {Domain::kHost, Domain::kGpu}) {
               // Dirty a block, free it, then calloc: the (likely recycled)
               // memory must come back zeroed, not stale.
               auto* dirty =
                   static_cast<unsigned char*>(capi::shmem_malloc(kN, dom));
               for (std::size_t i = 0; i < kN; ++i) dirty[i] = 0xab;
               capi::shmem_free(dirty);
               auto* z = static_cast<unsigned char*>(
                   capi::shmem_calloc(kN / 8, 8, dom));
               for (std::size_t i = 0; i < kN; ++i) {
                 ASSERT_EQ(z[i], 0u) << "domain " << static_cast<int>(dom)
                                     << " byte " << i;
               }
               capi::shmem_free(z);
             }
           });
}

TEST(Api14, CallocZeroesBeforeItsBarrier) {
  // Each PE dirties and frees a block, callocs it back and at once puts its
  // tag into every peer's copy. A PE that zeroed its copy after the
  // allocation's barrier would wipe tags from peers that left it first.
  constexpr std::size_t kWords = 64;
  const hw::ClusterConfig shapes[] = {make_cluster(2, 2), make_cluster(2, 4),
                                      make_cluster(3, 2), make_cluster(4, 2)};
  for (const hw::ClusterConfig& shape : shapes) {
    run_spmd(shape, make_options(TransportKind::kEnhancedGdr), [&](Ctx& ctx) {
      capi::Bind bind(ctx);
      const int me = capi::shmem_my_pe();
      const int np = capi::shmem_n_pes();
      auto* dirty = static_cast<long long*>(
          capi::shmem_malloc(kWords * sizeof(long long)));
      for (std::size_t i = 0; i < kWords; ++i) dirty[i] = -1;
      capi::shmem_free(dirty);
      auto* block = static_cast<long long*>(
          capi::shmem_calloc(kWords, sizeof(long long)));
      const long long tag = 1000 + me;
      for (int pe = 0; pe < np; ++pe) {
        if (pe != me) capi::shmem_putmem(&block[me], &tag, sizeof tag, pe);
      }
      capi::shmem_barrier_all();
      for (int w = 0; w < static_cast<int>(kWords); ++w) {
        const long long want = w < np && w != me ? 1000 + w : 0;
        EXPECT_EQ(block[w], want) << shape.num_nodes << "x"
                                  << shape.pes_per_node << ": PE " << me
                                  << " word " << w;
      }
      capi::shmem_free(block);
    });
  }
}

TEST(Api14, CallocRejectsSizeOverflow) {
  run_spmd(make_cluster(1, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             capi::Bind bind(ctx);
             // (SIZE_MAX / 8 + 2) * 8 wraps around to 8 bytes.
             EXPECT_THROW(capi::shmem_calloc(SIZE_MAX / 8 + 2, 8), ShmemError);
             // The rejected call allocated nothing: the next one still
             // matches on every PE.
             void* p = capi::shmem_calloc(4, 8);
             EXPECT_NE(p, nullptr);
             capi::shmem_free(p);
           });
}

// ---- RuntimeOptions::from_env ---------------------------------------------

/// Sets an environment variable for the current scope, restoring on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

TEST(FromEnv, NoVariablesGivesDefaults) {
  RuntimeOptions opts = RuntimeOptions::from_env();
  RuntimeOptions def;
  EXPECT_EQ(opts.transport, def.transport);
  EXPECT_EQ(opts.host_heap_bytes, def.host_heap_bytes);
  EXPECT_EQ(opts.tuning.use_proxy, def.tuning.use_proxy);
  EXPECT_FALSE(opts.faults.enabled());
}

TEST(FromEnv, ParsesAndValidatesKnownKeys) {
  ScopedEnv e1("GDRSHMEM_TRANSPORT", "host-pipeline");
  ScopedEnv e2("GDRSHMEM_HOST_HEAP", "4M");
  ScopedEnv e3("GDRSHMEM_GPU_HEAP", "512K");
  ScopedEnv e4("GDRSHMEM_USE_PROXY", "off");
  ScopedEnv e5("GDRSHMEM_PIPELINE_CHUNK", "32K");
  ScopedEnv e6("GDRSHMEM_SIM_BACKEND", "threads");
  ScopedEnv e7("GDRSHMEM_FAULTS", "seed=5,wire_error_rate=1e-3,crash=1@250");
  ScopedEnv e8("GDRSHMEM_SIM_QUEUE", "heap");
  ScopedEnv e9("GDRSHMEM_SIM_BATCH", "off");
  ScopedEnv e10("GDRSHMEM_SIM_STACK_POOL", "128");
  ScopedEnv e11("GDRSHMEM_SIM_FIBER_SWITCH", "ucontext");
  RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.transport, TransportKind::kHostPipeline);
  EXPECT_EQ(opts.sim_queue, sim::QueueKind::kHeap);
  EXPECT_FALSE(opts.sim_batch);
  EXPECT_EQ(opts.host_heap_bytes, 4u << 20);
  EXPECT_EQ(opts.gpu_heap_bytes, 512u << 10);
  EXPECT_FALSE(opts.tuning.use_proxy);
  EXPECT_EQ(opts.tuning.pipeline_chunk, 32u << 10);
  EXPECT_EQ(opts.sim_backend, sim::BackendKind::kThreads);
  EXPECT_TRUE(opts.faults.enabled());
  EXPECT_EQ(opts.faults.seed, 5u);
  EXPECT_DOUBLE_EQ(opts.faults.wire_error_rate, 1e-3);
  ASSERT_EQ(opts.faults.crashes.size(), 1u);
  EXPECT_EQ(opts.faults.crashes[0].node, 1);
}

TEST(FromEnv, UnknownVariableIsAnError) {
  ScopedEnv e("GDRSHMEM_PIPELINE_CHUNKS", "32K");  // note the typo
  EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
}

TEST(FromEnv, BadValuesAreErrors) {
  {
    ScopedEnv e("GDRSHMEM_TRANSPORT", "warp-drive");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_PIPELINE_CHUNK", "0");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_HOST_HEAP", "12Q");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_USE_PROXY", "maybe");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_SIM_BACKEND", "coroutines");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_SIM_QUEUE", "skiplist");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_SIM_BATCH", "maybe");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_SIM_FIBER_SWITCH", "longjmp");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    // Units are KiB per fiber; below the 64 KiB floor is an error, as is
    // trailing garbage.
    ScopedEnv e("GDRSHMEM_SIM_STACK_KB", "32");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_SIM_STACK_KB", "256bogus");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    // Units are pooled stacks (a count); negative or non-numeric is an error.
    ScopedEnv e("GDRSHMEM_SIM_STACK_POOL", "-1");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_SIM_STACK_POOL", "many");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_FAULTS", "wire_error_rate=2");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_TRACE", "maybe");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_TRACE_CAP", "0");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_TRACE_CAP", "lots");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
}

TEST(FromEnv, OversizedHeapIsAnErrorNotSilentWraparound) {
  // 99999999999 * 2^30 overflows std::size_t; the old code wrapped silently
  // and produced a tiny (or huge) bogus heap.
  {
    ScopedEnv e("GDRSHMEM_HOST_HEAP", "99999999999G");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_GPU_HEAP", "99999999999999999M");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    // Near the boundary but representable: must still parse.
    ScopedEnv e("GDRSHMEM_HOST_HEAP", "8G");
    EXPECT_EQ(RuntimeOptions::from_env().host_heap_bytes,
              std::size_t{8} << 30);
  }
}

TEST(FromEnv, TraceKnobsFlowIntoOptions) {
  ScopedEnv e1("GDRSHMEM_TRACE", "on");
  ScopedEnv e2("GDRSHMEM_TRACE_CAP", "4096");
  RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_TRUE(opts.trace);
  EXPECT_EQ(opts.trace_cap, 4096u);
  // The defaulted members consult the environment too, so programmatically
  // constructed options (the bench path) honor the same knobs.
  RuntimeOptions programmatic;
  EXPECT_TRUE(programmatic.trace);
  EXPECT_EQ(programmatic.trace_cap, 4096u);
}

TEST(FromEnv, FaultPlanDrivesARun) {
  ScopedEnv e("GDRSHMEM_FAULTS", "seed=3,wire_error_rate=5e-3");
  RuntimeOptions opts = RuntimeOptions::from_env();
  opts.transport = TransportKind::kEnhancedGdr;
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    auto* h = static_cast<int*>(ctx.shmalloc(sizeof(int), Domain::kHost));
    if (ctx.my_pe() == 0) {
      for (int i = 0; i < 64; ++i) {
        int v = i;
        ctx.putmem(h, &v, sizeof(v), 1);
        ctx.quiet();
      }
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(*h, 63);
    }
  });
  EXPECT_TRUE(rt->faults_enabled());
  EXPECT_EQ(rt->faults().plan().seed, 3u);
}

TEST(FromEnv, CollAlgoSingleTokenForcesAllSupportingKinds) {
  ScopedEnv e("GDRSHMEM_COLL_ALGO", "ring");
  RuntimeOptions opts = RuntimeOptions::from_env();
  using core::CollAlgo;
  using core::CollKind;
  auto forced = [&](CollKind k) {
    return opts.tuning.coll_force[static_cast<std::size_t>(k)];
  };
  // Ring applies to bcast, allreduce, and fcollect; kinds that have no ring
  // variant keep auto selection.
  EXPECT_EQ(forced(CollKind::kBroadcast), CollAlgo::kRing);
  EXPECT_EQ(forced(CollKind::kAllreduce), CollAlgo::kRing);
  EXPECT_EQ(forced(CollKind::kFcollect), CollAlgo::kRing);
  EXPECT_EQ(forced(CollKind::kBarrier), CollAlgo::kAuto);
  EXPECT_EQ(forced(CollKind::kAlltoall), CollAlgo::kAuto);
}

TEST(FromEnv, CollAlgoPerKindListParses) {
  ScopedEnv e("GDRSHMEM_COLL_ALGO", "bcast=binomial,allreduce=recdbl");
  RuntimeOptions opts = RuntimeOptions::from_env();
  using core::CollAlgo;
  using core::CollKind;
  EXPECT_EQ(opts.tuning.coll_force[static_cast<std::size_t>(
                CollKind::kBroadcast)],
            CollAlgo::kBinomial);
  EXPECT_EQ(opts.tuning.coll_force[static_cast<std::size_t>(
                CollKind::kAllreduce)],
            CollAlgo::kRecDbl);
  EXPECT_EQ(opts.tuning.coll_force[static_cast<std::size_t>(
                CollKind::kFcollect)],
            CollAlgo::kAuto);
}

TEST(FromEnv, CollAlgoBadValuesAreErrors) {
  {
    ScopedEnv e("GDRSHMEM_COLL_ALGO", "quantum");  // no such algorithm
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_COLL_ALGO", "reduce=ring");  // no such kind
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_COLL_ALGO", "barrier=bruck");  // unsupported pair
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_COLL_ALGO", "pairwise");  // alltoall-only token is
    RuntimeOptions opts = RuntimeOptions::from_env();  // still a valid single
    EXPECT_EQ(opts.tuning.coll_force[static_cast<std::size_t>(
                  core::CollKind::kAlltoall)],
              core::CollAlgo::kPairwise);
  }
}

TEST(FromEnv, CollChunkParsesAndValidates) {
  {
    ScopedEnv e("GDRSHMEM_COLL_CHUNK", "8K");
    EXPECT_EQ(RuntimeOptions::from_env().tuning.coll_chunk, 8u << 10);
  }
  {
    ScopedEnv e("GDRSHMEM_COLL_CHUNK", "2K");  // below the 4K floor
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
}

TEST(FromEnv, CollAlgoFlowsIntoARun) {
  // Forcing the ring allreduce through the environment must actually steer
  // the engine: the per-algorithm metrics series appears in the report.
  ScopedEnv e("GDRSHMEM_COLL_ALGO", "allreduce=ring");
  RuntimeOptions opts = RuntimeOptions::from_env();
  opts.transport = TransportKind::kEnhancedGdr;
  auto rt = run_spmd(make_cluster(1, 4), opts, [&](Ctx& ctx) {
    auto* v = static_cast<std::int64_t*>(ctx.shmalloc(8));
    *v = ctx.my_pe();
    ctx.barrier_all();
    ctx.team_reduce(ctx.team_world(), v, v, 1, core::ReduceOp::kSum);
    EXPECT_EQ(*v, 6);
    ctx.barrier_all();
  });
  const std::string report = core::format_report_json(*rt);
  EXPECT_NE(report.find("coll_bytes/allreduce/ring"), std::string::npos);
}

TEST(FromEnv, GdrLimitsParseSizeSuffixes) {
  // The four GDR window thresholds the paper calls runtime parameters, and
  // the divisor that shrinks them when the HCA and GPU sit on different
  // sockets.
  ScopedEnv e1("GDRSHMEM_LOOPBACK_GDR_WRITE_LIMIT", "128K");
  ScopedEnv e2("GDRSHMEM_LOOPBACK_GDR_READ_LIMIT", "16k");
  ScopedEnv e3("GDRSHMEM_DIRECT_GDR_WRITE_LIMIT", "1M");
  ScopedEnv e4("GDRSHMEM_DIRECT_GDR_READ_LIMIT", "4096");
  ScopedEnv e5("GDRSHMEM_INTER_SOCKET_GDR_DIVISOR", "4");
  const core::Tuning t = RuntimeOptions::from_env().tuning;
  EXPECT_EQ(t.loopback_gdr_write_limit, 128u << 10);
  EXPECT_EQ(t.loopback_gdr_read_limit, 16u << 10);
  EXPECT_EQ(t.direct_gdr_write_limit, 1u << 20);
  EXPECT_EQ(t.direct_gdr_read_limit, 4096u);
  EXPECT_EQ(t.inter_socket_gdr_divisor, 4u);
}

TEST(FromEnv, GdrLimitAndDivisorBadValuesAreErrors) {
  for (const char* var :
       {"GDRSHMEM_LOOPBACK_GDR_WRITE_LIMIT", "GDRSHMEM_LOOPBACK_GDR_READ_LIMIT",
        "GDRSHMEM_DIRECT_GDR_WRITE_LIMIT", "GDRSHMEM_DIRECT_GDR_READ_LIMIT"}) {
    SCOPED_TRACE(var);
    ScopedEnv e(var, "12Q");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  // A zero divisor would divide every inter-socket window by zero.
  for (const char* bad : {"0", "-3", "two"}) {
    SCOPED_TRACE(bad);
    ScopedEnv e("GDRSHMEM_INTER_SOCKET_GDR_DIVISOR", bad);
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
}

TEST(FromEnv, LoopbackReadLimitSteersAnIntraNodeDevicePut) {
  // A 16 KiB same-node D-D put reads its source over the loopback GDR read
  // leg, so the read window decides: above the default 8 KiB it takes one
  // IPC copy, inside a 64 KiB window loopback RDMA.
  auto protocol_of_put = [] {
    RuntimeOptions opts = RuntimeOptions::from_env();
    opts.transport = TransportKind::kEnhancedGdr;
    core::Protocol proto = core::Protocol::kCount_;
    run_spmd(make_cluster(1, 2), opts, [&](Ctx& ctx) {
      constexpr std::size_t n = 16u << 10;
      void* dst = ctx.shmalloc(n, Domain::kGpu);
      void* src = ctx.cuda_malloc(n);
      if (ctx.my_pe() == 0) {
        ctx.putmem(dst, src, n, 1);
        proto = ctx.last_protocol();
      }
      ctx.barrier_all();
    });
    return proto;
  };
  EXPECT_STREQ(core::to_string(protocol_of_put()), "ipc-copy");
  ScopedEnv e("GDRSHMEM_LOOPBACK_GDR_READ_LIMIT", "64K");
  EXPECT_STREQ(core::to_string(protocol_of_put()), "loopback-gdr");
}

TEST(FromEnv, ProxyTimeoutAndReissueBudgetParse) {
  {
    ScopedEnv e1("GDRSHMEM_PROXY_TIMEOUT_US", "250.5");
    ScopedEnv e2("GDRSHMEM_PROXY_MAX_REISSUES", "3");
    const core::Tuning t = RuntimeOptions::from_env().tuning;
    EXPECT_DOUBLE_EQ(t.proxy_timeout_us, 250.5);
    EXPECT_EQ(t.proxy_max_reissues, 3);
  }
  for (const char* var :
       {"GDRSHMEM_PROXY_TIMEOUT_US", "GDRSHMEM_PROXY_MAX_REISSUES"}) {
    for (const char* bad : {"0", "-5", "soon"}) {
      SCOPED_TRACE(std::string(var) + "=" + bad);
      ScopedEnv e(var, bad);
      EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
    }
  }
}

/// Runs a 4 MiB get through node 1's proxy, which crashes 300 us in and
/// restarts 300 us later, under the environment's tuning; returns the get's
/// virtual time and the reissues it took.
std::pair<double, std::uint64_t> get_across_proxy_crash() {
  RuntimeOptions opts = RuntimeOptions::from_env();
  opts.transport = TransportKind::kEnhancedGdr;
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse("crash=1@300");
  constexpr std::size_t n = 4u << 20;
  double us = 0;
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    void* src = ctx.shmalloc(n, Domain::kGpu);
    void* dst = ctx.cuda_malloc(n);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      const sim::Time t0 = ctx.now();
      ctx.getmem(dst, src, n, 1);
      us = (ctx.now() - t0).to_us();
    }
    ctx.barrier_all();
  });
  return {us, rt->faults().count(sim::FaultEvent::kProxyReissue)};
}

TEST(FromEnv, ProxyTimeoutSetsWhenAStalledTransferIsReissued) {
  // The requester reissues once a stage of the transfer has waited the
  // timeout: the default 4 ms, or 1 ms.
  const auto [slow_us, slow_reissues] = get_across_proxy_crash();
  ScopedEnv e("GDRSHMEM_PROXY_TIMEOUT_US", "1000");
  const auto [fast_us, fast_reissues] = get_across_proxy_crash();
  EXPECT_EQ(slow_reissues, 1u);
  EXPECT_EQ(fast_reissues, 1u);
  EXPECT_NEAR(slow_us - fast_us, 3000.0, 1.0);
}

TEST(FromEnv, ProxyMaxReissuesBoundsTheReissues) {
  // With a 200 us timeout the requester gives up on the crashed proxy twice
  // before it restarts: a budget of 1 reissue fails the get, 2 let it
  // complete.
  ScopedEnv timeout("GDRSHMEM_PROXY_TIMEOUT_US", "200");
  {
    ScopedEnv budget("GDRSHMEM_PROXY_MAX_REISSUES", "2");
    EXPECT_EQ(get_across_proxy_crash().second, 2u);
  }
  ScopedEnv budget("GDRSHMEM_PROXY_MAX_REISSUES", "1");
  EXPECT_THROW(get_across_proxy_crash(), ShmemError);
}

/// Runs FaultInjection.LongFlapSurfacesErrorsAndSoftwareReplays's program
/// (six 256 KiB host puts, each followed by quiet()) across a 5 ms flap of
/// node 1's port under the environment's tuning; returns the puts' virtual
/// time and the software replays. The test's own 2.5 ms flap needs a single
/// replay, and a budget of 0 is rejected; 5 ms needs two.
std::pair<double, std::uint64_t> puts_across_long_flap() {
  RuntimeOptions opts = RuntimeOptions::from_env();
  opts.transport = TransportKind::kEnhancedGdr;
  opts.host_heap_bytes = 8u << 20;
  opts.faults = sim::FaultPlan::parse("flap=1@40+5000");
  constexpr std::size_t n = 256u << 10;
  double us = 0;
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    void* dst = ctx.shmalloc(n, Domain::kHost);
    std::vector<unsigned char> buf(n);
    if (ctx.my_pe() == 0) {
      const sim::Time t0 = ctx.now();
      for (int iter = 0; iter < 6; ++iter) {
        ctx.putmem(dst, buf.data(), n, 1);
        ctx.quiet();
      }
      us = (ctx.now() - t0).to_us();
    }
    ctx.barrier_all();
  });
  return {us, rt->faults().count(sim::FaultEvent::kSwReplay)};
}

TEST(FromEnv, ReplayBudgetAndBackoffBadValuesAreErrors) {
  for (const char* bad : {"0", "-2", "many"}) {
    SCOPED_TRACE(std::string("GDRSHMEM_MAX_SW_REPLAYS=") + bad);
    ScopedEnv e("GDRSHMEM_MAX_SW_REPLAYS", bad);
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  for (const char* bad : {"0", "-1", "soon"}) {
    SCOPED_TRACE(std::string("GDRSHMEM_REPLAY_BACKOFF_US=") + bad);
    ScopedEnv e("GDRSHMEM_REPLAY_BACKOFF_US", bad);
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
}

TEST(FromEnv, MaxSwReplaysBoundsTheReplays) {
  // One put outlasts the HCA's retry envelope twice: the default budget of
  // 12 lets it complete after 2 software replays, a budget of 2 too, and a
  // budget of 1 fails it.
  EXPECT_EQ(puts_across_long_flap().second, 2u);
  {
    ScopedEnv e("GDRSHMEM_MAX_SW_REPLAYS", "2");
    EXPECT_EQ(RuntimeOptions::from_env().tuning.max_sw_replays, 2);
    EXPECT_EQ(puts_across_long_flap().second, 2u);
  }
  ScopedEnv e("GDRSHMEM_MAX_SW_REPLAYS", "1");
  try {
    puts_across_long_flap();
    ADD_FAILURE() << "a budget of one replay let the puts complete";
  } catch (const ShmemError& err) {
    EXPECT_NE(std::string(err.what()).find("still failing after 1 software"),
              std::string::npos)
        << err.what();
  }
}

TEST(FromEnv, ReplayBackoffSetsWhenTheReplaysFire) {
  // Replay k waits base * 2^(k-1) first. From the default 25 us base the
  // first replay fires while the port is still down and a second one is
  // needed; a 2 ms first wait outlasts most of the outage, so one replay
  // lands.
  const auto [default_us, default_replays] = puts_across_long_flap();
  ScopedEnv e("GDRSHMEM_REPLAY_BACKOFF_US", "2000");
  EXPECT_DOUBLE_EQ(RuntimeOptions::from_env().tuning.replay_backoff_base_us,
                   2000.0);
  const auto [slow_us, slow_replays] = puts_across_long_flap();
  EXPECT_EQ(default_replays, 2u);
  EXPECT_EQ(slow_replays, 1u);
  EXPECT_NE(slow_us, default_us);
}

TEST(FromEnv, EagerLimitSteersAnInterNodeHostPipelinePut) {
  // A 4 KiB inter-node D-D put on the host pipeline goes eager under the
  // default 8 KiB limit, and rendezvous under a 2 KiB one.
  auto protocol_of_put = [] {
    RuntimeOptions opts = RuntimeOptions::from_env();
    opts.transport = TransportKind::kHostPipeline;
    core::Protocol proto = core::Protocol::kCount_;
    run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
      constexpr std::size_t n = 4u << 10;
      void* dst = ctx.shmalloc(n, Domain::kGpu);
      void* src = ctx.cuda_malloc(n);
      if (ctx.my_pe() == 0) {
        ctx.putmem(dst, src, n, 1);
        proto = ctx.last_protocol();
      }
      ctx.barrier_all();
    });
    return proto;
  };
  EXPECT_STREQ(core::to_string(protocol_of_put()), "eager");
  ScopedEnv e("GDRSHMEM_EAGER_LIMIT", "2K");
  EXPECT_EQ(RuntimeOptions::from_env().tuning.eager_limit, 2048u);
  EXPECT_STREQ(core::to_string(protocol_of_put()), "rendezvous");
}

TEST(FromEnv, ServiceThreadParses) {
  {
    ScopedEnv e("GDRSHMEM_SERVICE_THREAD", "1");
    EXPECT_TRUE(RuntimeOptions::from_env().service_thread);
  }
  {
    ScopedEnv e("GDRSHMEM_SERVICE_THREAD", "yes");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  // The thread's cost is the paper's half of the CPU, not a knob.
  ScopedEnv e("GDRSHMEM_SERVICE_THREAD_PENALTY", "1");
  EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
}

/// Virtual time Ctx::compute(100 us) takes under the environment's options.
double compute_100us() {
  double us = 0;
  run_spmd(make_cluster(1, 1), RuntimeOptions::from_env(), [&](Ctx& ctx) {
    const sim::Time t0 = ctx.now();
    ctx.compute(sim::Duration::us(100));
    us = (ctx.now() - t0).to_us();
  });
  return us;
}

TEST(FromEnv, ServiceThreadDoublesCompute) {
  EXPECT_DOUBLE_EQ(compute_100us(), 100.0);
  ScopedEnv thread("GDRSHMEM_SERVICE_THREAD", "1");
  EXPECT_DOUBLE_EQ(compute_100us(), 200.0);
}

}  // namespace
}  // namespace gdrshmem
