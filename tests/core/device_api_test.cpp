// Device-initiated OpenSHMEM: in-kernel RMA/atomics/signals through both
// backends (GPU-IB doorbell and reverse offload), the shmemx_* C surface,
// option validation, and recovery when the proxy serving a reverse-offload
// kernel crashes mid-flight.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "gdrshmem_device.h"
#include "test_util.hpp"

namespace gdrshmem {
namespace {

using core::Ctx;
using core::DeviceBackendKind;
using core::DeviceCtx;
using core::Domain;
using core::RuntimeOptions;
using core::TransportKind;
using core::testing::make_cluster;
using core::testing::make_options;
using core::testing::run_spmd;

constexpr DeviceBackendKind kBackends[] = {DeviceBackendKind::kGpuIb,
                                           DeviceBackendKind::kReverseOffload};

RuntimeOptions device_options(DeviceBackendKind kind,
                              std::size_t heap = 16u << 20) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.device_backend = kind;
  opts.gpu_heap_bytes = heap;
  opts.host_heap_bytes = heap;
  return opts;
}

unsigned char pattern(int pe, std::size_t i) {
  return static_cast<unsigned char>((pe * 131 + i * 7) & 0xff);
}

struct ScopedEnv {
  ScopedEnv(const char* k, const char* v) : key(k) { setenv(k, v, 1); }
  ~ScopedEnv() { unsetenv(key); }
  const char* key;
};

// ---------------------------------------------------------------------------
// In-kernel RMA.

TEST(DeviceApi, InKernelRingPutSignalBothBackends) {
  const std::size_t n = 8u << 10;
  for (DeviceBackendKind kind : kBackends) {
    auto rt = run_spmd(make_cluster(2, 2), device_options(kind), [&](Ctx& ctx) {
      const int me = ctx.my_pe();
      const int np = ctx.n_pes();
      const int right = (me + 1) % np;
      auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
      auto* sig = static_cast<std::uint64_t*>(
          ctx.shmalloc(sizeof(std::uint64_t), Domain::kGpu));
      std::vector<unsigned char> src(n);
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(me, i);
      *sig = 0;
      ctx.barrier_all();
      ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                               [&](DeviceCtx& d) {
        d.put_signal(dev, src.data(), n, sig, 1, right);
        d.signal_wait_until(sig, core::Cmp::kGe, 1);
      });
      const int left = (me + np - 1) % np;
      for (std::size_t i = 0; i < n; i += 97) {
        ASSERT_EQ(dev[i], pattern(left, i)) << core::to_string(kind);
      }
      ctx.barrier_all();
    });
    EXPECT_GT(rt->stats().puts, 0u);
  }
}

TEST(DeviceApi, InKernelGetAndTypedOpsBothBackends) {
  for (DeviceBackendKind kind : kBackends) {
    auto rt = run_spmd(make_cluster(2, 1), device_options(kind), [&](Ctx& ctx) {
      const int me = ctx.my_pe();
      const int peer = 1 - me;
      auto* vals = static_cast<double*>(
          ctx.shmalloc(64 * sizeof(double), Domain::kGpu));
      for (int i = 0; i < 64; ++i) vals[i] = me * 1000.0 + i;
      ctx.barrier_all();
      double got[64] = {0};
      double single = -1;
      ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                               [&](DeviceCtx& d) {
        d.get(got, vals, 64, peer);
        single = d.g(vals + 7, peer);
        d.p(vals + 63, 4242.0 + me, peer);
        d.quiet();
      });
      for (int i = 0; i < 63; ++i) {
        ASSERT_EQ(got[i], peer * 1000.0 + i) << core::to_string(kind);
      }
      EXPECT_EQ(single, peer * 1000.0 + 7);
      ctx.barrier_all();
      EXPECT_EQ(vals[63], 4242.0 + peer);
      ctx.barrier_all();
    });
    EXPECT_GT(rt->stats().gets, 0u);
  }
}

TEST(DeviceApi, NbiPutsDrainThroughBoundedRing) {
  // Queue depth 2 with 16 outstanding nbi puts forces the ring to reap and
  // wait for free slots; quiet must still drain everything.
  RuntimeOptions opts = device_options(DeviceBackendKind::kReverseOffload);
  opts.device_queue_depth = 2;
  const std::size_t n = 4u << 10;
  run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(16 * n, Domain::kGpu));
    std::vector<unsigned char> src(16 * n);
    for (std::size_t i = 0; i < 16 * n; ++i) src[i] = pattern(me, i);
    ctx.barrier_all();
    if (me == 0) {
      ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                               [&](DeviceCtx& d) {
        for (int k = 0; k < 16; ++k) {
          d.putmem_nbi(dev + k * n, src.data() + k * n, n, 1);
        }
        d.quiet();
      });
    }
    ctx.barrier_all();
    if (me == 1) {
      for (std::size_t i = 0; i < 16 * n; i += 61) {
        ASSERT_EQ(dev[i], pattern(0, i)) << "byte " << i;
      }
    }
    ctx.barrier_all();
  });
}

/// op_bytes/<kind>/* histogram totals {ops, bytes} for put, get, atomic.
std::array<std::array<std::uint64_t, 2>, 3> op_bytes_by_kind(core::Runtime& rt) {
  std::array<std::array<std::uint64_t, 2>, 3> out{};
  for (const auto& [name, h] : rt.metrics().histograms()) {
    if (name.rfind("op_bytes/", 0) != 0) continue;
    const std::string kind = name.substr(9, name.find('/', 9) - 9);
    auto& slot = out[kind == "put" ? 0 : kind == "get" ? 1 : 2];
    slot[0] += h.count();
    slot[1] += h.sum();
  }
  return out;
}

TEST(DeviceApi, ProxyAccountsEachCommandUnderItsOwnKind) {
  // The reverse-offload proxy runs commands after the kernel has moved on:
  // here it serves the nbi puts while the kernel has already issued the get
  // and the atomic behind them. Each command must still land in its own op
  // kind's op_bytes histograms. PE 1 stays idle, so the deltas around the
  // kernel are the kernel's alone.
  RuntimeOptions opts = device_options(DeviceBackendKind::kReverseOffload);
  const std::size_t n = 256u << 10;
  std::array<std::array<std::uint64_t, 2>, 3> before{}, after{};
  run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(4 * n, Domain::kGpu));
    auto* word = static_cast<std::int64_t*>(
        ctx.shmalloc(sizeof(std::int64_t), Domain::kGpu));
    if (ctx.my_pe() != 0) return;
    auto* local = static_cast<unsigned char*>(ctx.cuda_malloc(4 * n));
    before = op_bytes_by_kind(ctx.runtime());
    ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                             [&](DeviceCtx& d) {
      for (std::size_t k = 0; k < 3; ++k) {
        d.putmem_nbi(dev + k * n, local + k * n, n, 1);
      }
      d.getmem_nbi(local + 3 * n, dev + 3 * n, 8, 1);
      d.atomic_add(word, 1, 1);
      d.quiet();
    });
    after = op_bytes_by_kind(ctx.runtime());
  });
  EXPECT_EQ(after[0][0] - before[0][0], 3u);
  EXPECT_EQ(after[0][1] - before[0][1], 3 * n);
  EXPECT_EQ(after[1][0] - before[1][0], 1u);
  EXPECT_EQ(after[1][1] - before[1][1], 8u);
  EXPECT_EQ(after[2][0] - before[2][0], 1u);
  EXPECT_EQ(after[2][1] - before[2][1], 8u);
}

// ---------------------------------------------------------------------------
// In-kernel atomics.

TEST(DeviceApi, InKernelAtomicsBothBackends) {
  for (DeviceBackendKind kind : kBackends) {
    auto rt = run_spmd(make_cluster(2, 2), device_options(kind), [&](Ctx& ctx) {
      const int me = ctx.my_pe();
      const int np = ctx.n_pes();
      auto* counter = static_cast<std::int64_t*>(
          ctx.shmalloc(2 * sizeof(std::int64_t), Domain::kGpu));
      counter[0] = 0;
      counter[1] = -1;
      ctx.barrier_all();
      std::int64_t before = -7;
      std::int64_t cas_seen = -7;
      ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                               [&](DeviceCtx& d) {
        before = d.atomic_fetch_add(counter, 10 + me, 0);
        // Exactly one PE wins the swap from -1 to its rank.
        cas_seen = d.atomic_compare_swap(counter + 1, -1, me, 0);
      });
      ctx.barrier_all();
      EXPECT_GE(before, 0);
      EXPECT_TRUE(cas_seen == -1 || (cas_seen >= 0 && cas_seen < np));
      if (me == 0) {
        // 10+0 + 10+1 + 10+2 + 10+3.
        EXPECT_EQ(counter[0], 4 * 10 + 0 + 1 + 2 + 3) << core::to_string(kind);
        EXPECT_GE(counter[1], 0);
        EXPECT_LT(counter[1], np);
      }
      ctx.barrier_all();
    });
    EXPECT_GT(rt->stats().atomics, 0u);
  }
}

// ---------------------------------------------------------------------------
// shmem_ptr load/store from the kernel.

TEST(DeviceApi, PtrLoadStoreIntraNode) {
  auto opts = device_options(DeviceBackendKind::kGpuIb);
  run_spmd(make_cluster(1, 2), opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    const int peer = 1 - me;
    auto* hostv = static_cast<std::int64_t*>(ctx.shmalloc(sizeof(std::int64_t)));
    auto* devv = static_cast<std::int64_t*>(
        ctx.shmalloc(sizeof(std::int64_t), Domain::kGpu));
    *hostv = 100 + me;
    *devv = 200 + me;
    ctx.barrier_all();
    ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                             [&](DeviceCtx& d) {
      auto* ph = static_cast<std::int64_t*>(d.ptr(hostv, peer));
      ASSERT_NE(ph, nullptr);
      EXPECT_EQ(d.ptr_load(ph), 100 + peer);
      d.ptr_store(ph, static_cast<std::int64_t>(500 + me), peer);
      // Same-node GPU heap is IPC-mappable while P2P is healthy.
      auto* pd = static_cast<std::int64_t*>(d.ptr(devv, peer));
      ASSERT_NE(pd, nullptr);
      EXPECT_EQ(d.ptr_load(pd), 200 + peer);
    });
    ctx.barrier_all();
    EXPECT_EQ(*hostv, 500 + peer);
    ctx.barrier_all();
  });
}

TEST(DeviceApi, PtrIsNullAcrossNodes) {
  run_spmd(make_cluster(2, 1), device_options(DeviceBackendKind::kGpuIb),
           [&](Ctx& ctx) {
    auto* v = static_cast<std::int64_t*>(ctx.shmalloc(sizeof(std::int64_t)));
    ctx.barrier_all();
    ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                             [&](DeviceCtx& d) {
      EXPECT_EQ(d.ptr(v, 1 - ctx.my_pe()), nullptr);
    });
    ctx.barrier_all();
  });
}

// ---------------------------------------------------------------------------
// Issue scopes: cooperative WQE assembly is cheaper, never costlier.

TEST(DeviceApi, WarpAndBlockScopesReduceIssueCost) {
  auto run_at = [&](core::DeviceScope scope) {
    double us = 0;
    run_spmd(make_cluster(2, 1), device_options(DeviceBackendKind::kGpuIb),
             [&](Ctx& ctx) {
      auto* dev = static_cast<unsigned char*>(ctx.shmalloc(256, Domain::kGpu));
      std::vector<unsigned char> src(256, 0x5a);
      ctx.barrier_all();
      sim::Time t0 = ctx.now();
      if (ctx.my_pe() == 0) {
        ctx.launch_kernel_device(1.0, scope, [&](DeviceCtx& d) {
          for (int i = 0; i < 32; ++i) d.putmem(dev, src.data(), 256, 1);
        });
        us = (ctx.now() - t0).to_us();
      }
      ctx.barrier_all();
    });
    return us;
  };
  double thread_us = run_at(core::DeviceScope::kThread);
  double warp_us = run_at(core::DeviceScope::kWarp);
  double block_us = run_at(core::DeviceScope::kBlock);
  EXPECT_LT(warp_us, thread_us);
  EXPECT_LT(block_us, warp_us);
}

// ---------------------------------------------------------------------------
// The shmemx_* C surface.

TEST(DeviceApi, ShmemxSurfaceDrivesAKernel) {
  using namespace capi;
  run_spmd(make_cluster(2, 1),
           device_options(DeviceBackendKind::kReverseOffload), [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(1024, Domain::kGpu));
    auto* sig = static_cast<std::uint64_t*>(
        ctx.shmalloc(sizeof(std::uint64_t), Domain::kGpu));
    auto* cnt = static_cast<long long*>(
        ctx.shmalloc(sizeof(long long), Domain::kGpu));
    std::vector<unsigned char> src(1024);
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = pattern(me, i);
    *sig = 0;
    *cnt = 0;
    ctx.barrier_all();
    shmemx_launch_kernel(ctx, 1.0, SHMEMX_SCOPE_WARP,
                         [&](shmemx_device_ctx_t d) {
      EXPECT_EQ(shmemx_my_pe(d), me);
      EXPECT_EQ(shmemx_n_pes(d), 2);
      shmemx_compute(d, 128);
      shmemx_putmem_signal(d, dev, src.data(), src.size(), sig, 1, 1 - me);
      shmemx_signal_wait_until(d, sig, SHMEMX_CMP_GE, 1);
      (void)shmemx_atomic_fetch_add(d, cnt, 5, 0);
      shmemx_quiet(d);
    });
    ctx.barrier_all();
    for (std::size_t i = 0; i < 1024; i += 37) {
      ASSERT_EQ(dev[i], pattern(1 - me, i));
    }
    if (me == 0) {
      EXPECT_EQ(*cnt, 10);
    }
    ctx.barrier_all();
  });
}

// ---------------------------------------------------------------------------
// Option validation.

TEST(DeviceApi, FromEnvValidatesBackendAndQueueDepth) {
  {
    ScopedEnv e("GDRSHMEM_DEVICE_BACKEND", "gpu-ib");
    EXPECT_EQ(RuntimeOptions::from_env().device_backend,
              DeviceBackendKind::kGpuIb);
  }
  {
    ScopedEnv e("GDRSHMEM_DEVICE_BACKEND", "reverse");
    EXPECT_EQ(RuntimeOptions::from_env().device_backend,
              DeviceBackendKind::kReverseOffload);
  }
  {
    ScopedEnv e("GDRSHMEM_DEVICE_BACKEND", "bogus");
    EXPECT_THROW(RuntimeOptions::from_env(), core::ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_DEVICE_QUEUE_DEPTH", "16");
    EXPECT_EQ(RuntimeOptions::from_env().device_queue_depth, 16);
  }
  {
    ScopedEnv e("GDRSHMEM_DEVICE_QUEUE_DEPTH", "0");
    EXPECT_THROW(RuntimeOptions::from_env(), core::ShmemError);
  }
}

TEST(DeviceApi, ReverseOffloadRequiresProxy) {
  RuntimeOptions opts = device_options(DeviceBackendKind::kReverseOffload);
  opts.tuning.use_proxy = false;
  EXPECT_THROW(
      run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
        auto* dev = static_cast<unsigned char*>(ctx.shmalloc(64, Domain::kGpu));
        unsigned char byte = 1;
        ctx.barrier_all();
        ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                                 [&](DeviceCtx& d) {
          d.putmem(dev, &byte, 1, 1 - ctx.my_pe());
        });
      }),
      core::ShmemError);
}

// ---------------------------------------------------------------------------
// Determinism: both execution engines, both device backends.

TEST(DeviceApi, BackendsDeterministicAcrossEngines) {
  for (DeviceBackendKind kind : kBackends) {
    std::uint64_t end_ns[2] = {0, 0};
    std::uint64_t sum[2] = {0, 0};
    int slot = 0;
    for (sim::BackendKind engine :
         {sim::BackendKind::kFibers, sim::BackendKind::kThreads}) {
      RuntimeOptions opts = device_options(kind);
      opts.sim_backend = engine;
      const std::size_t n = 16u << 10;
      auto rt = run_spmd(make_cluster(2, 2), opts, [&](Ctx& ctx) {
        const int me = ctx.my_pe();
        const int right = (me + 1) % ctx.n_pes();
        auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
        auto* sig = static_cast<std::uint64_t*>(
            ctx.shmalloc(sizeof(std::uint64_t), Domain::kGpu));
        std::vector<unsigned char> src(n);
        for (std::size_t i = 0; i < n; ++i) src[i] = pattern(me, i);
        *sig = 0;
        ctx.barrier_all();
        ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                                 [&](DeviceCtx& d) {
          for (int r = 0; r < 3; ++r) {
            d.put_signal(dev, src.data(), n, sig,
                         static_cast<std::uint64_t>(r) + 1, right);
            d.signal_wait_until(sig, core::Cmp::kGe,
                                static_cast<std::uint64_t>(r) + 1);
          }
          d.quiet();
        });
        ctx.barrier_all();
        if (me == 0) {
          std::uint64_t s = 0;
          for (std::size_t i = 0; i < n; ++i) s = s * 31 + dev[i];
          sum[slot] = s;
        }
        ctx.barrier_all();
      });
      end_ns[slot] = rt->engine().now().count_ns();
      ++slot;
    }
    EXPECT_EQ(sum[0], sum[1]) << core::to_string(kind);
    EXPECT_EQ(end_ns[0], end_ns[1]) << core::to_string(kind);
  }
}

// ---------------------------------------------------------------------------
// Fault plans.

TEST(DeviceApi, ProxyCrashMidKernelRecoversReverseOffload) {
  // Kill the REQUESTER's node proxy (reverse commands are served by the
  // kernel's own node) mid-way through a 4 MB in-kernel put; the kernel's
  // per-attempt deadline must fire, reissue with fresh state, and land
  // exactly the same bytes the fault-free run lands.
  const std::size_t n = 4u << 20;
  auto run_once = [&](const char* plan) {
    RuntimeOptions opts = device_options(DeviceBackendKind::kReverseOffload);
    if (plan != nullptr) opts.faults = sim::FaultPlan::parse(plan);
    std::uint64_t digest = 0;
    auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
      const int me = ctx.my_pe();
      auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
      std::memset(dev, 0, n);
      std::vector<unsigned char> src(n);
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(0, i);
      ctx.barrier_all();
      if (me == 0) {
        ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                                 [&](DeviceCtx& d) {
          d.putmem(dev, src.data(), n, 1);
          d.quiet();
        });
      }
      ctx.barrier_all();
      if (me == 1) {
        std::uint64_t s = 0;
        for (std::size_t i = 0; i < n; i += 509) s = s * 31 + dev[i];
        digest = s;
      }
      ctx.barrier_all();
    });
    return std::make_pair(digest, std::move(rt));
  };

  auto [clean, clean_rt] = run_once(nullptr);
  auto [faulty, faulty_rt] = run_once("crash=0@300");
  EXPECT_EQ(clean, faulty);
  EXPECT_EQ(faulty_rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_EQ(faulty_rt->faults().count(sim::FaultEvent::kProxyRestart), 1u);
  EXPECT_GE(faulty_rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
  EXPECT_EQ(clean_rt->faults().count(sim::FaultEvent::kProxyCrash), 0u);
}

TEST(DeviceApi, GpuIbFallsBackToProxyWhenP2pRevoked) {
  // Revoking P2P on the issuing node makes the GPU unable to build/ring its
  // own WQEs against GPU memory; the GPU-IB backend must reroute through the
  // reverse-offload path and stay correct.
  RuntimeOptions opts = device_options(DeviceBackendKind::kGpuIb);
  opts.faults = sim::FaultPlan::parse("revoke=0@0");
  const std::size_t n = 32u << 10;
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    std::memset(dev, 0, n);
    // GPU-resident source: with node 0's P2P revoked, the device cannot post
    // this leg itself.
    auto* src = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    for (std::size_t i = 0; i < n; ++i) src[i] = pattern(3, i);
    ctx.barrier_all();
    if (me == 0) {
      ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                               [&](DeviceCtx& d) {
        d.putmem(dev, src, n, 1);
        d.quiet();
      });
    }
    ctx.barrier_all();
    if (me == 1) {
      for (std::size_t i = 0; i < n; i += 101) {
        ASSERT_EQ(dev[i], pattern(3, i)) << "byte " << i;
      }
    }
    ctx.barrier_all();
  });
  EXPECT_GT(rt->faults().count(sim::FaultEvent::kGdrFallback), 0u);
}

TEST(DeviceApi, GpuIbCountsGdrFallbackLikeTheHost) {
  // One gdr-fallback per op with a GPU leg on a revoked node, counted where
  // the op is issued: an intra-node put into a GPU word counts once whether
  // the host or a GPU-IB kernel issues it.
  for (bool from_kernel : {false, true}) {
    SCOPED_TRACE(from_kernel ? "kernel" : "host");
    RuntimeOptions opts = device_options(DeviceBackendKind::kGpuIb);
    opts.faults = sim::FaultPlan::parse("revoke=0@0");
    auto rt = run_spmd(make_cluster(1, 2), opts, [&](Ctx& ctx) {
      auto* word = static_cast<std::uint64_t*>(
          ctx.shmalloc(sizeof(std::uint64_t), Domain::kGpu));
      *word = 0;
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        const std::uint64_t v = 42;
        if (from_kernel) {
          ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                                   [&](DeviceCtx& d) {
            d.putmem(word, &v, sizeof v, 1);
            d.quiet();
          });
        } else {
          ctx.putmem(word, &v, sizeof v, 1);
          ctx.quiet();
        }
      }
      ctx.barrier_all();
      if (ctx.my_pe() == 1) {
        EXPECT_EQ(*word, 42u);
      }
    });
    EXPECT_EQ(rt->faults().count(sim::FaultEvent::kGdrFallback), 1u);
  }
}

TEST(DeviceApi, GpuIbOversizedWithoutProxyPostsOnceDirect) {
  // With no proxy to offload to, a GPU-IB put larger than the direct GDR
  // limit still goes out, as one direct-gdr posting.
  RuntimeOptions opts = device_options(DeviceBackendKind::kGpuIb);
  opts.tuning.use_proxy = false;
  const std::size_t n = 1u << 20;
  std::uint64_t ops = 0, bytes = 0;
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
    for (std::size_t i = 0; i < n; ++i) src[i] = pattern(me, i);
    ctx.barrier_all();
    if (me == 0) {
      const core::OpStats before = ctx.runtime().stats();
      ctx.launch_kernel_device(1.0, core::DeviceScope::kThread,
                               [&](DeviceCtx& d) {
        d.putmem(dev, src, n, 1);
        d.quiet();
      });
      const core::OpStats after = ctx.runtime().stats();
      ops = after.ops(core::Protocol::kDirectGdr) -
            before.ops(core::Protocol::kDirectGdr);
      const auto gdr = static_cast<std::size_t>(core::Protocol::kDirectGdr);
      bytes = after.bytes_by_protocol[gdr] - before.bytes_by_protocol[gdr];
    }
    ctx.barrier_all();
    if (me == 1) {
      for (std::size_t i = 0; i < n; i += 101) {
        ASSERT_EQ(dev[i], pattern(0, i)) << "byte " << i;
      }
    }
  });
  EXPECT_EQ(ops, 1u);
  EXPECT_EQ(bytes, n);
  EXPECT_EQ(rt->stats().ops(core::Protocol::kPipelineGdrWrite), 0u);
}

}  // namespace
}  // namespace gdrshmem
