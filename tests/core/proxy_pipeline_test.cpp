// The pipelined proxy-put and the staged proxy-get (DESIGN §5e). With
// s = k % kStagingSlots, a put into a GDR-poor GPU streams chunk k through
// proxy staging slot s, and a device source also through slot s of its
// PE's staging ring; a get into a GDR-poor requester's GPU streams chunk k
// through proxy staging slot s into the requester's ring slot s. Every
// byte must land, blocking
// and nbi, on the fault-free path and on the ordered path a fault plan
// selects, with two requesters sharing one proxy and across a proxy crash.
// The ring slots' chunks in flight must survive the next staged call
// before quiet(). Also the registration-cache lookup the host source relies
// on when its chunks post from sub-ranges of one registration, and a
// kernel-issued get past the direct-GDR window, which the requester's proxy
// pulls through its staging ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "core/proxy.hpp"
#include "ib/verbs.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

/// A byte pattern that differs between offsets a whole chunk apart, so a
/// chunk copied from or into the wrong slot shows.
unsigned char pattern(int tag, std::size_t i) {
  const std::uint32_t x = static_cast<std::uint32_t>(i) * 2654435761u +
                          static_cast<std::uint32_t>(tag) * 40503u;
  return static_cast<unsigned char>(x >> 24);
}

/// Index of the first byte of `p[0, n)` that differs from pattern(tag, .),
/// or n.
std::size_t first_mismatch(const unsigned char* p, std::size_t n, int tag) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != pattern(tag, i)) return i;
  }
  return n;
}

// Twelve full chunks of the default 64 KiB pipeline chunk and a tail, so
// the transfer wraps the eight-slot staging ring.
constexpr std::size_t kBytes = 3 * (256u << 10) + 100;

struct PutCase {
  bool device_source;
  bool blocking;
  bool revoked;  // target's P2P revoked (fault plan) instead of inter-socket
};

std::string case_name(const ::testing::TestParamInfo<PutCase>& info) {
  const PutCase& c = info.param;
  return std::string(c.device_source ? "Device" : "Host") +
         (c.blocking ? "Blocking" : "Nbi") +
         (c.revoked ? "IntoRevokedGpu" : "IntoInterSocketGpu");
}

class ProxyPutPipeline : public ::testing::TestWithParam<PutCase> {};

TEST_P(ProxyPutPipeline, MovesEveryByte) {
  const PutCase c = GetParam();
  hw::ClusterConfig cluster = make_cluster(2, 1, /*same_socket=*/c.revoked);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  if (c.revoked) opts.faults = sim::FaultPlan::parse("revoke=1@0");
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dst = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> host(kBytes);
      auto* src = c.device_source
                      ? static_cast<unsigned char*>(ctx.cuda_malloc(kBytes))
                      : host.data();
      for (std::size_t i = 0; i < kBytes; ++i) src[i] = pattern(1, i);
      if (c.blocking) {
        ctx.putmem(dst, src, kBytes, 1);
      } else {
        ctx.putmem_nbi(dst, src, kBytes, 1);
        ctx.quiet();
      }
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(dst, kBytes, 1), kBytes);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyPut), 1u);
  EXPECT_EQ(rt->proxy(1).puts_served(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProxyPutPipeline,
    ::testing::Values(PutCase{false, true, false}, PutCase{false, false, false},
                      PutCase{true, true, false}, PutCase{true, false, false},
                      PutCase{false, true, true}, PutCase{false, false, true},
                      PutCase{true, true, true}, PutCase{true, false, true}),
    case_name);

TEST(ProxyPutPipeline, TwoRequestersShareOneProxy) {
  // PEs 0 (device source) and 1 (host source) on node 0 put into PE 2's GPU
  // at the same instant; node 1's proxy serves one transfer while the
  // other's request waits.
  hw::ClusterConfig cluster = make_cluster(2, 2, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* dst =
        static_cast<unsigned char*>(ctx.shmalloc(2 * kBytes, Domain::kGpu));
    std::vector<unsigned char> host(kBytes);
    auto* src = me == 0 ? static_cast<unsigned char*>(ctx.cuda_malloc(kBytes))
                        : host.data();
    for (std::size_t i = 0; i < kBytes; ++i) src[i] = pattern(me, i);
    ctx.barrier_all();
    if (me < 2) {
      ctx.putmem_nbi(dst + me * kBytes, src, kBytes, 2);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (me == 2) {
      for (int from = 0; from < 2; ++from) {
        EXPECT_EQ(first_mismatch(dst + from * kBytes, kBytes, from), kBytes)
            << "payload of PE " << from;
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyPut), 2u);
  EXPECT_EQ(rt->proxy(1).puts_served(), 2u);
}

TEST(ProxyPutPipeline, DeviceSourceProxyCrashMidPutIsRecovered) {
  // FaultInjection.ProxyCrashMidPutIsRecovered from a device buffer: the
  // reissued attempt restages its chunks through the staging ring.
  hw::ClusterConfig cluster = make_cluster(2, 1, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse("crash=1@300");
  const std::size_t n = 4u << 20;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    if (ctx.my_pe() == 0) {
      auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(0, i);
      ctx.putmem(dev, src, n, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(dev, n, 0), n);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyPut), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyRestart), 1u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
}

TEST(ProxyPutPipeline, DeviceSourceNeverGrowsTheBounceBuffer) {
  hw::ClusterConfig cluster = make_cluster(2, 1, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  const std::size_t n = 2u << 20;
  run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(2, i);
      const std::byte* before = ctx.staging_ring().data();
      ctx.putmem(dev, src, n, 1);
      EXPECT_EQ(ctx.staging_ring().data(), before);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(dev, n, 2), n);
    }
    ctx.barrier_all();
  });
}

TEST(ProxyPutPipeline, PipelineWriteThenProxyPutBeforeQuiet) {
  // Every HCA sits on the other socket from its GPU. A 1 MiB device-source
  // put into a host word takes pipeline-gdr-write and returns with its last
  // chunks still on the wire; a 2 MiB device-source put into a GPU word then
  // takes proxy-put. Its staging must not regrow (and so free) the ring
  // those chunks are still being sent from.
  hw::ClusterConfig cluster = make_cluster(2, 2, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  const std::size_t small = 1u << 20;
  const std::size_t large = 2u << 20;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* host_dst =
        static_cast<unsigned char*>(ctx.shmalloc(small, Domain::kHost));
    auto* gpu_dst =
        static_cast<unsigned char*>(ctx.shmalloc(large, Domain::kGpu));
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* a = static_cast<unsigned char*>(ctx.cuda_malloc(small));
      auto* b = static_cast<unsigned char*>(ctx.cuda_malloc(large));
      for (std::size_t i = 0; i < small; ++i) a[i] = pattern(3, i);
      for (std::size_t i = 0; i < large; ++i) b[i] = pattern(4, i);
      ctx.putmem(host_dst, a, small, 2);
      ctx.putmem(gpu_dst, b, large, 2);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 2) {
      EXPECT_EQ(first_mismatch(host_dst, small, 3), small);
      EXPECT_EQ(first_mismatch(gpu_dst, large, 4), large);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kPipelineGdrWrite), 1u);
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyPut), 1u);
}

struct GetCase {
  std::size_t bytes;
  bool blocking;
  bool revoked;  // requester's P2P revoked (fault plan) instead of inter-socket
};

std::string get_case_name(const ::testing::TestParamInfo<GetCase>& info) {
  const GetCase& c = info.param;
  return std::to_string(c.bytes) + "B" + (c.blocking ? "Blocking" : "Nbi") +
         (c.revoked ? "IntoRevokedGpu" : "IntoInterSocketGpu");
}

class ProxyGetPipeline : public ::testing::TestWithParam<GetCase> {};

TEST_P(ProxyGetPipeline, MovesEveryByteThroughTheBounce) {
  // PE 0 gets from PE 1's GPU into its own GPU, whose GDR write is poor: the
  // proxy writes each chunk into PE 0's ring slots, so the destination is
  // never registered and the ring never moves.
  const GetCase c = GetParam();
  hw::ClusterConfig cluster = make_cluster(2, 1, /*same_socket=*/c.revoked);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  if (c.revoked) opts.faults = sim::FaultPlan::parse("revoke=0@0");
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* src =
        static_cast<unsigned char*>(ctx.shmalloc(c.bytes, Domain::kGpu));
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < c.bytes; ++i) src[i] = pattern(6, i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* dst = static_cast<unsigned char*>(ctx.cuda_malloc(c.bytes));
      const std::byte* before = ctx.staging_ring().data();
      if (c.blocking) {
        ctx.getmem(dst, src, c.bytes, 1);
      } else {
        ctx.getmem_nbi(dst, src, c.bytes, 1);
        ctx.quiet();
      }
      EXPECT_EQ(first_mismatch(dst, c.bytes, 6), c.bytes);
      EXPECT_EQ(ctx.staging_ring().data(), before);
      EXPECT_FALSE(ctx.runtime().verbs().reg_cache().covered(0, dst, 1));
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 1u);
  EXPECT_EQ(rt->proxy(1).gets_served(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProxyGetPipeline,
    ::testing::ValuesIn([] {
      std::vector<GetCase> cases;
      for (std::size_t bytes : {std::size_t{64} << 10, std::size_t{256} << 10,
                                kBytes, std::size_t{4} << 20}) {
        for (bool revoked : {false, true}) {
          for (bool blocking : {true, false}) {
            cases.push_back({bytes, blocking, revoked});
          }
        }
      }
      return cases;
    }()),
    get_case_name);

TEST(ProxyGetPipeline, StagedGetAndProxyPutShareOneProxy) {
  // PE 0 gets from PE 2's GPU into its own GPU while PE 1 puts into PE 3's
  // GPU: node 1's proxy serves the staged get and the proxy-put at once,
  // one of them from its stash.
  hw::ClusterConfig cluster = make_cluster(2, 2, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* sym = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    auto* local = static_cast<unsigned char*>(ctx.cuda_malloc(kBytes));
    for (std::size_t i = 0; i < kBytes; ++i) {
      sym[i] = pattern(me, i);
      local[i] = pattern(10 + me, i);
    }
    ctx.barrier_all();
    if (me == 0) ctx.getmem_nbi(local, sym, kBytes, 2);
    if (me == 1) ctx.putmem_nbi(sym, local, kBytes, 3);
    ctx.quiet();
    ctx.barrier_all();
    if (me == 0) {
      EXPECT_EQ(first_mismatch(local, kBytes, 2), kBytes);
    } else if (me == 3) {
      EXPECT_EQ(first_mismatch(sym, kBytes, 11), kBytes);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 1u);
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyPut), 1u);
  EXPECT_EQ(rt->proxy(1).gets_served(), 1u);
  EXPECT_EQ(rt->proxy(1).puts_served(), 1u);
}

/// PE 0 gets 4 MiB from PE 1's GPU into its own inter-socket GPU under
/// `opts`, and every byte must land.
std::unique_ptr<Runtime> staged_get_4mib(const RuntimeOptions& opts) {
  const std::size_t n = 4u << 20;
  return run_spmd(make_cluster(2, 1, /*same_socket=*/false), opts,
                  [&](Ctx& ctx) {
    auto* src = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; ++i) src[i] = pattern(7, i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* dst = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      ctx.getmem(dst, src, n, 1);
      EXPECT_EQ(first_mismatch(dst, n, 7), n);
    }
    ctx.barrier_all();
  });
}

TEST(ProxyGetPipeline, ProxyCrashMidGetIsRecovered) {
  // The proxy dies 300 us in, in the middle of a 4 MiB staged get; the
  // requester's landed wait times out and the reissued attempt restreams
  // every chunk through the ring slots.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.faults = sim::FaultPlan::parse("crash=1@300");
  auto rt = staged_get_4mib(opts);
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyRestart), 1u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
}

TEST(ProxyGetPipeline, RestartedProxyDropsAStaleCredit) {
  // Restarted at once, the proxy finds the requester's credit for the lost
  // attempt in its mailbox and drops it. Pinned to rc: whether a credit is
  // in flight at the crash instant is a matter of the QP kind's timing.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kRc;
  opts.faults = sim::FaultPlan::parse("crash=1@300,restart_us=0");
  auto rt = staged_get_4mib(opts);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kStaleCtrlDrop), 1u);
}

TEST(ProxyGetPipeline, LandedNoticeNeverOvertakesItsChunkOnSrd) {
  // srd delivers a chunk's segments out of order with a delivery jitter far
  // above a chunk's copy time: a landed notice sent as soon as the chunk's
  // write was posted would let the requester copy the slot before the chunk
  // arrived.
  hw::ClusterConfig cluster = make_cluster(2, 1, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kSrd;
  opts.ib_srd_jitter_us = 200.0;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* src = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < kBytes; ++i) src[i] = pattern(16, i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* dst = static_cast<unsigned char*>(ctx.cuda_malloc(kBytes));
      ctx.getmem(dst, src, kBytes, 1);
      EXPECT_EQ(first_mismatch(dst, kBytes, 16), kBytes);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 1u);
}

// A PE's staging ring keeps its chunks in flight across calls: a later
// staged call that writes the ring waits for them, and nothing regrows (and
// so frees) the ring under them.

TEST(BounceSlots, TwoDeviceSourcePutsBeforeQuiet) {
  // A 4 MiB host-source put holds PE 0's port, so the chunks of the first
  // 512 KiB device-source put (pipeline-gdr-write) are still in the ring
  // slots when the second one stages its own.
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  const std::size_t big = 4u << 20;
  const std::size_t n = 512u << 10;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* dst =
        static_cast<unsigned char*>(ctx.shmalloc(big + 2 * n, Domain::kHost));
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> host(big);
      auto* a = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      auto* b = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = pattern(8, i);
        b[i] = pattern(9, i);
      }
      ctx.putmem_nbi(dst, host.data(), big, 1);
      ctx.putmem_nbi(dst + big, a, n, 1);
      ctx.putmem_nbi(dst + big + n, b, n, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(dst + big, n, 8), n);
      EXPECT_EQ(first_mismatch(dst + big + n, n, 9), n);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kPipelineGdrWrite), 2u);
}

TEST(BounceSlots, HostPipelineRendezvousThenIntraNodeStagedPut) {
  // Host-pipeline transport: a 1 MiB D-D put to the other node (rendezvous)
  // returns with its last chunks in the ring slots; a 2 MiB D-H put to the
  // same-node peer then bounces the whole message through a bounce buffer
  // of its own.
  hw::ClusterConfig cluster = make_cluster(2, 2);
  RuntimeOptions opts = make_options(TransportKind::kHostPipeline);
  const std::size_t small = 1u << 20;
  const std::size_t large = 2u << 20;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* gpu_dst =
        static_cast<unsigned char*>(ctx.shmalloc(small, Domain::kGpu));
    auto* host_dst =
        static_cast<unsigned char*>(ctx.shmalloc(large, Domain::kHost));
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* a = static_cast<unsigned char*>(ctx.cuda_malloc(small));
      auto* b = static_cast<unsigned char*>(ctx.cuda_malloc(large));
      for (std::size_t i = 0; i < small; ++i) a[i] = pattern(12, i);
      for (std::size_t i = 0; i < large; ++i) b[i] = pattern(13, i);
      ctx.putmem(gpu_dst, a, small, 2);
      ctx.putmem(host_dst, b, large, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 2) {
      EXPECT_EQ(first_mismatch(gpu_dst, small, 12), small);
    } else if (ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(host_dst, large, 13), large);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kRendezvous), 1u);
  EXPECT_EQ(rt->stats().ops(Protocol::kIpcStaged), 1u);
}

TEST(BounceSlots, DeviceSourcePutThenStagedProxyGetBeforeQuiet) {
  // HCA and GPU on other sockets. A 4 MiB host-source put holds PE 0's
  // port, a 1 MiB device-source put into PE 1's host heap leaves its chunks
  // in the ring slots, and a staged proxy-get into PE 0's GPU then has
  // the proxy write into those slots.
  hw::ClusterConfig cluster = make_cluster(2, 1, /*same_socket=*/false);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  const std::size_t big = 4u << 20;
  const std::size_t n = 1u << 20;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* host_dst =
        static_cast<unsigned char*>(ctx.shmalloc(big + n, Domain::kHost));
    auto* gpu_src = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; ++i) gpu_src[i] = pattern(14, i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> host(big);
      auto* a = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      auto* got = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      for (std::size_t i = 0; i < n; ++i) a[i] = pattern(15, i);
      ctx.putmem_nbi(host_dst, host.data(), big, 1);
      ctx.putmem_nbi(host_dst + big, a, n, 1);
      ctx.getmem_nbi(got, gpu_src, n, 1);
      ctx.quiet();
      EXPECT_EQ(first_mismatch(got, n, 14), n);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(host_dst + big, n, 15), n);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kPipelineGdrWrite), 1u);
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 1u);
}

TEST(ProxyGet, IntoRangeEnclosingAnEarlierGetsDestination) {
  // The first proxy-get registers [buf + 256 KiB, +64 KiB), the second the
  // whole 1 MiB around it. The proxy's chunk at +256 KiB must find the
  // enclosing registration, not only the nearer inner one.
  hw::ClusterConfig cluster = make_cluster(2, 1);
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  const std::size_t n = 1u << 20;
  const std::size_t inner_off = 256u << 10;
  const std::size_t inner = 64u << 10;
  auto rt = run_spmd(cluster, opts, [&](Ctx& ctx) {
    auto* gpu = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < n; ++i) gpu[i] = pattern(5, i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> buf(n);
      ctx.getmem(buf.data() + inner_off, gpu, inner, 1);
      EXPECT_EQ(first_mismatch(buf.data() + inner_off, inner, 5), inner);
      ctx.getmem(buf.data(), gpu, n, 1);
      EXPECT_EQ(first_mismatch(buf.data(), n, 5), n);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 2u);
}

// A kernel-issued get past the direct-GDR window: the proxy on the
// requester's node reads the remote GPU into its staging slots, two slots
// per read, and copies each chunk out on its slot's stream while it reads
// the next ones (detail::StagedPipeline::pull, host-staged-get's loop).

struct DeviceGetCase {
  DeviceBackendKind backend;
  std::size_t bytes;
  bool blocking;
  bool device_dest;
  bool same_socket;
};

std::string device_get_case_name(
    const ::testing::TestParamInfo<DeviceGetCase>& info) {
  const DeviceGetCase& c = info.param;
  return std::string(c.backend == DeviceBackendKind::kGpuIb ? "GpuIb"
                                                            : "Reverse") +
         std::to_string(c.bytes) + "B" + (c.blocking ? "Blocking" : "Nbi") +
         (c.device_dest ? "IntoDevice" : "IntoHost") +
         (c.same_socket ? "SameSocket" : "CrossSocket");
}

/// PE 0's resident kernel gets `c.bytes` from PE 1's GPU heap into its own
/// GPU or a host buffer and quiets, under `opts` on 2 nodes x 1 PE; every
/// byte must land. `us`, when given, receives the kernel's virtual time,
/// launch included. `before`, when given, runs on PE 0 just before the
/// kernel launch.
std::unique_ptr<Runtime> kernel_get(
    const DeviceGetCase& c, RuntimeOptions opts, double* us = nullptr,
    const std::function<void(Ctx&)>& before = nullptr) {
  opts.device_backend = c.backend;
  return run_spmd(make_cluster(2, 1, c.same_socket), opts, [&](Ctx& ctx) {
    auto* src = static_cast<unsigned char*>(ctx.shmalloc(c.bytes, Domain::kGpu));
    if (ctx.my_pe() == 1) {
      for (std::size_t i = 0; i < c.bytes; ++i) src[i] = pattern(20, i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> host(c.device_dest ? 0 : c.bytes);
      auto* dst = c.device_dest
                      ? static_cast<unsigned char*>(ctx.cuda_malloc(c.bytes))
                      : host.data();
      if (before) before(ctx);
      const sim::Time t0 = ctx.now();
      ctx.launch_kernel_device(1.0, DeviceScope::kThread, [&](DeviceCtx& d) {
        if (c.blocking) {
          d.getmem(dst, src, c.bytes, 1);
        } else {
          d.getmem_nbi(dst, src, c.bytes, 1);
        }
        d.quiet();
      });
      if (us != nullptr) *us = (ctx.now() - t0).to_us();
      EXPECT_EQ(first_mismatch(dst, c.bytes, 20), c.bytes);
    }
    ctx.barrier_all();
  });
}

class DeviceGetPipeline : public ::testing::TestWithParam<DeviceGetCase> {};

TEST_P(DeviceGetPipeline, MovesEveryByte) {
  const DeviceGetCase c = GetParam();
  auto rt = kernel_get(c, make_options(TransportKind::kEnhancedGdr));
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 1u);
  EXPECT_EQ(rt->proxy(0).device_cmds_served(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DeviceGetPipeline,
    ::testing::ValuesIn([] {
      std::vector<DeviceGetCase> cases;
      for (DeviceBackendKind backend :
           {DeviceBackendKind::kGpuIb, DeviceBackendKind::kReverseOffload}) {
        for (std::size_t bytes : {std::size_t{64} << 10,
                                  std::size_t{256} << 10, kBytes,
                                  std::size_t{4} << 20}) {
          for (bool blocking : {true, false}) {
            for (bool device_dest : {true, false}) {
              for (bool same_socket : {true, false}) {
                cases.push_back(
                    {backend, bytes, blocking, device_dest, same_socket});
              }
            }
          }
        }
      }
      return cases;
    }()),
    device_get_case_name);

TEST(DeviceGetPipeline, ReverseGetAcrossAProxyCrash) {
  // The requester's own proxy dies 300 us in, in the middle of the pull;
  // the kernel's command times out and its reissue pulls every chunk again.
  // Almost all of its 137,277 us is the wait for the command's deadline,
  // two per-stage timeouts plus one per 128 KiB whatever the pipeline
  // chunk: one per 64 KiB chunk took 265,277 us.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.faults = sim::FaultPlan::parse("crash=0@300");
  double us = 0;
  auto rt = kernel_get({DeviceBackendKind::kReverseOffload, 4u << 20,
                        /*blocking=*/true, /*device_dest=*/true,
                        /*same_socket=*/true},
                       opts, &us);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
  EXPECT_LT(us, 140'000.0);
}

TEST(DeviceGetPipeline, ReadOfChunkOverlapsCopyOfThePrevious) {
  // A 4 MiB same-socket get into the GPU takes 1,351.6 us when each read
  // overlaps the read and the copy-outs of the one before (1,357.4 us over
  // four 128 KiB slots copied out on one stream), and 1,864.2 us with one
  // staging slot copied out synchronously. Pinned to rc, whose timing the
  // numbers are.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kRc;
  double us = 0;
  kernel_get({DeviceBackendKind::kGpuIb, 4u << 20, /*blocking=*/true,
              /*device_dest=*/true, /*same_socket=*/true},
             opts, &us);
  EXPECT_LT(us, 1600.0);
}

TEST(DeviceGetPipeline, CopyOutDoesNotQueueBehindTheRequestersStream) {
  // The proxy is its own process and copies each pulled chunk out on its
  // ring's slot streams, so a 5 ms kernel the PE queued on its stream just
  // before does not delay a kernel get; copied out on the PE's stream, the
  // get's first chunk would wait for that kernel. Pinned to rc.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kRc;
  const DeviceGetCase c{DeviceBackendKind::kGpuIb, 4u << 20, /*blocking=*/true,
                        /*device_dest=*/true, /*same_socket=*/true};
  double alone = 0;
  double queued = 0;
  kernel_get(c, opts, &alone);
  kernel_get(c, opts, &queued, [](Ctx& ctx) {
    ctx.runtime().cuda().launch_kernel_async(5'000'000, 1.0, [] {},
                                             ctx.stream());
  });
  EXPECT_DOUBLE_EQ(queued, alone);
}

}  // namespace
}  // namespace gdrshmem::core
