// The pipelined proxy-put (DESIGN §5e): chunk k of a put into a GDR-poor
// GPU streams through proxy staging slot k % 2, and a device source also
// through bounce slot k % 2. Every byte must land from host and device
// sources, blocking and nbi, on the fault-free path and on the ordered path
// a fault plan selects, with two requesters sharing one proxy and across a
// proxy crash. Also the registration-cache lookup the host source relies on
// when its chunks post from sub-ranges of one registration.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/proxy.hpp"
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

// Three full chunks of the default 256 KiB pipeline chunk and a tail.
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
  // reissued attempt restages its chunks through the bounce slots.
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
      const std::byte* before = ctx.bounce(0);
      ctx.putmem(dev, src, n, 1);
      EXPECT_EQ(ctx.bounce(0), before);
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
  // takes proxy-put. Its staging must not regrow (and so free) the bounce
  // buffer those chunks are still being sent from.
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

}  // namespace
}  // namespace gdrshmem::core
