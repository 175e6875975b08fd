// Protocol-selection tests: the Enhanced-GDR hybrid must pick exactly the
// protocol Section III prescribes for each configuration and size, and the
// resulting latencies must sit in the bands the paper reports.
#include <gtest/gtest.h>

#include <vector>

#include "core/device_api.hpp"
#include "core/proxy.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;

constexpr bool kSameSocket = false;
constexpr bool kCrossSocket = true;
constexpr bool kFromHost = false;
constexpr bool kFromKernel = true;

struct ProtoExpect {
  bool intra;
  bool local_dev;
  Domain remote;
  std::size_t bytes;
  bool is_put;
  bool cross_socket;  // every HCA on the other socket from its GPU
  bool from_kernel;   // issued from a resident kernel on the GPU-IB backend
  Protocol expected;
};

std::string proto_case_name(const ::testing::TestParamInfo<ProtoExpect>& info) {
  const ProtoExpect& c = info.param;
  std::string s = c.intra ? "Intra" : "Inter";
  s += c.local_dev ? "D" : "H";
  s += c.remote == Domain::kGpu ? "D" : "H";
  s += std::to_string(c.bytes);
  s += c.is_put ? "Put" : "Get";
  if (c.cross_socket) s += "CrossSocket";
  return s;
}

unsigned char pattern(int seed, std::size_t i) {
  return static_cast<unsigned char>((seed * 131 + i * 7) & 0xff);
}

/// Index of the first byte of `buf` that differs from pattern(seed, .), or n.
std::size_t first_mismatch(const unsigned char* buf, std::size_t n, int seed) {
  for (std::size_t i = 0; i < n; ++i) {
    if (buf[i] != pattern(seed, i)) return i;
  }
  return n;
}

class EnhancedProtocolSelection : public ::testing::TestWithParam<ProtoExpect> {};

TEST_P(EnhancedProtocolSelection, PicksPaperProtocol) {
  const ProtoExpect c = GetParam();
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 8u << 20;
  opts.gpu_heap_bytes = 8u << 20;
  opts.device_backend = DeviceBackendKind::kGpuIb;
  Runtime rt(make_cluster(2, 2, /*same_socket=*/!c.cross_socket), opts);
  const int target = c.intra ? 1 : 2;
  constexpr int kSourceSeed = 100;  // pattern of PE 0's put source
  std::uint64_t ops_before = 0, bytes_before = 0, ops_after = 0, bytes_after = 0;
  std::size_t landed = 0;
  rt.run([&](Ctx& ctx) {
    const int me = ctx.my_pe();
    auto* sym = static_cast<unsigned char*>(ctx.shmalloc(c.bytes, c.remote));
    for (std::size_t i = 0; i < c.bytes; ++i) sym[i] = pattern(me, i);
    std::vector<unsigned char> host_local(c.bytes);
    unsigned char* local = host_local.data();
    if (c.local_dev) local = static_cast<unsigned char*>(ctx.cuda_malloc(c.bytes));
    for (std::size_t i = 0; i < c.bytes; ++i) local[i] = pattern(kSourceSeed, i);
    // Section III's protocol is the one a registered buffer takes: a large
    // inter-node transfer on an unregistered one runs a staged sibling
    // while the buffer registers (DESIGN §5j).
    ctx.runtime().verbs().reg_cache().get_or_register(ctx.proc(), me, local,
                                                      c.bytes);
    ctx.barrier_all();
    if (me == 0) {
      ops_before = ctx.runtime().stats().ops(c.expected);
      bytes_before = ctx.runtime().stats().bytes_by_protocol[static_cast<std::size_t>(
          c.expected)];
      auto issue = [&](auto& api) {
        if (c.is_put) {
          api.putmem(sym, local, c.bytes, target);
        } else {
          api.getmem(local, sym, c.bytes, target);
        }
        api.quiet();
      };
      if (c.from_kernel) {
        ctx.launch_kernel_device(1.0, DeviceScope::kThread,
                                 [&](DeviceCtx& d) { issue(d); });
      } else {
        issue(ctx);
      }
      ops_after = ctx.runtime().stats().ops(c.expected);
      bytes_after = ctx.runtime().stats().bytes_by_protocol[static_cast<std::size_t>(
          c.expected)];
      if (!c.is_put) landed = first_mismatch(local, c.bytes, target);
    }
    ctx.barrier_all();
    if (c.is_put && me == target) landed = first_mismatch(sym, c.bytes, kSourceSeed);
  });
  // Barrier/collective internals also move 8-byte flags over the host
  // protocols, so assert on deltas: the op itself must have been counted
  // under the expected protocol with its full payload.
  EXPECT_GE(ops_after - ops_before, 1u)
      << "expected protocol " << to_string(c.expected);
  EXPECT_GE(bytes_after - bytes_before, c.bytes);
  EXPECT_EQ(landed, c.bytes) << "first byte that did not land";
}

constexpr std::size_t kSmall = 1024;
constexpr std::size_t kLarge = 1u << 20;

INSTANTIATE_TEST_SUITE_P(
    SectionIII, EnhancedProtocolSelection,
    ::testing::Values(
        // ---- intra-node (Figs 2, 3) ----
        ProtoExpect{true, false, Domain::kHost, kSmall, true, kSameSocket, kFromHost, Protocol::kHostShm},
        ProtoExpect{true, false, Domain::kGpu, kSmall, true, kSameSocket, kFromHost, Protocol::kLoopbackGdr},
        ProtoExpect{true, false, Domain::kGpu, kLarge, true, kSameSocket, kFromHost, Protocol::kIpcCopy},
        ProtoExpect{true, true, Domain::kHost, kSmall, true, kSameSocket, kFromHost, Protocol::kLoopbackGdr},
        ProtoExpect{true, true, Domain::kHost, kLarge, true, kSameSocket, kFromHost, Protocol::kShmemPtrCopy},
        ProtoExpect{true, true, Domain::kGpu, kSmall, true, kSameSocket, kFromHost, Protocol::kLoopbackGdr},
        ProtoExpect{true, true, Domain::kGpu, kLarge, true, kSameSocket, kFromHost, Protocol::kIpcCopy},
        ProtoExpect{true, false, Domain::kGpu, kSmall, false, kSameSocket, kFromHost, Protocol::kLoopbackGdr},
        ProtoExpect{true, false, Domain::kGpu, kLarge, false, kSameSocket, kFromHost, Protocol::kIpcCopy},
        ProtoExpect{true, true, Domain::kHost, kLarge, false, kSameSocket, kFromHost, Protocol::kShmemPtrCopy},
        // ---- inter-node (Figs 4, 5) ----
        ProtoExpect{false, false, Domain::kHost, kSmall, true, kSameSocket, kFromHost, Protocol::kDirectRdma},
        ProtoExpect{false, true, Domain::kGpu, kSmall, true, kSameSocket, kFromHost, Protocol::kDirectGdr},
        ProtoExpect{false, true, Domain::kGpu, kLarge, true, kSameSocket, kFromHost, Protocol::kPipelineGdrWrite},
        ProtoExpect{false, true, Domain::kHost, kLarge, true, kSameSocket, kFromHost, Protocol::kPipelineGdrWrite},
        ProtoExpect{false, false, Domain::kGpu, kSmall, true, kSameSocket, kFromHost, Protocol::kDirectGdr},
        ProtoExpect{false, false, Domain::kGpu, kLarge, true, kSameSocket, kFromHost, Protocol::kDirectGdr},
        ProtoExpect{false, true, Domain::kGpu, kSmall, false, kSameSocket, kFromHost, Protocol::kDirectGdr},
        ProtoExpect{false, true, Domain::kGpu, kLarge, false, kSameSocket, kFromHost, Protocol::kProxyGet},
        ProtoExpect{false, false, Domain::kGpu, kLarge, false, kSameSocket, kFromHost, Protocol::kProxyGet},
        ProtoExpect{false, true, Domain::kHost, kLarge, false, kSameSocket, kFromHost, Protocol::kDirectGdr},
        // ---- inter-node, HCA and GPU on different sockets (Table III) ----
        ProtoExpect{false, true, Domain::kGpu, kLarge, true, kCrossSocket, kFromHost, Protocol::kProxyPut},
        ProtoExpect{false, false, Domain::kGpu, kLarge, true, kCrossSocket, kFromHost, Protocol::kProxyPut},
        ProtoExpect{false, true, Domain::kHost, kLarge, false, kCrossSocket, kFromHost, Protocol::kHostStagedGet}),
    proto_case_name);

// The same shapes issued from a GPU-IB kernel: intra-node and small
// inter-node ops take the host's protocol; large inter-node ones are
// offloaded to the proxy, which counts them under proxy-put and proxy-get.
INSTANTIATE_TEST_SUITE_P(
    GpuIb, EnhancedProtocolSelection,
    ::testing::Values(
        // ---- intra-node ----
        ProtoExpect{true, false, Domain::kHost, kSmall, true, kSameSocket, kFromKernel, Protocol::kHostShm},
        ProtoExpect{true, false, Domain::kGpu, kSmall, true, kSameSocket, kFromKernel, Protocol::kLoopbackGdr},
        ProtoExpect{true, false, Domain::kGpu, kLarge, true, kSameSocket, kFromKernel, Protocol::kIpcCopy},
        ProtoExpect{true, true, Domain::kHost, kSmall, true, kSameSocket, kFromKernel, Protocol::kLoopbackGdr},
        ProtoExpect{true, true, Domain::kHost, kLarge, true, kSameSocket, kFromKernel, Protocol::kShmemPtrCopy},
        ProtoExpect{true, true, Domain::kGpu, kSmall, true, kSameSocket, kFromKernel, Protocol::kLoopbackGdr},
        ProtoExpect{true, true, Domain::kGpu, kLarge, true, kSameSocket, kFromKernel, Protocol::kIpcCopy},
        ProtoExpect{true, false, Domain::kGpu, kSmall, false, kSameSocket, kFromKernel, Protocol::kLoopbackGdr},
        ProtoExpect{true, false, Domain::kGpu, kLarge, false, kSameSocket, kFromKernel, Protocol::kIpcCopy},
        ProtoExpect{true, true, Domain::kHost, kLarge, false, kSameSocket, kFromKernel, Protocol::kShmemPtrCopy},
        // ---- inter-node, small: one direct posting ----
        ProtoExpect{false, false, Domain::kHost, kSmall, true, kSameSocket, kFromKernel, Protocol::kDirectRdma},
        ProtoExpect{false, true, Domain::kGpu, kSmall, true, kSameSocket, kFromKernel, Protocol::kDirectGdr},
        ProtoExpect{false, false, Domain::kGpu, kSmall, true, kSameSocket, kFromKernel, Protocol::kDirectGdr},
        ProtoExpect{false, true, Domain::kGpu, kSmall, false, kSameSocket, kFromKernel, Protocol::kDirectGdr},
        // ---- inter-node, large: offloaded to the proxy ----
        ProtoExpect{false, true, Domain::kGpu, kLarge, true, kSameSocket, kFromKernel, Protocol::kProxyPut},
        ProtoExpect{false, true, Domain::kHost, kLarge, true, kSameSocket, kFromKernel, Protocol::kProxyPut},
        ProtoExpect{false, false, Domain::kGpu, kLarge, true, kSameSocket, kFromKernel, Protocol::kProxyPut},
        ProtoExpect{false, true, Domain::kGpu, kLarge, false, kSameSocket, kFromKernel, Protocol::kProxyGet},
        ProtoExpect{false, false, Domain::kGpu, kLarge, false, kSameSocket, kFromKernel, Protocol::kProxyGet},
        ProtoExpect{false, true, Domain::kHost, kLarge, false, kSameSocket, kFromKernel, Protocol::kProxyGet}),
    proto_case_name);

TEST(ProtocolSelection, InterSocketLargePutUsesProxy) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  Runtime rt(make_cluster(2, 2, /*same_socket=*/false), opts);
  rt.run([&](Ctx& ctx) {
    void* g = ctx.shmalloc(1u << 20, Domain::kGpu);
    std::vector<std::byte> host_src(1u << 20);
    if (ctx.my_pe() == 0) {
      ctx.putmem(g, host_src.data(), 1u << 20, 2);  // H-D large, inter-socket
      ctx.quiet();
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt.stats().ops(Protocol::kProxyPut), 1u);
  EXPECT_EQ(rt.proxy(1).puts_served(), 1u);
}

TEST(ProtocolSelection, InterSocketShrinksGdrWindow) {
  // 8 KB D-D put: direct GDR intra-socket, but beyond the shrunken window
  // inter-socket (32 KB / 4 = 8 KB limit still allows 8 KB; use 16 KB).
  auto run_cfg = [](bool same_socket) {
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    Runtime rt(make_cluster(2, 2, same_socket), opts);
    rt.run([&](Ctx& ctx) {
      void* g = ctx.shmalloc(16 * 1024, Domain::kGpu);
      void* local = ctx.cuda_malloc(16 * 1024);
      if (ctx.my_pe() == 0) {
        ctx.putmem(g, local, 16 * 1024, 2);
        ctx.quiet();
      }
      ctx.barrier_all();
    });
    return std::pair{rt.stats().ops(Protocol::kDirectGdr),
                     rt.stats().ops(Protocol::kPipelineGdrWrite) +
                         rt.stats().ops(Protocol::kProxyPut)};
  };
  auto [direct_intra, staged_intra] = run_cfg(true);
  EXPECT_EQ(direct_intra, 1u);
  EXPECT_EQ(staged_intra, 0u);
  auto [direct_inter, staged_inter] = run_cfg(false);
  EXPECT_EQ(direct_inter, 0u);
  EXPECT_EQ(staged_inter, 1u);
}

TEST(ProtocolSelection, ProxyDisabledFallsBackToDirect) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.tuning.use_proxy = false;
  Runtime rt(make_cluster(2, 1), opts);
  rt.run([&](Ctx& ctx) {
    void* g = ctx.shmalloc(1u << 20, Domain::kGpu);
    void* local = ctx.cuda_malloc(1u << 20);
    if (ctx.my_pe() == 0) {
      // Registered first, or the get would stage while it registers.
      ctx.runtime().verbs().reg_cache().get_or_register(ctx.proc(), 0, local,
                                                        1u << 20);
      ctx.getmem(local, g, 1u << 20, 1);  // large D-D get
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt.stats().ops(Protocol::kProxyGet), 0u);
  EXPECT_EQ(rt.stats().ops(Protocol::kDirectGdr), 1u);
}

// ---------------------------------------------------------------------------
// Latency calibration: the bands the paper reports (Section V-B).

struct LatencyProbe {
  double put_us = 0;  // put+quiet, measured over iterations
};

double measure_put_us(TransportKind kind, bool intra, bool local_dev,
                      Domain remote, std::size_t bytes, int iters = 50) {
  RuntimeOptions opts = make_options(kind);
  Runtime rt(make_cluster(2, 2), opts);
  const int target = intra ? 1 : 2;
  sim::Duration elapsed;
  rt.run([&](Ctx& ctx) {
    void* sym = ctx.shmalloc(bytes, remote);
    std::vector<std::byte> host_local(bytes);
    void* local = host_local.data();
    if (local_dev) local = ctx.cuda_malloc(bytes);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      // Warmup (registration, IPC opens).
      for (int i = 0; i < 5; ++i) {
        ctx.putmem(sym, local, bytes, target);
        ctx.quiet();
      }
      sim::Time t0 = ctx.now();
      for (int i = 0; i < iters; ++i) {
        ctx.putmem(sym, local, bytes, target);
        ctx.quiet();
      }
      elapsed = ctx.now() - t0;
    }
    ctx.barrier_all();
  });
  return elapsed.to_us() / iters;
}

TEST(Calibration, IntraNodeHdPutSmall) {
  // Paper: 2.4 us GDR vs 6.2 us IPC default for 4 B.
  double enhanced = measure_put_us(TransportKind::kEnhancedGdr, true, false,
                                   Domain::kGpu, 4);
  double baseline = measure_put_us(TransportKind::kHostPipeline, true, false,
                                   Domain::kGpu, 4);
  EXPECT_GT(enhanced, 1.2);
  EXPECT_LT(enhanced, 3.4);
  EXPECT_GT(baseline, 4.5);
  EXPECT_LT(baseline, 8.5);
  EXPECT_GT(baseline / enhanced, 2.0);  // the paper's >2x claim
}

TEST(Calibration, InterNodeDdPutSmall) {
  // Paper: 3.13 us direct GDR vs 20.9 us host pipeline for 8 B — 7x.
  double enhanced = measure_put_us(TransportKind::kEnhancedGdr, false, true,
                                   Domain::kGpu, 8);
  double baseline = measure_put_us(TransportKind::kHostPipeline, false, true,
                                   Domain::kGpu, 8);
  EXPECT_GT(enhanced, 2.0);
  EXPECT_LT(enhanced, 4.5);
  EXPECT_GT(baseline, 14.0);
  EXPECT_LT(baseline, 28.0);
  EXPECT_GT(baseline / enhanced, 4.5);
}

TEST(Calibration, InterNodeDd2KBUnder4us) {
  // Paper: "a 2KB message size transfer is achieved in under 4 us".
  double enhanced = measure_put_us(TransportKind::kEnhancedGdr, false, true,
                                   Domain::kGpu, 2048);
  EXPECT_LT(enhanced, 4.5);
}

TEST(Calibration, InterNodeHdPutSmall) {
  // Paper: 2.81 us for 8 B inter-node H-D put; 4 KB in 3.7 us.
  double small = measure_put_us(TransportKind::kEnhancedGdr, false, false,
                                Domain::kGpu, 8);
  double mid = measure_put_us(TransportKind::kEnhancedGdr, false, false,
                              Domain::kGpu, 4096);
  EXPECT_GT(small, 1.8);
  EXPECT_LT(small, 4.0);
  EXPECT_LT(mid, 5.5);
}

TEST(Calibration, IntraNodeDhLargePut40PercentWin) {
  // Paper Fig 7(b): shmem_ptr design reduces large D-H put latency ~40%.
  double enhanced = measure_put_us(TransportKind::kEnhancedGdr, true, true,
                                   Domain::kHost, 1u << 20, 10);
  double baseline = measure_put_us(TransportKind::kHostPipeline, true, true,
                                   Domain::kHost, 1u << 20, 10);
  double reduction = 1.0 - enhanced / baseline;
  EXPECT_GT(reduction, 0.25);
  EXPECT_LT(reduction, 0.60);
}

TEST(Calibration, InterNodeLargePutConverges) {
  // Paper Fig 8(b): for large D-D puts both designs pipeline through
  // cudaMemcpy and should land close together.
  double enhanced = measure_put_us(TransportKind::kEnhancedGdr, false, true,
                                   Domain::kGpu, 4u << 20, 5);
  double baseline = measure_put_us(TransportKind::kHostPipeline, false, true,
                                   Domain::kGpu, 4u << 20, 5);
  EXPECT_LT(std::abs(enhanced - baseline) / baseline, 0.35);
}

}  // namespace
}  // namespace gdrshmem::core
