// Unit tests for the CUDA-like runtime: UVA classification, memcpy
// functional + timing behaviour, streams, IPC, and kernels.
#include "cudart/cudart.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

namespace gdrshmem::cudart {
namespace {

struct Fixture {
  hw::ClusterConfig cfg;
  sim::Engine eng;
  hw::Cluster cluster;
  CudaRuntime cuda;

  explicit Fixture(int nodes = 2)
      : cfg([nodes] {
          hw::ClusterConfig c;
          c.num_nodes = nodes;
          c.pes_per_node = 2;
          return c;
        }()),
        cluster(cfg),
        cuda(eng, cluster) {}
};

TEST(PointerRegistry, QueryClassifiesRanges) {
  PointerRegistry reg;
  alignas(8) static std::byte arena[256];
  reg.insert(arena, 128, /*node=*/1, /*device=*/0);
  auto mid = reg.query(arena + 64);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->node, 1);
  EXPECT_EQ(mid->alloc_base, arena);
  EXPECT_EQ(mid->alloc_size, 128u);
  EXPECT_FALSE(reg.query(arena + 128).has_value());  // one-past-end is host
  EXPECT_FALSE(reg.query(nullptr).has_value());
  reg.erase(arena);
  EXPECT_FALSE(reg.query(arena).has_value());
}

TEST(PointerRegistry, RejectsOverlap) {
  PointerRegistry reg;
  static std::byte arena[256];
  reg.insert(arena, 128, 0, 0);
  EXPECT_THROW(reg.insert(arena + 64, 16, 0, 0), CudaError);
  EXPECT_THROW(reg.insert(arena, 128, 0, 0), CudaError);
  EXPECT_THROW(reg.erase(arena + 4), CudaError);
}

TEST(CudaRuntime, MallocRegistersUva) {
  Fixture f;
  void* d = f.cuda.malloc_device(1, 1, 4096);
  PtrAttr a = f.cuda.attributes(d);
  EXPECT_EQ(a.space, MemSpace::kDevice);
  EXPECT_EQ(a.node, 1);
  EXPECT_EQ(a.device, 1);
  int host_var = 0;
  EXPECT_EQ(f.cuda.attributes(&host_var).space, MemSpace::kHost);
  f.cuda.free_device(d);
  EXPECT_EQ(f.cuda.attributes(d).space, MemSpace::kHost);
  EXPECT_THROW(f.cuda.free_device(d), CudaError);
}

TEST(CudaRuntime, MallocValidatesArguments) {
  Fixture f;
  EXPECT_THROW(f.cuda.malloc_device(-1, 0, 16), CudaError);
  EXPECT_THROW(f.cuda.malloc_device(0, 99, 16), CudaError);
  EXPECT_THROW(f.cuda.malloc_device(0, 0, 0), CudaError);
}

TEST(CudaRuntimeDeathTest, WritePastPageRoundedEndHitsGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture f;
  auto* d = static_cast<volatile char*>(f.cuda.malloc_device(0, 0, 100));
  d[99] = 1;  // the last requested byte is writable
  EXPECT_DEATH(d[::sysconf(_SC_PAGESIZE)] = 1, "");
}

TEST(CudaRuntime, MemcpyMovesBytesAndChargesTime) {
  Fixture f;
  void* d = f.cuda.malloc_device(0, 0, 1024);
  std::vector<std::byte> host(1024);
  std::iota(reinterpret_cast<unsigned char*>(host.data()),
            reinterpret_cast<unsigned char*>(host.data()) + 1024, 0);
  sim::Time h2d_done;
  f.eng.spawn("pe", [&](sim::Process& p) {
    f.cuda.memcpy_sync(p, 0, d, host.data(), 1024);
    h2d_done = f.eng.now();
    std::vector<std::byte> back(1024);
    f.cuda.memcpy_sync(p, 0, back.data(), d, 1024);
    EXPECT_EQ(std::memcmp(back.data(), host.data(), 1024), 0);
  });
  f.eng.run();
  // H2D of 1 KB: launch overhead dominates; must be > 5 us and < 10 us.
  EXPECT_GT(h2d_done.to_us(), 5.0);
  EXPECT_LT(h2d_done.to_us(), 10.0);
}

TEST(CudaRuntime, HostCopiesRunOnTheCallersNode) {
  // Processes on two nodes copy 4 MiB host to host at the same instant:
  // each copy loads only its own node's memory, so both end when one copy
  // alone would.
  Fixture f;
  constexpr std::size_t n = 4u << 20;
  std::vector<std::byte> src(n, std::byte{7});
  std::vector<std::byte> dst[2] = {std::vector<std::byte>(n),
                                   std::vector<std::byte>(n)};
  sim::Time end[2];
  for (int node : {0, 1}) {
    f.eng.spawn("pe" + std::to_string(node), [&, node](sim::Process& p) {
      f.cuda.memcpy_sync(p, node, dst[node].data(), src.data(), n);
      end[node] = f.eng.now();
    });
  }
  f.eng.run();
  const hw::SystemParams& prm = f.cfg.params;
  const double alone_us = prm.host_memcpy_overhead_us +
                          static_cast<double>(n) / prm.host_memcpy_bw_mbps;
  EXPECT_NEAR(end[0].to_us(), alone_us, 0.01);
  EXPECT_EQ(end[0], end[1]);
  EXPECT_EQ(dst[1], src);
}

TEST(CudaRuntime, MemcpyCrossNodeDeviceToDeviceThrows) {
  Fixture f;
  void* d0 = f.cuda.malloc_device(0, 0, 64);
  void* d1 = f.cuda.malloc_device(1, 0, 64);
  bool threw = false;
  f.eng.spawn("pe", [&](sim::Process& p) {
    try {
      f.cuda.memcpy_sync(p, 0, d1, d0, 64);
    } catch (const CudaError&) {
      threw = true;
    }
  });
  f.eng.run();
  EXPECT_TRUE(threw);
}

TEST(CudaRuntime, LargeCopyTimeScalesWithSize) {
  Fixture f;
  void* d = f.cuda.malloc_device(0, 0, 8u << 20);
  std::vector<std::byte> host(8u << 20);
  sim::Time t_small, t_large;
  f.eng.spawn("pe", [&](sim::Process& p) {
    sim::Time start = f.eng.now();
    f.cuda.memcpy_sync(p, 0, d, host.data(), 1u << 20);
    t_small = f.eng.now();
    f.cuda.memcpy_sync(p, 0, d, host.data(), 8u << 20);
    t_large = f.eng.now();
    (void)start;
  });
  f.eng.run();
  double small_us = t_small.to_us();
  double large_us = (t_large - t_small).to_us();
  // Serialization: bytes / (10'000 MB/s) plus ~6 us launch+hop overhead.
  double overhead = f.cfg.params.cuda_copy_launch_us + f.cfg.params.pcie_hop_latency_us;
  EXPECT_NEAR(small_us, (1u << 20) / 10000.0 + overhead, 1.0);
  EXPECT_NEAR(large_us, (8u << 20) / 10000.0 + overhead, 1.0);
}

TEST(CudaRuntime, AsyncStreamOrdering) {
  Fixture f;
  void* d = f.cuda.malloc_device(0, 0, 256);
  std::vector<std::byte> a(256, std::byte{1}), b(256, std::byte{2});
  Stream s(0, 0);
  f.eng.spawn("pe", [&](sim::Process& p) {
    auto e1 = f.cuda.memcpy_async(d, a.data(), 256, s);
    auto e2 = f.cuda.memcpy_async(d, b.data(), 256, s);
    EXPECT_FALSE(e1->done(f.eng));
    e2->synchronize(p);
    EXPECT_TRUE(e1->done(f.eng));  // stream order: e1 before e2
    EXPECT_EQ(static_cast<const std::byte*>(d)[0], std::byte{2});
  });
  f.eng.run();
}

TEST(CudaRuntime, IpcHandleRoundTrip) {
  Fixture f;
  void* d = f.cuda.malloc_device(0, 1, 512);
  IpcHandle h = f.cuda.ipc_get_handle(d);
  EXPECT_EQ(h.len, 512u);
  sim::Time first_open, second_open_cost_start, second_open_done;
  f.eng.spawn("pe", [&](sim::Process& p) {
    void* mapped = f.cuda.ipc_open_handle(p, h, /*opener_node=*/0, /*opener_pe=*/1);
    EXPECT_EQ(mapped, d);
    first_open = f.eng.now();
    second_open_cost_start = f.eng.now();
    // Second open by the same PE is cached: free.
    f.cuda.ipc_open_handle(p, h, 0, 1);
    second_open_done = f.eng.now();
  });
  f.eng.run();
  EXPECT_GT(first_open.to_us(), 50.0);  // one-time mapping cost
  EXPECT_EQ(second_open_done, second_open_cost_start);
}

TEST(CudaRuntime, IpcCrossNodeRejected) {
  Fixture f;
  void* d = f.cuda.malloc_device(0, 0, 64);
  IpcHandle h = f.cuda.ipc_get_handle(d);
  bool threw = false;
  f.eng.spawn("pe", [&](sim::Process& p) {
    try {
      f.cuda.ipc_open_handle(p, h, /*opener_node=*/1, /*opener_pe=*/2);
    } catch (const CudaError&) {
      threw = true;
    }
  });
  f.eng.run();
  EXPECT_TRUE(threw);
}

TEST(CudaRuntime, IpcHandleRequiresAllocationBase) {
  Fixture f;
  void* d = f.cuda.malloc_device(0, 0, 128);
  EXPECT_THROW(f.cuda.ipc_get_handle(static_cast<std::byte*>(d) + 8), CudaError);
  int host_var;
  EXPECT_THROW(f.cuda.ipc_get_handle(&host_var), CudaError);
}

TEST(CudaRuntime, KernelChargesPerCellCost) {
  Fixture f;
  int ran = 0;
  sim::Time done;
  f.eng.spawn("pe", [&](sim::Process& p) {
    f.cuda.launch_kernel_sync(p, /*cells=*/1000000, /*per_cell_ns=*/1.0,
                              [&] { ran = 1; });
    done = f.eng.now();
  });
  f.eng.run();
  EXPECT_EQ(ran, 1);
  // 1e6 cells * 1 ns = 1 ms plus ~6 us launch.
  EXPECT_NEAR(done.to_ms(), 1.006, 0.01);
}

TEST(CudaRuntime, AsyncKernelOverlapsWithHostDelay) {
  Fixture f;
  Stream s(0, 0);
  sim::Time done;
  f.eng.spawn("pe", [&](sim::Process& p) {
    auto ev = f.cuda.launch_kernel_async(100000, 1.0, [] {}, s);
    p.delay(sim::Duration::us(50));  // host work overlapping the kernel
    ev->synchronize(p);
    done = f.eng.now();
  });
  f.eng.run();
  // Kernel ~106 us dominates the 50 us host work: total ~106 us, not 156.
  EXPECT_NEAR(done.to_us(), 106.0, 2.0);
}

}  // namespace
}  // namespace gdrshmem::cudart
