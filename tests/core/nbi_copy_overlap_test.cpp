// Overlapped nbi intra-node copies (DESIGN §5i). An nbi op that the
// selector sends to ipc-copy or shmem-ptr-copy, and whose copy outlasts a
// copy launch, is queued on the PE's stream and completes at quiet(): the
// call returns after its API overhead, an other-node op issued next runs
// under the copy, and quiet(), fence(), barrier_all() and the device quiet
// wait for it. The bytes move at the copy's completion, which wakes the
// peer. A copy no longer than its launch still runs inside the call.
//
// Every timing here is relative to the same ops measured alone in the same
// configuration, so the suite holds on every IB QP kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;

constexpr std::size_t kBig = 4u << 20;
// PE 0's peers on 2 nodes x 2 PEs: PE 1 shares its node, PE 2 does not.
constexpr int kNear = 1;
constexpr int kFar = 2;

unsigned char pattern(int tag, std::size_t i) {
  const std::uint32_t x = static_cast<std::uint32_t>(i) * 2654435761u +
                          static_cast<std::uint32_t>(tag) * 40503u;
  return static_cast<unsigned char>(x >> 24);
}

void fill(void* p, std::size_t n, int tag) {
  auto* b = static_cast<unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) b[i] = pattern(tag, i);
}

bool holds(const void* p, std::size_t n, int tag) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    if (b[i] != pattern(tag, i)) return false;
  }
  return true;
}

/// FNV-1a over `n` bytes.
std::uint64_t digest(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

double api_overhead_us() {
  return make_cluster(2, 2).params.shmem_sw_overhead_us;
}

/// One op of a window: PE 0 moves `bytes` between a local buffer in the
/// given domain and `target`'s copy of a symmetric one.
struct Op {
  int target;
  bool local_dev;
  bool remote_dev;
  std::size_t bytes = kBig;
};

/// What PE 0 measured, in µs of virtual time: each op alone (nbi, then
/// quiet), and a window of both (the near op's call, then the far op's,
/// then quiet), with a digest of both destinations after the window.
struct Timings {
  double near_alone = 0;
  double far_alone = 0;
  double near_call = 0;
  double window = 0;
  bool bytes_ok = false;
  std::uint64_t bytes_digest = 0;
  sim::Time end;

  double longer() const { return std::max(near_alone, far_alone); }
};

Timings run_window(const RuntimeOptions& opts, bool is_get, Op near, Op far) {
  Timings t;
  Runtime rt(make_cluster(2, 2), opts);
  rt.run([&](Ctx& ctx) {
    void* sym[2] = {ctx.shmalloc(kBig, Domain::kHost),
                    ctx.shmalloc(kBig, Domain::kGpu)};
    std::vector<unsigned char> host[2] = {std::vector<unsigned char>(kBig),
                                          std::vector<unsigned char>(kBig)};
    void* dev[2] = {ctx.cuda_malloc(kBig), ctx.cuda_malloc(kBig)};
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      const Op ops[2] = {near, far};
      auto local = [&](int j) {
        return ops[j].local_dev ? dev[j] : static_cast<void*>(host[j].data());
      };
      auto remote = [&](int j) { return sym[ops[j].remote_dev ? 1 : 0]; };
      auto peer_copy = [&](int j) {
        return ctx.runtime().translate(remote(j), 0, ops[j].target,
                                       ops[j].bytes, nullptr);
      };
      auto issue = [&](int j, bool blocking) {
        const Op& op = ops[j];
        if (is_get) {
          blocking ? ctx.getmem(local(j), remote(j), op.bytes, op.target)
                   : ctx.getmem_nbi(local(j), remote(j), op.bytes, op.target);
        } else {
          blocking ? ctx.putmem(remote(j), local(j), op.bytes, op.target)
                   : ctx.putmem_nbi(remote(j), local(j), op.bytes, op.target);
        }
      };
      // Warm up: open the IPC mapping, register the host buffers.
      issue(0, true);
      issue(1, true);
      ctx.quiet();
      double* alone[2] = {&t.near_alone, &t.far_alone};
      for (int j : {0, 1}) {
        sim::Time t0 = ctx.now();
        issue(j, false);
        ctx.quiet();
        *alone[j] = (ctx.now() - t0).to_us();
      }
      for (int j : {0, 1}) fill(is_get ? peer_copy(j) : local(j), ops[j].bytes, 10 + j);
      sim::Time t0 = ctx.now();
      issue(0, false);
      t.near_call = (ctx.now() - t0).to_us();
      issue(1, false);
      ctx.quiet();
      t.window = (ctx.now() - t0).to_us();
      t.bytes_ok = true;
      t.bytes_digest = 14695981039346656037ull;
      for (int j : {0, 1}) {
        const void* dst = is_get ? local(j) : peer_copy(j);
        t.bytes_ok = t.bytes_ok && holds(dst, ops[j].bytes, 10 + j);
        t.bytes_digest = digest(dst, ops[j].bytes, t.bytes_digest);
      }
    }
    ctx.barrier_all();
  });
  t.end = rt.engine().now();
  return t;
}

/// The window's nbi call returned after its API overhead, and quiet()
/// ended with the longer of the two ops, not after both in turn.
void expect_overlap(const Timings& t) {
  EXPECT_TRUE(t.bytes_ok);
  EXPECT_DOUBLE_EQ(t.near_call, api_overhead_us());
  EXPECT_GT(t.near_alone, 400.0) << "4 MiB at 9-10 GB/s";
  EXPECT_GE(t.window, 0.99 * t.longer());
  EXPECT_LE(t.window, 1.01 * t.longer() + t.near_call);
  EXPECT_LT(t.window, 0.8 * (t.near_alone + t.far_alone));
}

TEST(NbiCopyOverlap, DeviceToDevicePutRunsUnderAnOtherNodePut) {
  // The other-node put has a host source, so none of its links is the
  // source GPU's PCIe slot that the copy holds (DESIGN §6).
  expect_overlap(run_window(make_options(TransportKind::kEnhancedGdr),
                            /*is_get=*/false, {kNear, true, true},
                            {kFar, false, true}));
}

TEST(NbiCopyOverlap, GetIntoDeviceRunsUnderAnOtherNodeGet) {
  expect_overlap(run_window(make_options(TransportKind::kEnhancedGdr),
                            /*is_get=*/true, {kNear, true, true},
                            {kFar, false, true}));
}

TEST(NbiCopyOverlap, HostPipelineDeviceCopyRunsUnderAnOtherNodePut) {
  // The one-step executor is shared: the baseline's IPC copy overlaps too.
  expect_overlap(run_window(make_options(TransportKind::kHostPipeline),
                            /*is_get=*/false, {kNear, true, true},
                            {kFar, false, false}));
}

TEST(NbiCopyOverlap, CopyNoLongerThanItsLaunchRunsInTheCall) {
  // 16 KiB D-D at 9,000 MB/s serializes in 1.8 µs, under the 5.4 µs
  // launch: the call holds the copy, quiet() has nothing of it to wait
  // for, and the other-node put starts after it.
  Timings t = run_window(make_options(TransportKind::kEnhancedGdr),
                         /*is_get=*/false, {kNear, true, true, 16u << 10},
                         {kFar, false, true});
  EXPECT_TRUE(t.bytes_ok);
  EXPECT_DOUBLE_EQ(t.near_call, t.near_alone);
  EXPECT_GT(t.near_call, api_overhead_us() +
                             make_cluster(2, 2).params.cuda_copy_launch_us);
  EXPECT_GE(t.window, 0.99 * (t.near_call + t.far_alone));
}

TEST(NbiCopyOverlap, LaunchRuleSplitsAtTheCopyLaunch) {
  // Serialization against the 5.4 µs launch: D-D at 9,000 MB/s crosses it
  // between 47 and 48 KiB, D->H at 10,000 MB/s between 52 and 53 KiB.
  const RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  const Op small_far{kFar, false, false, 4096};
  struct Case {
    bool is_get;
    bool local_dev;
    std::size_t kib;
    bool overlapped;
  };
  for (const Case& c : {Case{false, true, 47, false}, Case{false, true, 48, true},
                        Case{true, false, 52, false}, Case{true, false, 53, true}}) {
    SCOPED_TRACE((c.is_get ? "get " : "put ") + std::to_string(c.kib) + " KiB");
    Timings t = run_window(opts, c.is_get,
                           {kNear, c.local_dev, true, c.kib << 10}, small_far);
    EXPECT_TRUE(t.bytes_ok);
    if (c.overlapped) {
      EXPECT_DOUBLE_EQ(t.near_call, api_overhead_us());
    } else {
      EXPECT_DOUBLE_EQ(t.near_call, t.near_alone);
    }
  }
}

TEST(NbiCopyOverlap, QuietFenceAndBarrierCompleteTheDestination) {
  enum class Sync { kQuiet, kFence, kBarrier };
  for (Sync sync : {Sync::kQuiet, Sync::kFence, Sync::kBarrier}) {
    SCOPED_TRACE(static_cast<int>(sync));
    bool landed = false;
    Runtime rt(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr));
    rt.run([&](Ctx& ctx) {
      void* dst = ctx.shmalloc(kBig, Domain::kGpu);
      void* src = ctx.cuda_malloc(kBig);
      fill(src, kBig, 3);
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        ctx.putmem_nbi(dst, src, kBig, kNear);
        const void* peer = ctx.runtime().translate(dst, 0, kNear, kBig, nullptr);
        EXPECT_FALSE(holds(peer, kBig, 3)) << "bytes move at the copy's end";
        if (sync == Sync::kQuiet) ctx.quiet();
        if (sync == Sync::kFence) ctx.fence();
        if (sync == Sync::kQuiet || sync == Sync::kFence) {
          landed = holds(peer, kBig, 3);
        }
      }
      if (sync == Sync::kBarrier) {
        ctx.barrier_all();
        if (ctx.my_pe() == kNear) landed = holds(dst, kBig, 3);
      }
      ctx.barrier_all();
    });
    EXPECT_TRUE(landed);
  }
}

TEST(NbiCopyOverlap, PeerWaitingOnTheLastWordWakesAtTheCopy) {
  // PE 0 computes for 2 ms after the nbi put, entering no runtime call;
  // PE 1 must wake when the copy lands, not when PE 0 next progresses.
  double copy_us = 0;
  double woke_us = 0;
  bool complete = false;
  Runtime rt(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr));
  rt.run([&](Ctx& ctx) {
    auto* dst = static_cast<unsigned char*>(ctx.shmalloc(kBig, Domain::kGpu));
    void* src = ctx.cuda_malloc(kBig);
    fill(src, kBig, 4);
    std::uint64_t last = 0;
    std::memcpy(&last, static_cast<unsigned char*>(src) + kBig - 8, 8);
    if (ctx.my_pe() == 0) {  // open the IPC mapping, then time the copy
      ctx.putmem(dst, src, kBig, kNear);
      sim::Time t0 = ctx.now();
      ctx.putmem(dst, src, kBig, kNear);
      copy_us = (ctx.now() - t0).to_us();
      std::memset(ctx.runtime().translate(dst, 0, kNear, kBig, nullptr), 0,
                  kBig);
    }
    ctx.barrier_all();
    const sim::Time t0 = ctx.now();
    if (ctx.my_pe() == 0) {
      ctx.putmem_nbi(dst, src, kBig, kNear);
      ctx.compute(sim::Duration::us(2000));
      ctx.quiet();
    } else if (ctx.my_pe() == kNear) {
      ctx.wait_until(reinterpret_cast<const std::uint64_t*>(dst + kBig - 8),
                     Cmp::kEq, last);
      woke_us = (ctx.now() - t0).to_us();
      complete = holds(dst, kBig, 4);
    }
    ctx.barrier_all();
  });
  EXPECT_TRUE(complete);
  EXPECT_GT(woke_us, 0.9 * copy_us);
  EXPECT_LT(woke_us, copy_us + 10.0);
}

TEST(NbiCopyOverlap, DeviceQuietWaitsForTheCopy) {
  // A GPU-IB kernel's nbi put takes the host executor too: the call costs
  // its WQE and doorbell, the device quiet waits for the copy.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.device_backend = DeviceBackendKind::kGpuIb;
  double call_us = 0;
  double quiet_us = 0;
  bool landed = false;
  Runtime rt(make_cluster(2, 2), opts);
  rt.run([&](Ctx& ctx) {
    void* dst = ctx.shmalloc(kBig, Domain::kGpu);
    void* src = ctx.cuda_malloc(kBig);
    fill(src, kBig, 5);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      const void* peer = ctx.runtime().translate(dst, 0, kNear, kBig, nullptr);
      ctx.launch_kernel_device(1.0, DeviceScope::kThread, [&](DeviceCtx& d) {
        d.putmem(dst, src, 64u << 10, kNear);  // opens the IPC mapping
        sim::Time t0 = ctx.now();
        d.putmem_nbi(dst, src, kBig, kNear);
        call_us = (ctx.now() - t0).to_us();
        d.quiet();
        quiet_us = (ctx.now() - t0).to_us();
        landed = holds(peer, kBig, 5);
      });
    }
    ctx.barrier_all();
  });
  const hw::SystemParams p = make_cluster(2, 2).params;
  EXPECT_DOUBLE_EQ(call_us, p.gpu_wqe_build_us + p.gpu_doorbell_us);
  EXPECT_GT(quiet_us, static_cast<double>(kBig) / p.pcie_gpu_peer_bw_mbps);
  EXPECT_TRUE(landed);
}

TEST(NbiCopyOverlap, SameOnBothEngineBackends) {
  Timings runs[2];
  int i = 0;
  for (sim::BackendKind b : {sim::BackendKind::kFibers, sim::BackendKind::kThreads}) {
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    opts.sim_backend = b;
    runs[i++] = run_window(opts, /*is_get=*/true, {kNear, true, true},
                           {kFar, false, true});
  }
  EXPECT_TRUE(runs[0].bytes_ok);
  EXPECT_EQ(runs[0].bytes_digest, runs[1].bytes_digest);
  EXPECT_EQ(runs[0].end, runs[1].end);
  EXPECT_EQ(runs[0].near_alone, runs[1].near_alone);
  EXPECT_EQ(runs[0].far_alone, runs[1].far_alone);
  EXPECT_EQ(runs[0].window, runs[1].window);
}

// ---- what limits the overlap (DESIGN §6) ---------------------------------

TEST(HalfDuplexLinks, OppositeHostPutsShareTheHcaPort) {
  // Each HCA port is one FIFO link that both directions reserve, so two
  // 4 MiB puts issued at once in opposite directions serialize: the second
  // finishes one 655.7 µs serialization after the first.
  double done[2][2] = {};
  for (bool both : {false, true}) {
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    opts.ib_transport = ib::QpKind::kRc;
    Runtime rt(make_cluster(2, 1), opts);
    rt.run([&](Ctx& ctx) {
      void* dst = ctx.shmalloc(kBig, Domain::kHost);
      void* src = ctx.shmalloc(kBig, Domain::kHost);
      ctx.barrier_all();
      const int me = ctx.my_pe();
      if (both || me == 0) {
        sim::Time t0 = ctx.now();
        ctx.putmem(dst, src, kBig, 1 - me);
        ctx.quiet();
        done[both][me] = (ctx.now() - t0).to_us();
      }
      ctx.barrier_all();
    });
  }
  EXPECT_NEAR(done[false][0], 658.0, 0.05);
  EXPECT_NEAR(std::min(done[true][0], done[true][1]), 658.0, 0.05);
  EXPECT_NEAR(std::max(done[true][0], done[true][1]), 1313.7, 0.05);
}

TEST(HalfDuplexLinks, OppositeCopiesShareTheGpuPcieSlot) {
  // A GPU's PCIe slot is one FIFO link too: an H->D and a D->H copy of
  // 4 MiB on one GPU, queued on two streams at once, run one after the
  // other (4 MiB at 10,000 MB/s is 419.4 µs).
  double done[2] = {};
  Runtime rt(make_cluster(1, 1), make_options(TransportKind::kEnhancedGdr));
  rt.run([&](Ctx& ctx) {
    void* dev[2] = {ctx.cuda_malloc(kBig), ctx.cuda_malloc(kBig)};
    std::vector<unsigned char> host[2] = {std::vector<unsigned char>(kBig),
                                          std::vector<unsigned char>(kBig)};
    cudart::CudaRuntime& cuda = ctx.runtime().cuda();
    cudart::Stream other(ctx.stream().node(), ctx.stream().gpu());
    sim::Time t0 = ctx.now();
    auto h2d = cuda.memcpy_async(dev[0], host[0].data(), kBig, ctx.stream());
    auto d2h = cuda.memcpy_async(host[1].data(), dev[1], kBig, other);
    h2d->synchronize(ctx.proc());
    done[0] = (ctx.now() - t0).to_us();
    d2h->synchronize(ctx.proc());
    done[1] = (ctx.now() - t0).to_us();
  });
  const hw::SystemParams p = make_cluster(1, 1).params;
  const double ser = static_cast<double>(kBig) / p.pcie_h2d_bw_mbps;
  const double lat = p.cuda_copy_launch_us + p.pcie_hop_latency_us;
  EXPECT_NEAR(done[0], ser + lat, 0.01);
  EXPECT_NEAR(done[1], 2 * ser + lat, 0.01);
}

}  // namespace
}  // namespace gdrshmem::core
