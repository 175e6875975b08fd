// The staging ring (DESIGN §5e). Every staged protocol streams chunks of
// Tuning::pipeline_chunk bytes through a StagingRing of kStagingSlots
// slots: its PE's or its proxy's, each slot with its own CUDA stream. The
// chunk sets how long a pipeline takes to fill (the first chunk's copy
// before the wire starts) and to drain (the last chunk's copy after it
// ends); the ring sets the bytes in flight. So the default chunk is the
// smallest power of two whose wire time covers a copy launch, single staged
// ops pay one short chunk at each end, a staged put's copies overlap their
// launches, a get whose copy-outs queue behind a same-node copy on the GPU's
// PCIe slot still keeps the wire busy, and a pull overlaps its consecutive
// reads. Also: a ring's pages are committed only when its PE first stages, a
// proxy's ring is exactly ring-sized, the host pipeline's whole-message
// bounce neither moves the ring nor waits for its chunks, a restarted proxy's
// ring holds no chunk record of the transfer it lost, and its next transfer,
// a get, a put or a kernel's get, lands every byte over the lost one's
// copies still in flight. Every case checks every byte; the timing cases pin
// themselves to rc.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "core/proxy.hpp"
#include "core/tuning.hpp"
#include "hw/topology.hpp"
#include "ib/verbs.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

/// A byte pattern that differs between offsets a chunk apart, so a chunk
/// copied from or into the wrong slot shows.
unsigned char pattern(int tag, std::size_t i) {
  const std::uint32_t x = static_cast<std::uint32_t>(i) * 2654435761u +
                          static_cast<std::uint32_t>(tag) * 40503u;
  return static_cast<unsigned char>(x >> 24);
}

void fill(void* p, std::size_t n, int tag) {
  auto* b = static_cast<unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) b[i] = pattern(tag, i);
}

/// Index of the first byte of `p[0, n)` that differs from pattern(tag, .),
/// or n.
std::size_t first_mismatch(const void* p, std::size_t n, int tag) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    if (b[i] != pattern(tag, i)) return i;
  }
  return n;
}

RuntimeOptions rc_options() {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kRc;
  return opts;
}

TEST(StagingRing, DefaultChunkIsTheSmallestWhoseWireTimeCoversACopyLaunch) {
  // Each chunk's copy runs on its slot's stream, issued kCopyAhead chunks
  // ahead of its post, so the copies of consecutive chunks overlap their
  // launches. The pipeline stays wire-bound once a chunk's wire time covers
  // one copy launch (launch and hop); a smaller chunk only multiplies the
  // per-chunk costs. kCopyAhead is the fewest chunks whose wire time covers
  // one whole copy, so the copy a pipeline waits for has landed, and the
  // ring keeps its 512 KiB.
  hw::ClusterConfig cfg = make_cluster(1, 1);
  cfg.params = hw::SystemParams::wilkes();
  hw::Cluster cluster(cfg);
  const hw::SystemParams& p = cfg.params;
  const double launch_us = p.cuda_copy_launch_us + p.pcie_hop_latency_us;
  auto wire_us = [&](std::size_t c) {
    return static_cast<double>(c) / p.ib_bandwidth_mbps;
  };
  auto copy_us = [&](std::size_t c) {
    return std::max(cluster.cuda_h2d(0, 0).cost(c).to_us(),
                    cluster.cuda_d2h(0, 0).cost(c).to_us());
  };
  const std::size_t chunk = Tuning{}.pipeline_chunk;
  ASSERT_GT(chunk, 1u);
  EXPECT_EQ(chunk & (chunk - 1), 0u) << chunk << " is not a power of two";
  EXPECT_GE(wire_us(chunk), launch_us) << chunk;
  EXPECT_LT(wire_us(chunk / 2), launch_us) << chunk / 2;
  EXPECT_LE(copy_us(chunk), static_cast<double>(kCopyAhead) * wire_us(chunk));
  EXPECT_GT(copy_us(chunk),
            static_cast<double>(kCopyAhead - 1) * wire_us(chunk));
  EXPECT_EQ(kStagingSlots * chunk, 512u << 10);
}

/// Virtual time (µs) of one `bytes`-long inter-node D-D putmem + quiet, or
/// getmem + quiet, between the two PEs' symmetric GPU buffers, same socket
/// (put: pipeline-gdr-write, get: the proxy's reverse pipeline straight into
/// the requester's GPU), timed after one untimed warm-up op, which also
/// waits out the proxy's start-up IPC mapping.
double single_op_us(bool put, std::size_t bytes = 256u << 10) {
  double us = 0;
  auto rt = run_spmd(make_cluster(2, 1), rc_options(), [&](Ctx& ctx) {
    auto* a = static_cast<unsigned char*>(ctx.shmalloc(bytes, Domain::kGpu));
    auto* b = static_cast<unsigned char*>(ctx.shmalloc(bytes, Domain::kGpu));
    if (ctx.my_pe() == 1) fill(a, bytes, 9);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      for (int rep = 0; rep < 2; ++rep) {
        // Each put sends a pattern of its own; each get lands in a cleared
        // buffer.
        fill(a, bytes, rep);
        std::memset(b, 0, bytes);
        const sim::Time t0 = ctx.now();
        if (put) {
          ctx.putmem(b, a, bytes, 1);
        } else {
          ctx.getmem(b, a, bytes, 1);
        }
        ctx.quiet();
        us = (ctx.now() - t0).to_us();
        if (!put) {
          EXPECT_EQ(first_mismatch(b, bytes, 9), bytes) << rep;
        }
      }
    }
    ctx.barrier_all();
    if (put && ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(b, bytes, 1), bytes);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(put ? Protocol::kPipelineGdrWrite
                                : Protocol::kProxyGet),
            2u);
  return us;
}

TEST(StagingRing, SingleStagedPutFillsAndDrainsOneShortChunk) {
  // 75.5 µs with one 256 KiB chunk, 62.4 µs with two of 128 KiB, 55.8 µs
  // with four of 64 KiB copied on their slots' streams.
  EXPECT_LT(single_op_us(/*put=*/true), 70.0);
}

TEST(StagingRing, SingleProxyGetFillsAndDrainsOneShortChunk) {
  // 81.2 µs with one 256 KiB chunk, 68.1 µs with two of 128 KiB, 61.5 µs
  // with four of 64 KiB copied on their slots' streams.
  EXPECT_LT(single_op_us(/*put=*/false), 75.0);
}

TEST(StagingRing, StagedPutCopiesOverlapTheirLaunches) {
  // A 4 MiB pipeline-gdr-write copies 64 chunks D->H. Each copy runs on its
  // slot's stream while the copies of the two chunks before it land, so
  // the put is wire-bound (670.6 µs); blocking on every copy, launch
  // included, makes it copy-bound (822.8 µs), at least one whole copy per
  // chunk.
  constexpr std::size_t kBytes = 4u << 20;
  hw::ClusterConfig cfg = make_cluster(1, 1);
  hw::Cluster cluster(cfg);
  const std::size_t chunk = Tuning{}.pipeline_chunk;
  const double copy_bound_us = static_cast<double>(kBytes / chunk) *
                               cluster.cuda_d2h(0, 0).cost(chunk).to_us();
  EXPECT_LT(single_op_us(/*put=*/true, kBytes), copy_bound_us);
}

TEST(StagingRing, GetBehindASameNodeCopyKeepsTheWireBusy) {
  // bench_contention's nbi_window/get/dd/inter_socket: PE 0 of 2 nodes x 2
  // PEs, HCA and GPU on other sockets, gets 4 MiB from its same-node peer's
  // GPU (an nbi copy on its stream) and then 4 MiB from PE 2's GPU into the
  // same GPU (the staged proxy-get, whose copy-outs queue behind that copy
  // on the GPU's PCIe slot), then quiets; timed after one warm-up window.
  // 1,127.6 µs with two 256 KiB slots, 1,168.0 µs with two 128 KiB slots,
  // 1,090.2 µs with four, 1,070.7 µs with eight of 64 KiB on their own
  // streams: the bytes the ring holds while its copy-outs wait must not
  // shrink.
  constexpr std::size_t kBytes = 4u << 20;
  double window_us = 0;
  auto rt = run_spmd(make_cluster(2, 2, /*same_socket=*/false), rc_options(),
                     [&](Ctx& ctx) {
    auto* sym =
        static_cast<unsigned char*>(ctx.shmalloc(2 * kBytes, Domain::kGpu));
    auto* local = static_cast<unsigned char*>(ctx.cuda_malloc(2 * kBytes));
    const int me = ctx.my_pe();
    if (me == 1 || me == 2) {
      fill(sym + static_cast<std::size_t>(me - 1) * kBytes, kBytes, me);
    }
    ctx.barrier_all();
    if (me == 0) {
      for (int rep = 0; rep < 2; ++rep) {
        const sim::Time t0 = ctx.now();
        for (int target : {1, 2}) {  // same node, then the other node
          const std::size_t off = static_cast<std::size_t>(target - 1) * kBytes;
          ctx.getmem_nbi(local + off, sym + off, kBytes, target);
        }
        ctx.quiet();
        window_us = (ctx.now() - t0).to_us();
        EXPECT_EQ(first_mismatch(local, kBytes, 1), kBytes) << rep;
        EXPECT_EQ(first_mismatch(local + kBytes, kBytes, 2), kBytes) << rep;
      }
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 2u);
  EXPECT_LT(window_us, 1110.0);
}

TEST(StagingRing, PullOverlapsConsecutiveReads) {
  // bench_ablation_regcache's inter/get_into_device/4M/first_touch: a 4 MiB
  // get from PE 1's host heap into a device buffer the HCA has never seen
  // takes host-staged-get, StagedPipeline::pull through the staging ring.
  // 726.1 µs with one 256 KiB read in flight, 751.4 µs with one 128 KiB
  // read in flight, 701.8 µs when each 128 KiB read is posted before the
  // previous one is awaited. With 64 KiB chunks, a read per chunk pays the
  // port's per-read gap twice as often (720.8 µs); a read per two slots,
  // with the last two chunks read alone, takes 696.0 µs.
  constexpr std::size_t kBytes = 4u << 20;
  double us = 0;
  auto rt = run_spmd(make_cluster(2, 1), rc_options(), [&](Ctx& ctx) {
    auto* sym =
        static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kHost));
    fill(sym, kBytes, 7);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* fresh = static_cast<unsigned char*>(ctx.cuda_malloc(kBytes));
      const sim::Time t0 = ctx.now();
      ctx.getmem(fresh, sym, kBytes, 1);
      ctx.quiet();
      us = (ctx.now() - t0).to_us();
      EXPECT_EQ(first_mismatch(fresh, kBytes, 7), kBytes);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kHostStagedGet), 1u);
  EXPECT_LT(us, 710.0);
}

/// Pages of [p, p + n) resident in this process, by mincore(2).
std::size_t resident_pages(const void* p, std::size_t n) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(p) / page * page;
  const auto end = (reinterpret_cast<std::uintptr_t>(p) + n + page - 1) /
                   page * page;
  std::vector<unsigned char> vec((end - begin) / page);
  if (::mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
    return 0;
  }
  std::size_t resident = 0;
  for (unsigned char v : vec) resident += v & 1u;
  return resident;
}

TEST(StagingRing, BounceIsCommittedOnlyWhenItsPEStages) {
  // PE 0 stages a 1 MiB D-D put to PE 1 through its ring
  // (pipeline-gdr-write); PE 1 never stages, so none of its ring's pages
  // may be resident.
  constexpr std::size_t kBytes = 1u << 20;
  std::size_t resident[2] = {0, 0};
  auto rt = run_spmd(make_cluster(2, 1), rc_options(), [&](Ctx& ctx) {
    const std::size_t ring =
        kStagingSlots * ctx.runtime().tuning().pipeline_chunk;
    auto* dst = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* src = static_cast<unsigned char*>(ctx.cuda_malloc(kBytes));
      fill(src, kBytes, 3);
      ctx.putmem(dst, src, kBytes, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(dst, kBytes, 3), kBytes);
    }
    resident[ctx.my_pe()] = resident_pages(ctx.staging_ring().data(), ring);
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kPipelineGdrWrite), 1u);
  EXPECT_GT(resident[0], 0u);
  EXPECT_EQ(resident[1], 0u);
}

TEST(StagingRing, ProxyStagingIsOneRingUnderItsServiceEndpoint) {
  // Every transfer a proxy serves streams through kStagingSlots chunks, so
  // its staging is one ring of that size, at any chunk, registered at init
  // under the node's service endpoint (the requesters RDMA-write into it)
  // and under no PE.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.tuning.pipeline_chunk = 32u << 10;
  Runtime rt(make_cluster(2, 2), opts);
  const ib::RegistrationCache& cache = rt.verbs().reg_cache();
  for (int node = 0; node < rt.cluster().num_nodes(); ++node) {
    const StagingRing& ring = rt.proxy(node).staging_ring();
    const int ep = rt.cluster().service_endpoint(node);
    EXPECT_EQ(ring.chunk(), opts.tuning.pipeline_chunk) << node;
    EXPECT_EQ(ring.bytes(), kStagingSlots * opts.tuning.pipeline_chunk)
        << node;
    EXPECT_TRUE(cache.covered(ep, ring.data(), ring.bytes())) << node;
    EXPECT_FALSE(cache.covered(ep, ring.data(), ring.bytes() + 1)) << node;
    for (int pe = 0; pe < rt.num_pes(); ++pe) {
      EXPECT_FALSE(cache.covered(pe, ring.data(), 1)) << node << " " << pe;
    }
  }
}

struct BounceRun {
  double dh_put_us = 0;       // virtual time of the intra-node D-H put
  std::size_t in_flight = 0;  // ring chunks in flight when it starts
};

/// Host pipeline, 2 nodes x 2 PEs: PE 0 puts 2 MiB from its GPU into PE 1's
/// host heap (ipc-staged: the whole message through the bounce, four times
/// the ring), after a 1 MiB D-D put to PE 2 (rendezvous, which returns with
/// its last chunks in flight from PE 0's ring) when `rendezvous_first`.
/// Checks every byte, and that the ring kept its address and registration.
BounceRun bounce_after_rendezvous(bool rendezvous_first) {
  constexpr std::size_t kSmall = 1u << 20;
  constexpr std::size_t kLarge = 2u << 20;
  RuntimeOptions opts = make_options(TransportKind::kHostPipeline);
  opts.ib_transport = ib::QpKind::kRc;
  BounceRun run;
  auto rt = run_spmd(make_cluster(2, 2), opts, [&](Ctx& ctx) {
    auto* gpu_dst =
        static_cast<unsigned char*>(ctx.shmalloc(kSmall, Domain::kGpu));
    auto* host_dst =
        static_cast<unsigned char*>(ctx.shmalloc(kLarge, Domain::kHost));
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      const StagingRing& ring = ctx.staging_ring();
      const std::byte* base = ring.data();
      auto* a = static_cast<unsigned char*>(ctx.cuda_malloc(kSmall));
      auto* b = static_cast<unsigned char*>(ctx.cuda_malloc(kLarge));
      fill(a, kSmall, 12);
      fill(b, kLarge, 13);
      if (rendezvous_first) ctx.putmem(gpu_dst, a, kSmall, 2);
      for (std::size_t s = 0; s < kStagingSlots; ++s) {
        run.in_flight += ring.comp(s) && !ring.comp(s)->done();
      }
      const sim::Time t0 = ctx.now();
      ctx.putmem(host_dst, b, kLarge, 1);
      run.dh_put_us = (ctx.now() - t0).to_us();
      EXPECT_EQ(ring.data(), base);
      EXPECT_TRUE(ctx.runtime().verbs().reg_cache().covered(0, ring.data(),
                                                             ring.bytes()));
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(host_dst, kLarge, 13), kLarge);
    } else if (ctx.my_pe() == 2 && rendezvous_first) {
      EXPECT_EQ(first_mismatch(gpu_dst, kSmall, 12), kSmall);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kRendezvous), rendezvous_first ? 1u : 0u);
  EXPECT_EQ(rt->stats().ops(Protocol::kIpcStaged), 1u);
  return run;
}

TEST(StagingRing, WholeMessageBounceLeavesTheRingsChunksInFlight) {
  // The bounce is a buffer of its own: growing it neither moves the ring
  // nor waits for the rendezvous's chunks still in flight from it, so the
  // D-H put takes as long as it does alone.
  const BounceRun after = bounce_after_rendezvous(/*rendezvous_first=*/true);
  const BounceRun alone = bounce_after_rendezvous(/*rendezvous_first=*/false);
  EXPECT_GT(after.in_flight, 0u);
  EXPECT_EQ(alone.in_flight, 0u);
  EXPECT_EQ(after.dh_put_us, alone.dh_put_us);
}

/// Ring slots with a chunk record.
std::size_t records(const StagingRing& ring) {
  std::size_t n = 0;
  for (std::size_t s = 0; s < kStagingSlots; ++s) n += ring.comp(s) != nullptr;
  return n;
}

TEST(StagingRing, RestartedProxyRingHoldsNoChunkRecord) {
  // Node 1's proxy dies 300 µs in, streaming a 4 MiB staged get, and
  // restarts at once. The restarted proxy lets the lost transfer's chunks
  // land without replaying them and forgets them, so no later transfer
  // awaits or replays them: PE 1, looking at 2 ms (after the restart,
  // before the requester's per-stage timeout reissues the get), finds no
  // chunk record in the ring; the reissued get then streams through it
  // again. Pinned to rc, as the look is timed.
  constexpr std::size_t kBytes = 4u << 20;
  RuntimeOptions opts = rc_options();
  opts.faults = sim::FaultPlan::parse("crash=1@300,restart_us=0");
  std::size_t after_restart = kStagingSlots;
  auto rt = run_spmd(make_cluster(2, 1, /*same_socket=*/false), opts,
                     [&](Ctx& ctx) {
    auto* src = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    if (ctx.my_pe() == 1) fill(src, kBytes, 7);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto* dst = static_cast<unsigned char*>(ctx.cuda_malloc(kBytes));
      ctx.getmem(dst, src, kBytes, 1);
      EXPECT_EQ(first_mismatch(dst, kBytes, 7), kBytes);
    } else {
      const sim::Time look = sim::Time::ns(2'000'000);
      EXPECT_LT(ctx.now(), look);
      if (ctx.now() < look) ctx.proc().delay(look - ctx.now());
      const ProxyDaemon& proxy = ctx.runtime().proxy(1);
      EXPECT_EQ(proxy.restarts(), 1);
      EXPECT_EQ(proxy.gets_served(), 1u);
      after_restart = records(proxy.staging_ring());
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(after_restart, 0u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
  EXPECT_EQ(rt->proxy(1).gets_served(), 2u);
  EXPECT_GT(records(rt->proxy(1).staging_ring()), 0u);
}

/// What node 1's restarted proxy serves first in crash_with_copies_in_flight.
enum class FirstTransfer {
  kGet,        // PE 1's staged get from PE 3's GPU (the proxy's stream_out)
  kPut,        // PE 1's proxy-put into PE 3's GPU (the proxy's do_put)
  kDeviceGet,  // PE 3's kernel get from PE 1's host heap (the proxy's pull)
};

/// Node 1's proxy dies `crash_us` into a 1 MiB staged get by PE 0 from PE 2's
/// GPU (HCAs on the other socket), and restarts at once. Just before, PE 2
/// started a 1 MiB H->D copy into its GPU, so the get's last copies out of
/// that GPU into the proxy's ring slots are still queued behind it. At the
/// crash `first` asks the proxy for 1 MiB more, to or from a GPU whose PCIe
/// slot is idle, through the same slots: its RDMA writes into them (a put),
/// its RDMA reads into them (a device get) or its copies into them (a get)
/// must not be overwritten by the stale copies, so the restarted proxy
/// serves nothing before those have landed. Every transfer must land every
/// byte, PE 0's get after its reissue.
void crash_with_copies_in_flight(double crash_us, FirstTransfer first) {
  constexpr std::size_t kBytes = 1u << 20;
  constexpr double kGetAtUs = 2000;
  RuntimeOptions opts = rc_options();
  sim::FaultPlan plan;
  plan.proxy_restart_us = 0;
  plan.crashes.push_back({1, kGetAtUs + crash_us});
  opts.faults = plan;
  auto rt = run_spmd(make_cluster(2, 2, /*same_socket=*/false), opts,
                     [&](Ctx& ctx) {
    auto* src = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    auto* put_dst =
        static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    // A host source, which the HCA reads at wire speed.
    auto* host_src =
        static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kHost));
    const int me = ctx.my_pe();
    fill(src, kBytes, me);
    fill(host_src, kBytes, me);
    ctx.barrier_all();
    auto wait_until = [&](double at_us) {
      const sim::Time at = sim::Time::ns(static_cast<std::int64_t>(at_us * 1e3));
      EXPECT_LT(ctx.now(), at);
      if (ctx.now() < at) ctx.proc().delay(at - ctx.now());
    };
    const std::string at = "crash at " + std::to_string(crash_us) + " us";
    if (me == 0) {
      auto* dst = static_cast<unsigned char*>(ctx.cuda_malloc(kBytes));
      wait_until(kGetAtUs);
      ctx.getmem(dst, src, kBytes, 2);
      EXPECT_EQ(first_mismatch(dst, kBytes, 2), kBytes) << "PE 0, " << at;
    } else if (me == 2) {
      std::vector<unsigned char> host(kBytes);
      auto* gpu = ctx.cuda_malloc(kBytes);
      wait_until(kGetAtUs + crash_us - 10);
      ctx.cuda_memcpy(gpu, host.data(), kBytes);
    } else if (me == 1 && first != FirstTransfer::kDeviceGet) {
      auto* dst = static_cast<unsigned char*>(ctx.cuda_malloc(kBytes));
      wait_until(kGetAtUs + crash_us);
      if (first == FirstTransfer::kGet) {
        ctx.getmem(dst, src, kBytes, 3);
        EXPECT_EQ(first_mismatch(dst, kBytes, 3), kBytes) << "PE 1, " << at;
      } else {
        fill(dst, kBytes, 1);
        ctx.putmem(put_dst, dst, kBytes, 3);
        ctx.quiet();
      }
    } else if (me == 3 && first == FirstTransfer::kDeviceGet) {
      auto* dst = static_cast<unsigned char*>(ctx.cuda_malloc(kBytes));
      wait_until(kGetAtUs + crash_us);
      ctx.launch_kernel_device(1.0, DeviceScope::kThread, [&](DeviceCtx& d) {
        d.getmem(dst, host_src, kBytes, 1);
        d.quiet();
      });
      EXPECT_EQ(first_mismatch(dst, kBytes, 1), kBytes) << "PE 3, " << at;
    }
    ctx.barrier_all();
    if (me == 3 && first == FirstTransfer::kPut) {
      EXPECT_EQ(first_mismatch(put_dst, kBytes, 1), kBytes) << "PE 3, " << at;
    }
    ctx.barrier_all();
  });
  const ProxyDaemon& proxy = rt->proxy(1);
  EXPECT_EQ(proxy.restarts(), 1);
  EXPECT_EQ(proxy.gets_served(), first == FirstTransfer::kGet ? 3u : 2u);
  EXPECT_EQ(proxy.puts_served(), first == FirstTransfer::kPut ? 1u : 0u);
  EXPECT_EQ(proxy.device_cmds_served(),
            first == FirstTransfer::kDeviceGet ? 1u : 0u);
}

TEST(StagingRing, RestartedProxyLandsEveryByteOverCopiesInFlight) {
  // One crash every 2.5 µs while the get's first ring rotation drains.
  // Served before the stale copies landed, the get still lands every byte,
  // as its copies into a slot queue behind them on the slot's stream; on
  // fresh streams as well, the proxy sends stale bytes for PE 1 at 4 of
  // these 16 instants.
  for (double crash_us = 60; crash_us < 100; crash_us += 2.5) {
    crash_with_copies_in_flight(crash_us, FirstTransfer::kGet);
  }
}

TEST(StagingRing, RestartedProxyPutLandsEveryByteOverCopiesInFlight) {
  // Served before the stale copies landed, the put's chunks are overwritten
  // in their slots, and PE 3's GPU gets stale bytes at 10 of these 16
  // instants.
  for (double crash_us = 60; crash_us < 100; crash_us += 2.5) {
    crash_with_copies_in_flight(crash_us, FirstTransfer::kPut);
  }
}

TEST(StagingRing, RestartedProxyDeviceGetLandsEveryByteOverCopiesInFlight) {
  // Served before the stale copies landed, the kernel's chunks are
  // overwritten in their slots, and PE 3 gets stale bytes at 12 of these 16
  // instants.
  for (double crash_us = 60; crash_us < 100; crash_us += 2.5) {
    crash_with_copies_in_flight(crash_us, FirstTransfer::kDeviceGet);
  }
}

}  // namespace
}  // namespace gdrshmem::core
