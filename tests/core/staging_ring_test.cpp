// The staging ring (DESIGN §5e). Every staged protocol streams chunks of
// Tuning::pipeline_chunk bytes through a StagingRing of kStagingSlots
// slots: its PE's or its proxy's. The chunk sets how long a pipeline takes
// to fill (the first chunk's copy before the wire starts) and to drain (the
// last chunk's copy after it ends); the ring sets the bytes in flight. So
// the default chunk is the smallest power of two that keeps a pipeline
// wire-bound, single staged ops pay one short chunk at each end, a get
// whose copy-outs queue behind a same-node copy on the GPU's PCIe slot
// still keeps the wire busy, and a pull overlaps its consecutive reads.
// Also: a ring's pages are committed only when its PE first stages, a
// proxy's ring is exactly ring-sized, the host pipeline's whole-message
// bounce neither moves the ring nor waits for its chunks, and a restarted
// proxy's ring holds no chunk of the transfer it lost. Every case checks
// every byte; the timing cases pin themselves to rc.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

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

TEST(StagingRing, DefaultChunkIsTheSmallestWireBoundPowerOfTwo) {
  // A chunk's host<->device copy (launch and hop included) must take no
  // longer than its wire serialization, or the pipeline is copy-bound; a
  // larger chunk than that only lengthens the fill and the drain.
  hw::ClusterConfig cfg = make_cluster(1, 1);
  cfg.params = hw::SystemParams::wilkes();
  hw::Cluster cluster(cfg);
  auto wire_bound = [&](std::size_t c) {
    const double copy_us = std::max(cluster.cuda_h2d(0, 0).cost(c).to_us(),
                                    cluster.cuda_d2h(0, 0).cost(c).to_us());
    return copy_us <= static_cast<double>(c) / cfg.params.ib_bandwidth_mbps;
  };
  const std::size_t chunk = Tuning{}.pipeline_chunk;
  ASSERT_GT(chunk, 1u);
  EXPECT_EQ(chunk & (chunk - 1), 0u) << chunk << " is not a power of two";
  EXPECT_TRUE(wire_bound(chunk)) << chunk;
  EXPECT_FALSE(wire_bound(chunk / 2)) << chunk / 2;
}

/// Virtual time (µs) of one 256 KiB inter-node D-D putmem + quiet, or getmem
/// + quiet, between the two PEs' symmetric GPU buffers, same socket (put:
/// pipeline-gdr-write, get: the proxy's reverse pipeline straight into the
/// requester's GPU), timed after one untimed warm-up op, which also waits
/// out the proxy's start-up IPC mapping.
double single_op_us(bool put) {
  constexpr std::size_t kBytes = 256u << 10;
  double us = 0;
  auto rt = run_spmd(make_cluster(2, 1), rc_options(), [&](Ctx& ctx) {
    auto* a = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    auto* b = static_cast<unsigned char*>(ctx.shmalloc(kBytes, Domain::kGpu));
    if (ctx.my_pe() == 1) fill(a, kBytes, 9);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      for (int rep = 0; rep < 2; ++rep) {
        // Each put sends a pattern of its own; each get lands in a cleared
        // buffer.
        fill(a, kBytes, rep);
        std::memset(b, 0, kBytes);
        const sim::Time t0 = ctx.now();
        if (put) {
          ctx.putmem(b, a, kBytes, 1);
        } else {
          ctx.getmem(b, a, kBytes, 1);
        }
        ctx.quiet();
        us = (ctx.now() - t0).to_us();
        if (!put) {
          EXPECT_EQ(first_mismatch(b, kBytes, 9), kBytes) << rep;
        }
      }
    }
    ctx.barrier_all();
    if (put && ctx.my_pe() == 1) {
      EXPECT_EQ(first_mismatch(b, kBytes, 1), kBytes);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(put ? Protocol::kPipelineGdrWrite
                                : Protocol::kProxyGet),
            2u);
  return us;
}

TEST(StagingRing, SingleStagedPutFillsAndDrainsOneShortChunk) {
  // 75.5 µs with one 256 KiB chunk, 62.4 µs with two of 128 KiB.
  EXPECT_LT(single_op_us(/*put=*/true), 70.0);
}

TEST(StagingRing, SingleProxyGetFillsAndDrainsOneShortChunk) {
  // 81.2 µs with one 256 KiB chunk, 68.1 µs with two of 128 KiB.
  EXPECT_LT(single_op_us(/*put=*/false), 75.0);
}

TEST(StagingRing, GetBehindASameNodeCopyKeepsTheWireBusy) {
  // bench_contention's nbi_window/get/dd/inter_socket: PE 0 of 2 nodes x 2
  // PEs, HCA and GPU on other sockets, gets 4 MiB from its same-node peer's
  // GPU (an nbi copy on its stream) and then 4 MiB from PE 2's GPU into the
  // same GPU (the staged proxy-get, whose copy-outs queue behind that copy
  // on the GPU's PCIe slot), then quiets; timed after one warm-up window.
  // 1,127.6 µs with two 256 KiB slots, 1,168.0 µs with two 128 KiB slots,
  // 1,090.2 µs with four: the bytes the ring holds while its copy-outs wait
  // must not shrink.
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
  // takes host-staged-get, StagedPipeline::pull through the bounce ring.
  // 726.1 µs with one 256 KiB read in flight, 751.4 µs with one 128 KiB
  // read in flight, 701.8 µs when each read is posted before the previous
  // one is awaited.
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
  EXPECT_LT(us, 715.0);
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
  // restarts at once. No later transfer may await the lost one's chunks,
  // so PE 1, looking at 2 ms (after the restart, before the requester's
  // per-stage timeout reissues the get), finds no chunk record in the ring;
  // the reissued get then streams through it again. Pinned to rc, as the
  // look is timed.
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

}  // namespace
}  // namespace gdrshmem::core
