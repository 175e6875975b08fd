// Unit tests for the verbs layer: registration cache, RDMA read/write over
// host and GDR paths, rkey faults, sends, atomics, and latency ordering
// properties the paper's protocol selection depends on.
#include "ib/verbs.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace gdrshmem::ib {
namespace {

struct Fixture {
  sim::Engine eng;
  hw::Cluster cluster;
  cudart::CudaRuntime cuda;
  Verbs verbs;

  explicit Fixture(int nodes = 2, bool same_socket = true)
      : cluster([nodes, same_socket] {
          hw::ClusterConfig c;
          c.num_nodes = nodes;
          c.pes_per_node = 2;
          c.hca_gpu_same_socket = same_socket;
          return hw::Cluster(c);
        }()),
        cuda(eng, cluster),
        verbs(eng, cluster, cuda) {}
};

TEST(RegistrationCache, MissChargesHitIsFree) {
  Fixture f;
  std::vector<std::byte> buf(1 << 20);
  sim::Time after_miss, after_hit;
  f.eng.spawn("pe", [&](sim::Process& p) {
    f.verbs.reg_cache().get_or_register(p, 0, buf.data(), buf.size());
    after_miss = f.eng.now();
    f.verbs.reg_cache().get_or_register(p, 0, buf.data(), buf.size());
    after_hit = f.eng.now();
    // Subrange of a registered range is also a hit.
    f.verbs.reg_cache().get_or_register(p, 0, buf.data() + 100, 64);
  });
  f.eng.run();
  EXPECT_GT(after_miss.to_us(), 100.0);  // base 55 us + ~90 us/MB
  EXPECT_EQ(after_hit, after_miss);
  EXPECT_EQ(f.verbs.reg_cache().misses(), 1u);
  EXPECT_EQ(f.verbs.reg_cache().hits(), 2u);
}

TEST(RegistrationCache, EnclosingRangeCoversAnInnerOneRegisteredFirst) {
  // The nearest base at or below a sub-range is the inner entry, which is
  // too short; the enclosing entry registered after it must still hit.
  Fixture f;
  std::vector<std::byte> buf(1 << 20);
  RegistrationCache& rc = f.verbs.reg_cache();
  f.eng.spawn("pe", [&](sim::Process& p) {
    rc.get_or_register(p, 0, buf.data() + (256 << 10), 64 << 10);
    rc.get_or_register(p, 0, buf.data(), buf.size());
    EXPECT_EQ(rc.misses(), 2u);
    rc.get_or_register(p, 0, buf.data() + (256 << 10), 256 << 10);
    rc.get_or_register(p, 0, buf.data() + (512 << 10), 512 << 10);
  });
  f.eng.run();
  EXPECT_EQ(rc.misses(), 2u);
  EXPECT_EQ(rc.hits(), 2u);
  EXPECT_TRUE(rc.covered(0, buf.data() + (300 << 10), 100 << 10));
  EXPECT_FALSE(rc.covered(0, buf.data() + (512 << 10), (512 << 10) + 1));
}

TEST(RegistrationCache, AsyncRegistrationsQueueOnEachPesHelper) {
  // PE 0's helper registers two ranges one after the other, each entering
  // the cache when its registration ends; a range inside one still
  // registering is not registered again; PE 1's helper runs alongside.
  Fixture f;
  std::vector<std::byte> a(1 << 20), b(2 << 20), c(1 << 20);
  RegistrationCache& rc = f.verbs.reg_cache();
  const hw::SystemParams& p = f.cluster.params();
  auto cost = [&p](std::size_t n) {
    return sim::Duration::us(p.mr_register_base_us +
                             p.mr_register_per_mb_us *
                                 static_cast<double>(n) / 1e6);
  };
  rc.register_async(0, a.data(), a.size());
  rc.register_async(0, b.data(), b.size());
  rc.register_async(0, a.data() + 64, 4096);
  rc.register_async(1, c.data(), c.size());
  EXPECT_EQ(rc.misses(), 3u);  // counted when issued
  f.eng.spawn("pe", [&](sim::Process& proc) {
    proc.delay(cost(a.size()) - sim::Duration::ns(1));
    EXPECT_FALSE(rc.covered(0, a.data(), a.size()));
    EXPECT_FALSE(rc.covered(1, c.data(), c.size()));
    proc.delay(sim::Duration::ns(1));
    EXPECT_TRUE(rc.covered(0, a.data(), a.size()));
    EXPECT_TRUE(rc.covered(1, c.data(), c.size()));
    EXPECT_FALSE(rc.covered(0, b.data(), b.size()));
    proc.delay(cost(b.size()));
    EXPECT_TRUE(rc.covered(0, b.data(), b.size()));
  });
  f.eng.run();
  EXPECT_EQ(rc.misses(), 3u);
  EXPECT_EQ(rc.hits(), 0u);
}

TEST(RegistrationCache, AsyncRegistrationEvictsLikeAMiss) {
  // A finished helper registration enters the LRU order: beyond the
  // capacity the least recently used dynamic range goes.
  Fixture f;
  std::vector<std::byte> a(64 << 10), b(64 << 10);
  RegistrationCache& rc = f.verbs.reg_cache();
  rc.set_capacity(1);
  rc.register_async(0, a.data(), a.size());
  rc.register_async(0, b.data(), b.size());
  f.eng.run();
  EXPECT_FALSE(rc.covered(0, a.data(), a.size()));
  EXPECT_TRUE(rc.covered(0, b.data(), b.size()));
  EXPECT_EQ(rc.evictions(), 1u);
}

TEST(RegistrationCache, PinnedRegistrationIsNeverEvicted) {
  // A pinned range (a regrown staging buffer) costs a miss like any other
  // and stays registered past the capacity.
  Fixture f;
  std::vector<std::byte> pinned(1 << 20), a(64 << 10), b(64 << 10);
  RegistrationCache& rc = f.verbs.reg_cache();
  rc.set_capacity(1);
  f.eng.spawn("pe", [&](sim::Process& p) {
    rc.get_or_register(p, 0, pinned.data(), pinned.size(), /*pinned=*/true);
    rc.get_or_register(p, 0, a.data(), a.size());
    rc.get_or_register(p, 0, b.data(), b.size());
  });
  f.eng.run();
  EXPECT_TRUE(rc.covered(0, pinned.data(), pinned.size()));
  EXPECT_FALSE(rc.covered(0, a.data(), a.size()));
  EXPECT_EQ(rc.misses(), 3u);
  EXPECT_EQ(rc.evictions(), 1u);
}

TEST(RegistrationCache, PerPeIsolation) {
  Fixture f;
  std::vector<std::byte> buf(4096);
  f.verbs.reg_cache().register_at_init(0, buf.data(), buf.size());
  EXPECT_TRUE(f.verbs.reg_cache().covered(0, buf.data(), 64));
  EXPECT_FALSE(f.verbs.reg_cache().covered(1, buf.data(), 64));
}

TEST(Verbs, SmallHostLocalRangesNeverTouchTheRegistrationCache) {
  Fixture f;
  std::vector<std::byte> remote(4096, std::byte{5}), local(4096);
  void* dev = f.cuda.malloc_device(0, 0, 64);  // PE 0's GPU
  f.verbs.reg_cache().register_at_init(2, remote.data(), remote.size());
  RegistrationCache& rc = f.verbs.reg_cache();
  f.eng.spawn("pe0", [&](sim::Process& p) {
    // Inline write and bounce-buffer read: no lookup, no registration.
    f.verbs.rdma_write(p, 0, local.data(), 2, remote.data(), kInlineBytes)
        ->wait(p);
    f.verbs.rdma_read(p, 0, local.data() + 1, 2, remote.data() + 2048,
                      kInlineBytes)
        ->wait(p);
    EXPECT_EQ(local[kInlineBytes], std::byte{5});
    EXPECT_EQ(rc.hits() + rc.misses(), 0u);
    EXPECT_FALSE(rc.covered(0, local.data(), 1));
    // One byte more, or any device range, registers as before.
    f.verbs.rdma_write(p, 0, local.data(), 2, remote.data(), kInlineBytes + 1)
        ->wait(p);
    f.verbs.rdma_write(p, 0, dev, 2, remote.data(), 8)->wait(p);
    EXPECT_EQ(rc.misses(), 2u);
    EXPECT_TRUE(rc.covered(0, dev, 8));
  });
  f.eng.run();
}

TEST(Verbs, RdmaWriteHostToHostMovesBytes) {
  Fixture f;
  std::vector<std::byte> src(256, std::byte{7}), dst(256);
  f.verbs.reg_cache().register_at_init(2, dst.data(), dst.size());
  f.verbs.reg_cache().register_at_init(0, src.data(), src.size());
  sim::Time done;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    auto c = f.verbs.rdma_write(p, 0, src.data(), 2, dst.data(), 256);
    c->wait(p);
    done = f.eng.now();
    EXPECT_EQ(dst[0], std::byte{7});
    EXPECT_EQ(dst[255], std::byte{7});
  });
  f.eng.run();
  // Inter-node small write: ~1-3 us, never 10+.
  EXPECT_GT(done.to_us(), 0.5);
  EXPECT_LT(done.to_us(), 5.0);
}

TEST(Verbs, RdmaWriteUnregisteredRemoteFaults) {
  Fixture f;
  std::vector<std::byte> src(64), dst(64);
  bool threw = false;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    try {
      f.verbs.rdma_write(p, 0, src.data(), 2, dst.data(), 64);
    } catch (const IbError&) {
      threw = true;
    }
  });
  f.eng.run();
  EXPECT_TRUE(threw);
}

TEST(Verbs, RdmaReadPullsRemoteData) {
  Fixture f;
  std::vector<std::byte> remote(128, std::byte{9}), local(128);
  f.verbs.reg_cache().register_at_init(2, remote.data(), remote.size());
  f.verbs.reg_cache().register_at_init(0, local.data(), local.size());
  f.eng.spawn("pe0", [&](sim::Process& p) {
    auto c = f.verbs.rdma_read(p, 0, local.data(), 2, remote.data(), 128);
    EXPECT_EQ(local[0], std::byte{0});  // not yet arrived
    c->wait(p);
    EXPECT_EQ(local[0], std::byte{9});
  });
  f.eng.run();
}

TEST(Verbs, GdrWriteToGpuUsesP2pPath) {
  Fixture f;
  void* gpu_buf = f.cuda.malloc_device(1, 0, 4096);  // PE 2's GPU
  std::vector<std::byte> src(4096, std::byte{3});
  f.verbs.reg_cache().register_at_init(2, gpu_buf, 4096);
  f.verbs.reg_cache().register_at_init(0, src.data(), src.size());
  sim::Time done;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    auto c = f.verbs.rdma_write(p, 0, src.data(), 2, gpu_buf, 4096);
    c->wait(p);
    done = f.eng.now();
    EXPECT_EQ(static_cast<std::byte*>(gpu_buf)[4095], std::byte{3});
  });
  f.eng.run();
  // GDR adds a PCIe hop but stays in the low single-digit microseconds —
  // the entire point of the paper's Direct GDR protocol.
  EXPECT_LT(done.to_us(), 6.0);
}

TEST(Verbs, GdrLargeWriteSlowerThanHostLargeWrite) {
  // The P2P write cap (6396 intra) is just below the wire; the *read* cap
  // (3421) makes large GDR reads-from-GPU much slower than host sourcing.
  Fixture f;
  constexpr std::size_t kBytes = 4u << 20;
  void* gpu_src = f.cuda.malloc_device(0, 0, kBytes);
  std::vector<std::byte> host_src(kBytes);
  std::vector<std::byte> dst_a(kBytes), dst_b(kBytes);
  f.verbs.reg_cache().register_at_init(2, dst_a.data(), kBytes);
  f.verbs.reg_cache().register_at_init(2, dst_b.data(), kBytes);
  f.verbs.reg_cache().register_at_init(0, gpu_src, kBytes);
  f.verbs.reg_cache().register_at_init(0, host_src.data(), kBytes);
  sim::Duration gpu_time, host_time;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    sim::Time t0 = f.eng.now();
    f.verbs.rdma_write(p, 0, gpu_src, 2, dst_a.data(), kBytes)->wait(p);
    gpu_time = f.eng.now() - t0;
    t0 = f.eng.now();
    f.verbs.rdma_write(p, 0, host_src.data(), 2, dst_b.data(), kBytes)->wait(p);
    host_time = f.eng.now() - t0;
  });
  f.eng.run();
  // 4 MB at 3421 MB/s ~ 1170 us vs at 6397 MB/s ~ 625 us.
  EXPECT_GT(gpu_time.to_us(), 1.5 * host_time.to_us());
}

TEST(Verbs, InterSocketGdrReadIsCatastrophic) {
  Fixture f(2, /*same_socket=*/false);
  constexpr std::size_t kBytes = 1u << 20;
  void* gpu_src = f.cuda.malloc_device(0, 0, kBytes);
  std::vector<std::byte> dst(kBytes);
  f.verbs.reg_cache().register_at_init(2, dst.data(), kBytes);
  f.verbs.reg_cache().register_at_init(0, gpu_src, kBytes);
  sim::Duration dur;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    sim::Time t0 = f.eng.now();
    f.verbs.rdma_write(p, 0, gpu_src, 2, dst.data(), kBytes)->wait(p);
    dur = f.eng.now() - t0;
  });
  f.eng.run();
  // 1 MB at 247 MB/s ~ 4 ms.
  EXPECT_GT(dur.to_ms(), 3.0);
}

TEST(Verbs, LoopbackWriteFasterThanNetworkWrite) {
  Fixture f;
  std::vector<std::byte> src(8), dst_local(8), dst_remote(8);
  f.verbs.reg_cache().register_at_init(1, dst_local.data(), 8);   // same node
  f.verbs.reg_cache().register_at_init(2, dst_remote.data(), 8);  // other node
  f.verbs.reg_cache().register_at_init(0, src.data(), 8);
  sim::Duration loopback, network;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    sim::Time t0 = f.eng.now();
    f.verbs.rdma_write(p, 0, src.data(), 1, dst_local.data(), 8)->wait(p);
    loopback = f.eng.now() - t0;
    t0 = f.eng.now();
    f.verbs.rdma_write(p, 0, src.data(), 2, dst_remote.data(), 8)->wait(p);
    network = f.eng.now() - t0;
  });
  f.eng.run();
  EXPECT_LT(loopback, network);
}

TEST(Verbs, PostSendDeliversInOrder) {
  Fixture f;
  std::vector<int> delivered;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    f.verbs.post_send(p, 0, 2, 16, [&] { delivered.push_back(1); });
    f.verbs.post_send(p, 0, 2, 16, [&] { delivered.push_back(2); });
    auto c = f.verbs.post_send(p, 0, 2, 16, [&] { delivered.push_back(3); });
    c->wait(p);
  });
  f.eng.run();
  EXPECT_EQ(delivered, (std::vector<int>{1, 2, 3}));
}

TEST(Verbs, AtomicFadd64ReturnsOldValue) {
  Fixture f;
  std::uint64_t word = 100;
  std::uint64_t result = 0;
  f.verbs.reg_cache().register_at_init(2, &word, sizeof(word));
  f.eng.spawn("pe0", [&](sim::Process& p) {
    f.verbs.atomic(p, 0, 2, &word, Amo::fetch_add(5), &result)->wait(p);
    EXPECT_EQ(result, 100u);
    EXPECT_EQ(word, 105u);
    f.verbs.atomic(p, 0, 2, &word, Amo::fetch_add(1), &result)->wait(p);
    EXPECT_EQ(result, 105u);
  });
  f.eng.run();
}

TEST(Verbs, AtomicCswap64) {
  Fixture f;
  std::uint64_t word = 7;
  std::uint64_t result = 0;
  f.verbs.reg_cache().register_at_init(2, &word, sizeof(word));
  f.eng.spawn("pe0", [&](sim::Process& p) {
    // Failed compare: word unchanged, old value returned.
    f.verbs.atomic(p, 0, 2, &word, Amo::compare_swap(99, 1), &result)->wait(p);
    EXPECT_EQ(result, 7u);
    EXPECT_EQ(word, 7u);
    // Successful compare.
    f.verbs.atomic(p, 0, 2, &word, Amo::compare_swap(7, 42), &result)->wait(p);
    EXPECT_EQ(result, 7u);
    EXPECT_EQ(word, 42u);
  });
  f.eng.run();
}

TEST(Verbs, AtomicOnGpuMemoryWorks) {
  Fixture f;
  auto* word = static_cast<std::uint64_t*>(f.cuda.malloc_device(1, 0, 8));
  *word = 10;
  std::uint64_t result = 0;
  f.verbs.reg_cache().register_at_init(2, word, 8);
  sim::Duration gpu_lat;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    sim::Time t0 = f.eng.now();
    f.verbs.atomic(p, 0, 2, word, Amo::fetch_add(1), &result)->wait(p);
    gpu_lat = f.eng.now() - t0;
    EXPECT_EQ(result, 10u);
    EXPECT_EQ(*word, 11u);
  });
  f.eng.run();
  EXPECT_LT(gpu_lat.to_us(), 10.0);
}

TEST(Verbs, ConcurrentWritersContendOnTargetPort) {
  // Two source nodes streaming to one target node must serialize on the
  // target HCA port link.
  Fixture f(3);
  constexpr std::size_t kBytes = 4u << 20;
  std::vector<std::byte> src1(kBytes), src2(kBytes), dst1(kBytes), dst2(kBytes);
  f.verbs.reg_cache().register_at_init(0, dst1.data(), kBytes);
  f.verbs.reg_cache().register_at_init(0, dst2.data(), kBytes);
  f.verbs.reg_cache().register_at_init(2, src1.data(), kBytes);
  f.verbs.reg_cache().register_at_init(4, src2.data(), kBytes);
  sim::Time done1, done2;
  f.eng.spawn("pe2", [&](sim::Process& p) {
    f.verbs.rdma_write(p, 2, src1.data(), 0, dst1.data(), kBytes)->wait(p);
    done1 = f.eng.now();
  });
  f.eng.spawn("pe4", [&](sim::Process& p) {
    f.verbs.rdma_write(p, 4, src2.data(), 0, dst2.data(), kBytes)->wait(p);
    done2 = f.eng.now();
  });
  f.eng.run();
  double serial_us = static_cast<double>(kBytes) / 6397.0;  // one transfer
  double last = std::max(done1.to_us(), done2.to_us());
  EXPECT_GT(last, 1.8 * serial_us);  // second writer queued behind the first
}

}  // namespace
}  // namespace gdrshmem::ib
