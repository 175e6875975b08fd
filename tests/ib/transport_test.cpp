// Unit tests for the transport-generic endpoint API: RC passthrough
// bit-identity, the RC QP-context-cache penalty at scale, UD segmentation
// and MTU limits, DC initiator-pool reconnects, 2-rail striping, the QP
// memory-footprint model, the bounded registration cache, and env parsing.
#include "ib/transport.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

namespace gdrshmem::ib {
namespace {

hw::ClusterConfig two_node_cluster() {
  hw::ClusterConfig c;
  c.num_nodes = 2;
  c.pes_per_node = 2;
  return c;
}

struct Fixture {
  sim::Engine eng;
  hw::Cluster cluster;
  cudart::CudaRuntime cuda;
  Verbs verbs;
  std::unique_ptr<Transport> transport;

  explicit Fixture(TransportConfig cfg = {},
                   hw::ClusterConfig cc = two_node_cluster())
      : cluster(cc),
        cuda(eng, cluster),
        verbs(eng, cluster, cuda),
        transport(make_transport(verbs, cfg)) {}

  /// Time a single inter-node host-to-host write of `n` bytes (PE 0 -> 2).
  sim::Time timed_write(std::size_t n) {
    std::vector<std::byte> src(n, std::byte{0x2a}), dst(n);
    verbs.reg_cache().register_at_init(0, src.data(), n);
    verbs.reg_cache().register_at_init(2, dst.data(), n);
    sim::Time done;
    eng.spawn("pe0", [&](sim::Process& p) {
      auto c = transport->rdma_write(p, 0, src.data(), 2, dst.data(), n);
      c->wait(p);
      done = eng.now();
      EXPECT_EQ(dst.front(), std::byte{0x2a});
      EXPECT_EQ(dst.back(), std::byte{0x2a});
    });
    eng.run();
    return done;
  }

  /// Time a single inter-node read of `n` bytes from PE 2 into PE 0's host
  /// memory; every byte must land at its own offset.
  sim::Time timed_read(std::size_t n) {
    std::vector<std::byte> local(n), remote(n);
    for (std::size_t i = 0; i < n; ++i) {
      remote[i] = static_cast<std::byte>(i * 13 + 5);
    }
    verbs.reg_cache().register_at_init(0, local.data(), n);
    verbs.reg_cache().register_at_init(2, remote.data(), n);
    sim::Time done;
    eng.spawn("pe0", [&](sim::Process& p) {
      transport->rdma_read(p, 0, local.data(), 2, remote.data(), n)->wait(p);
      done = eng.now();
    });
    eng.run();
    EXPECT_EQ(local, remote);
    return done;
  }
};

struct ScopedEnv {
  ScopedEnv(const char* k, const char* v) : key(k) { setenv(k, v, 1); }
  ~ScopedEnv() { unsetenv(key); }
  const char* key;
};

// ---------------------------------------------------------------------------
// Environment parsing.

TEST(TransportEnv, KindParsesAndDefaults) {
  unsetenv("GDRSHMEM_IB_TRANSPORT");
  EXPECT_EQ(qp_kind_from_env(), QpKind::kRc);
  {
    ScopedEnv e("GDRSHMEM_IB_TRANSPORT", "ud");
    EXPECT_EQ(qp_kind_from_env(), QpKind::kUd);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_TRANSPORT", "dc");
    EXPECT_EQ(qp_kind_from_env(), QpKind::kDc);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_TRANSPORT", "srd");
    EXPECT_EQ(qp_kind_from_env(), QpKind::kSrd);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_TRANSPORT", "xrc");
    EXPECT_THROW(qp_kind_from_env(), std::invalid_argument);
  }
}

TEST(TransportEnv, RailsParseAndDefault) {
  unsetenv("GDRSHMEM_IB_RAILS");
  EXPECT_EQ(rails_from_env(), 1);
  {
    ScopedEnv e("GDRSHMEM_IB_RAILS", "2");
    EXPECT_EQ(rails_from_env(), 2);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_RAILS", "3");
    EXPECT_THROW(rails_from_env(), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// RC: the default must be a pure passthrough at sub-cache scale.

TEST(RcTransport, DefaultConfigMatchesRawVerbsExactly) {
  const std::size_t n = 128u << 10;
  sim::Time raw;
  std::uint64_t raw_events;
  {
    Fixture f;  // build the transport but post through verbs directly
    std::vector<std::byte> src(n, std::byte{1}), dst(n);
    f.verbs.reg_cache().register_at_init(0, src.data(), n);
    f.verbs.reg_cache().register_at_init(2, dst.data(), n);
    f.eng.spawn("pe0", [&](sim::Process& p) {
      f.verbs.rdma_write(p, 0, src.data(), 2, dst.data(), n)->wait(p);
      raw = f.eng.now();
    });
    f.eng.run();
    raw_events = f.eng.events_executed();
  }
  Fixture f;
  sim::Time through = f.timed_write(n);
  EXPECT_EQ(through, raw);
  EXPECT_EQ(f.eng.events_executed(), raw_events);
  EXPECT_EQ(std::string(f.transport->name()), "rc");
  EXPECT_EQ(f.transport->striped_ops(), 0u);
}

TEST(RcTransport, QpCachePenaltyKicksInPastContextCache) {
  hw::ClusterConfig big = two_node_cluster();
  big.num_nodes = 64;  // 127 peers per endpoint >> 16 cached contexts
  auto time_with_cache = [&](int entries) {
    hw::ClusterConfig cc = big;
    cc.params.hca_qp_cache_entries = entries;
    Fixture f(TransportConfig{}, cc);
    return f.timed_write(4096);
  };
  sim::Time cold = time_with_cache(16);
  sim::Time warm = time_with_cache(1 << 20);
  EXPECT_GT(cold, warm);  // overflowing the QP-context cache costs latency
  EXPECT_GT((cold - warm).to_us(), 0.5);
}

TEST(RcTransport, LoopbackPaysNoQpCachePenalty) {
  // Regression: the QP-context-cache miss penalty was charged on same-node
  // loopback ops too, which never touch the wire-facing QP working set. A
  // loopback op's event stream must be identical whether the cache thrashes
  // or not.
  hw::ClusterConfig big = two_node_cluster();
  big.num_nodes = 64;  // remote ops do overflow a 16-entry context cache
  auto run_loopback = [&](int entries) {
    hw::ClusterConfig cc = big;
    cc.params.hca_qp_cache_entries = entries;
    Fixture f(TransportConfig{}, cc);
    std::vector<std::byte> src(4096, std::byte{7}), dst(4096);
    f.verbs.reg_cache().register_at_init(0, src.data(), src.size());
    f.verbs.reg_cache().register_at_init(1, dst.data(), dst.size());
    sim::Time done;
    f.eng.spawn("pe0", [&](sim::Process& p) {
      // PE 1 is on-node.
      f.transport->rdma_write(p, 0, src.data(), 1, dst.data(), 4096)
          ->wait(p);
      done = f.eng.now();
    });
    f.eng.run();
    return std::pair<sim::Time, std::uint64_t>(done, f.eng.events_executed());
  };
  EXPECT_EQ(run_loopback(16), run_loopback(1 << 20));
}

TEST(RcTransport, PenaltyIsZeroAtSmallScale) {
  Fixture f;  // 4 PEs: 3 peers, cache holds 2048 contexts
  sim::Time a = f.timed_write(4096);
  hw::ClusterConfig cc = two_node_cluster();
  cc.params.hca_qp_cache_entries = 1;  // force the penalty on
  Fixture g(TransportConfig{}, cc);
  sim::Time b = g.timed_write(4096);
  EXPECT_LT(a, b);
}

TEST(RcTransport, StripedOpPaysQpCachePenaltyOnce) {
  // The QP-context penalty is a per-op charge: a striped op posts on both
  // rails but pays it once, exactly as a single-rail op does.
  const std::size_t n = 1u << 20;  // above rail_stripe_min_bytes
  hw::ClusterConfig big = two_node_cluster();
  big.num_nodes = 64;  // 127 peers per endpoint >> 16 cached contexts
  auto penalty_ns = [&](int rails, bool read) {
    auto time_with_cache = [&](int entries) {
      hw::ClusterConfig cc = big;
      cc.params.hca_qp_cache_entries = entries;
      Fixture f(TransportConfig{QpKind::kRc, rails, false}, cc);
      sim::Time t = read ? f.timed_read(n) : f.timed_write(n);
      EXPECT_EQ(f.transport->striped_ops(), rails == 2 ? 1u : 0u);
      return t;
    };
    return (time_with_cache(16) - time_with_cache(1 << 20)).count_ns();
  };
  for (bool read : {false, true}) {
    SCOPED_TRACE(read ? "read" : "write");
    EXPECT_GT(penalty_ns(1, read), 0);
    EXPECT_EQ(penalty_ns(2, read), penalty_ns(1, read));
  }
}

// ---------------------------------------------------------------------------
// UD: segmentation, per-packet cost, MTU-bounded sends.

TEST(UdTransport, LargeWriteSegmentsIntoMtuDatagrams) {
  const std::size_t n = 64u << 10;  // 16 segments at the 4 KiB MTU
  Fixture ud(TransportConfig{QpKind::kUd, 1, true});
  sim::Time t_ud = ud.timed_write(n);
  EXPECT_EQ(ud.transport->ud_packets(),
            n / ud.cluster.params().ud_mtu_bytes);
  Fixture rc;
  sim::Time t_rc = rc.timed_write(n);
  EXPECT_GT(t_ud, t_rc);  // per-packet overhead makes UD strictly slower
}

TEST(UdTransport, LargeReadSegmentsIntoMtuDatagrams) {
  const std::size_t n = (64u << 10) + 100;  // 16 full datagrams and a tail
  Fixture ud(TransportConfig{QpKind::kUd, 1, true});
  ud.timed_read(n);
  const std::size_t mtu = ud.cluster.params().ud_mtu_bytes;
  EXPECT_EQ(ud.transport->ud_packets(), (n + mtu - 1) / mtu);
}

TEST(UdTransport, SmallWriteIsOneDatagram) {
  Fixture ud(TransportConfig{QpKind::kUd, 1, true});
  ud.timed_write(2048);
  EXPECT_EQ(ud.transport->ud_packets(), 1u);
}

TEST(UdTransport, OversizeSendThrows) {
  Fixture ud(TransportConfig{QpKind::kUd, 1, true});
  bool threw = false;
  ud.eng.spawn("pe0", [&](sim::Process& p) {
    try {
      ud.transport->post_send(p, 0, 2, 8192, [] {});
    } catch (const IbError&) {
      threw = true;
    }
  });
  ud.eng.run();
  EXPECT_TRUE(threw);
}

TEST(UdTransport, AtomicsStillWorkViaServiceQp) {
  Fixture ud(TransportConfig{QpKind::kUd, 1, true});
  std::uint64_t word = 5;
  ud.verbs.reg_cache().register_at_init(2, &word, sizeof(word));
  std::uint64_t old = 0;
  ud.eng.spawn("pe0", [&](sim::Process& p) {
    ud.transport->atomic(p, 0, 2, &word, Amo::fetch_add(3), &old)->wait(p);
  });
  ud.eng.run();
  EXPECT_EQ(old, 5u);
  EXPECT_EQ(word, 8u);
}

// ---------------------------------------------------------------------------
// DC: constant-size initiator pool, reconnect on working-set overflow.

TEST(DcTransport, ReconnectsOnlyWhenPoolThrashes) {
  hw::ClusterConfig cc;
  cc.num_nodes = 4;
  cc.pes_per_node = 1;
  cc.params.dc_initiator_pool = 2;
  Fixture dc(TransportConfig{QpKind::kDc, 1, true}, cc);
  std::vector<std::byte> src(64), dst(64);
  dc.verbs.reg_cache().register_at_init(0, src.data(), src.size());
  for (int pe = 1; pe <= 3; ++pe) {
    dc.verbs.reg_cache().register_at_init(pe, dst.data(), dst.size());
  }
  dc.eng.spawn("pe0", [&](sim::Process& p) {
    auto& ib = *dc.transport;
    // Working set of 2 targets fits the pool: 2 connects, then all hits.
    for (int i = 0; i < 4; ++i) {
      ib.rdma_write(p, 0, src.data(), 1 + (i % 2), dst.data(), 64)->wait(p);
    }
    EXPECT_EQ(dc.transport->dc_reconnects(), 2u);
    // A third target evicts the LRU initiator; cycling all three thrashes.
    ib.rdma_write(p, 0, src.data(), 3, dst.data(), 64)->wait(p);
    EXPECT_EQ(dc.transport->dc_reconnects(), 3u);
  });
  dc.eng.run();
}

TEST(DcTransport, LoopbackNeedsNoInitiator) {
  Fixture dc(TransportConfig{QpKind::kDc, 1, true});
  std::vector<std::byte> src(64), dst(64);
  dc.verbs.reg_cache().register_at_init(0, src.data(), src.size());
  dc.verbs.reg_cache().register_at_init(1, dst.data(), dst.size());
  dc.eng.spawn("pe0", [&](sim::Process& p) {
    // PE 1 is on-node: the op never leaves the adapter.
    dc.transport->rdma_write(p, 0, src.data(), 1, dst.data(), 64)
        ->wait(p);
  });
  dc.eng.run();
  EXPECT_EQ(dc.transport->dc_reconnects(), 0u);
}

TEST(DcTransport, StripedOpAcquiresBothRailsDcis) {
  // Regression: 2-rail striping drove the second HCA without acquiring a
  // DCI on it — no reconnect cost, no LRU entry. Each rail's pool must pay
  // its own connection to a fresh target.
  const std::size_t n = 1u << 20;  // above rail_stripe_min_bytes
  auto reconnects = [&](int rails, bool read) {
    Fixture dc(TransportConfig{QpKind::kDc, rails, true});
    std::vector<std::byte> src(n), dst(n);
    dc.verbs.reg_cache().register_at_init(0, src.data(), n);
    dc.verbs.reg_cache().register_at_init(2, dst.data(), n);
    dc.eng.spawn("pe0", [&](sim::Process& p) {
      auto& ib = *dc.transport;
      auto op = [&] {
        return read ? ib.rdma_read(p, 0, src.data(), 2, dst.data(), n)
                    : ib.rdma_write(p, 0, src.data(), 2, dst.data(), n);
      };
      op()->wait(p);
      // Both rails now hold the target: a second striped op reconnects
      // nothing.
      op()->wait(p);
    });
    dc.eng.run();
    return dc.transport->dc_reconnects();
  };
  for (bool read : {false, true}) {
    SCOPED_TRACE(read ? "read" : "write");
    EXPECT_EQ(reconnects(1, read), 1u);
    EXPECT_EQ(reconnects(2, read), 2u);
  }
}

// ---------------------------------------------------------------------------
// Footprint model: the paper-motivated memory argument for DC at scale.

TEST(Footprint, DcBeatsRcByOrdersOfMagnitudeAt4kEndpoints) {
  Fixture rc;
  Fixture dc(TransportConfig{QpKind::kDc, 1, true});
  Fixture ud(TransportConfig{QpKind::kUd, 1, true});
  QpFootprint frc = rc.transport->footprint(4096);
  QpFootprint fdc = dc.transport->footprint(4096);
  QpFootprint fud = ud.transport->footprint(4096);
  EXPECT_EQ(frc.qps, 4095u);
  EXPECT_EQ(fdc.qps,
            static_cast<std::uint64_t>(rc.cluster.params().dc_initiator_pool) + 1);
  EXPECT_EQ(fud.qps, 1u);
  EXPECT_GT(frc.total_bytes(), 100 * fdc.total_bytes());
  EXPECT_LT(fud.total_bytes(), fdc.total_bytes());
}

TEST(Footprint, SrqCollapsesRcRecvMemory) {
  Fixture rc;
  Fixture rc_srq(TransportConfig{QpKind::kRc, 1, true});
  QpFootprint per_qp = rc.transport->footprint(1024);
  QpFootprint shared = rc_srq.transport->footprint(1024);
  EXPECT_EQ(per_qp.context_bytes, shared.context_bytes);
  EXPECT_GT(per_qp.recv_bytes, shared.recv_bytes);
  EXPECT_EQ(shared.recv_bytes, rc.cluster.params().ib_srq_bytes);
}

// ---------------------------------------------------------------------------
// 2-rail striping.

TEST(Striping, LargeTransfersUseBothRailsAndGoFaster) {
  const std::size_t n = 1u << 20;
  Fixture one_rail;
  sim::Time t1 = one_rail.timed_write(n);
  Fixture two_rail(TransportConfig{QpKind::kRc, 2, false});
  sim::Time t2 = two_rail.timed_write(n);
  EXPECT_EQ(two_rail.transport->striped_ops(), 1u);
  EXPECT_LT(t2, t1);
  EXPECT_GE(t1.to_us() / t2.to_us(), 1.5);
}

TEST(Striping, OddSizeLandsEveryByte) {
  const std::size_t n = (1u << 20) + 13;
  std::vector<std::byte> src(n), dst(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::byte>(i * 7 + 3);
  }
  Fixture f(TransportConfig{QpKind::kRc, 2, false});
  f.verbs.reg_cache().register_at_init(0, src.data(), n);
  f.verbs.reg_cache().register_at_init(2, dst.data(), n);
  f.eng.spawn("pe0", [&](sim::Process& p) {
    f.transport->rdma_write(p, 0, src.data(), 2, dst.data(), n)->wait(p);
  });
  f.eng.run();
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.transport->striped_ops(), 1u);
}

TEST(Striping, SmallMessagesStayOnOneRail) {
  Fixture one_rail;
  sim::Time t1 = one_rail.timed_write(4096);
  Fixture two_rail(TransportConfig{QpKind::kRc, 2, false});
  sim::Time t2 = two_rail.timed_write(4096);
  EXPECT_EQ(two_rail.transport->striped_ops(), 0u);
  EXPECT_EQ(t1, t2);  // sub-threshold: identical schedule
}

TEST(Striping, ReadsStripeToo) {
  const std::size_t n = 1u << 20;
  std::vector<std::byte> local(n), remote(n, std::byte{0x5c});
  Fixture f(TransportConfig{QpKind::kDc, 2, true});
  f.verbs.reg_cache().register_at_init(0, local.data(), n);
  f.verbs.reg_cache().register_at_init(2, remote.data(), n);
  f.eng.spawn("pe0", [&](sim::Process& p) {
    f.transport->rdma_read(p, 0, local.data(), 2, remote.data(), n)
        ->wait(p);
  });
  f.eng.run();
  EXPECT_EQ(local, remote);
  EXPECT_EQ(f.transport->striped_ops(), 1u);
}

// ---------------------------------------------------------------------------
// Bounded registration cache.

TEST(RegCacheBound, LruEvictionPastCapacity) {
  hw::ClusterConfig cc = two_node_cluster();
  cc.params.mr_cache_capacity = 2;
  Fixture f(TransportConfig{}, cc);
  RegistrationCache& rcache = f.verbs.reg_cache();
  EXPECT_EQ(rcache.capacity(), 2u);
  std::vector<std::vector<std::byte>> bufs;
  for (int i = 0; i < 3; ++i) bufs.emplace_back(4096);
  f.eng.spawn("pe0", [&](sim::Process& p) {
    for (auto& b : bufs) rcache.get_or_register(p, 0, b.data(), b.size());
    // Third insert evicted buffer 0; re-touching it is a fresh miss.
    EXPECT_FALSE(rcache.covered(0, bufs[0].data(), 64));
    EXPECT_TRUE(rcache.covered(0, bufs[2].data(), 64));
    rcache.get_or_register(p, 0, bufs[0].data(), bufs[0].size());
  });
  f.eng.run();
  EXPECT_EQ(rcache.evictions(), 2u);  // one for the overflow, one re-insert
  EXPECT_EQ(rcache.misses(), 4u);
}

TEST(RegCacheBound, HitsRefreshLruOrder) {
  hw::ClusterConfig cc = two_node_cluster();
  cc.params.mr_cache_capacity = 2;
  Fixture f(TransportConfig{}, cc);
  RegistrationCache& rcache = f.verbs.reg_cache();
  std::vector<std::byte> a(4096), b(4096), c(4096);
  f.eng.spawn("pe0", [&](sim::Process& p) {
    rcache.get_or_register(p, 0, a.data(), a.size());
    rcache.get_or_register(p, 0, b.data(), b.size());
    rcache.get_or_register(p, 0, a.data(), a.size());  // hit: a becomes MRU
    rcache.get_or_register(p, 0, c.data(), c.size());  // evicts b, not a
  });
  f.eng.run();
  EXPECT_TRUE(rcache.covered(0, a.data(), 64));
  EXPECT_FALSE(rcache.covered(0, b.data(), 64));
}

TEST(RegCacheBound, InitTimeRegistrationsArePinned) {
  hw::ClusterConfig cc = two_node_cluster();
  cc.params.mr_cache_capacity = 1;
  Fixture f(TransportConfig{}, cc);
  RegistrationCache& rcache = f.verbs.reg_cache();
  std::vector<std::byte> heap(8192), x(4096), y(4096);
  rcache.register_at_init(0, heap.data(), heap.size());  // e.g. the symmetric heap
  f.eng.spawn("pe0", [&](sim::Process& p) {
    rcache.get_or_register(p, 0, x.data(), x.size());
    rcache.get_or_register(p, 0, y.data(), y.size());
  });
  f.eng.run();
  // Dynamic entries churned through the 1-slot cache; the heap never moves.
  EXPECT_TRUE(rcache.covered(0, heap.data(), 64));
  EXPECT_GE(rcache.evictions(), 1u);
}

TEST(RegCacheBound, ReleaseDropsPinnedAndDynamicEntries) {
  hw::ClusterConfig cc = two_node_cluster();
  cc.params.mr_cache_capacity = 1;
  Fixture f(TransportConfig{}, cc);
  RegistrationCache& rcache = f.verbs.reg_cache();
  std::vector<std::byte> pinned(4096), a(4096), b(4096);
  rcache.register_at_init(0, pinned.data(), pinned.size());
  f.eng.spawn("pe0", [&](sim::Process& p) {
    rcache.get_or_register(p, 0, a.data(), a.size());
    rcache.release(0, pinned.data());
    rcache.release(0, a.data());
    rcache.release(0, b.data());  // nothing starts there: no-op
    EXPECT_FALSE(rcache.covered(0, pinned.data(), 1));
    EXPECT_FALSE(rcache.covered(0, a.data(), 1));
    // The released dynamic entry left no LRU node behind: the one-slot
    // cache takes a new range without evicting anything.
    rcache.get_or_register(p, 0, b.data(), b.size());
    EXPECT_TRUE(rcache.covered(0, b.data(), b.size()));
  });
  f.eng.run();
  EXPECT_EQ(rcache.evictions(), 0u);
  EXPECT_EQ(rcache.misses(), 2u);
}

TEST(RegCacheBound, GrowingAPinnedRangeKeepsItPinned) {
  // Regression: a miss at the base address of a shorter *pinned* entry
  // rewrote it as a dynamic one — silently demoting e.g. the symmetric heap
  // into the evictable LRU. The grow must keep the entry pinned.
  hw::ClusterConfig cc = two_node_cluster();
  cc.params.mr_cache_capacity = 1;
  Fixture f(TransportConfig{}, cc);
  RegistrationCache& rcache = f.verbs.reg_cache();
  std::vector<std::byte> heap(8192), x(4096), y(4096);
  rcache.register_at_init(0, heap.data(), 100);  // short pinned entry
  f.eng.spawn("pe0", [&](sim::Process& p) {
    rcache.get_or_register(p, 0, heap.data(), 200);  // grow in place
    EXPECT_EQ(rcache.grows(), 1u);
    EXPECT_TRUE(rcache.covered(0, heap.data(), 200));
    // Churn the 1-slot dynamic cache; the grown pinned entry must survive.
    rcache.get_or_register(p, 0, x.data(), x.size());
    rcache.get_or_register(p, 0, y.data(), y.size());
  });
  f.eng.run();
  EXPECT_TRUE(rcache.covered(0, heap.data(), 200));
}

TEST(RegCacheBound, GrowingADynamicRangeLeavesOneLruNode) {
  // Regression: the same grow path minted a second LRU node for a dynamic
  // entry while orphaning the old one — inflating lru.size(), shrinking
  // effective capacity, and corrupting eviction order.
  hw::ClusterConfig cc = two_node_cluster();
  cc.params.mr_cache_capacity = 2;
  Fixture f(TransportConfig{}, cc);
  RegistrationCache& rcache = f.verbs.reg_cache();
  std::vector<std::byte> a(8192), b(4096), c(4096);
  f.eng.spawn("pe0", [&](sim::Process& p) {
    rcache.get_or_register(p, 0, a.data(), 4096);
    rcache.get_or_register(p, 0, a.data(), 8192);  // grow in place
    EXPECT_EQ(rcache.grows(), 1u);
    // Capacity 2 must still hold two distinct ranges: a stale duplicate
    // node for `a` would make this insert evict spuriously.
    rcache.get_or_register(p, 0, b.data(), b.size());
    EXPECT_TRUE(rcache.covered(0, a.data(), 8192));
    EXPECT_TRUE(rcache.covered(0, b.data(), 64));
    EXPECT_EQ(rcache.evictions(), 0u);
    // Overflow: exactly one eviction, and it is the true LRU (`a`).
    rcache.get_or_register(p, 0, c.data(), c.size());
    EXPECT_EQ(rcache.evictions(), 1u);
    EXPECT_FALSE(rcache.covered(0, a.data(), 64));
    EXPECT_TRUE(rcache.covered(0, b.data(), 64));
    EXPECT_TRUE(rcache.covered(0, c.data(), 64));
  });
  f.eng.run();
}

// ---------------------------------------------------------------------------
// SRD: segment spraying, deterministic reorder, tracking-buffer gauges.

TEST(SrdTransport, LandsEveryByteDespiteReordering) {
  const std::size_t n = 300001;  // 37 segments at the 8 KiB MTU, odd tail
  std::vector<std::byte> src(n), dst(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::byte>(i * 13 + 5);
  }
  TransportConfig cfg;
  cfg.kind = QpKind::kSrd;
  cfg.srd_jitter_us = 10.0;  // wide window: adjacent segments do invert
  Fixture f(cfg);
  EXPECT_FALSE(f.transport->in_order_delivery());
  f.verbs.reg_cache().register_at_init(0, src.data(), n);
  f.verbs.reg_cache().register_at_init(2, dst.data(), n);
  f.eng.spawn("pe0", [&](sim::Process& p) {
    f.transport->rdma_write(p, 0, src.data(), 2, dst.data(), n)
        ->wait(p);
  });
  f.eng.run();
  EXPECT_EQ(dst, src);
  const std::size_t mtu = f.cluster.params().srd_mtu_bytes;
  EXPECT_EQ(f.transport->srd_segments(), (n + mtu - 1) / mtu);
  // The whole point: segments arrived out of order, and the reorder buffer
  // had to hold more than one in-flight tracking entry.
  EXPECT_GT(f.transport->srd_ooo_deliveries(), 0u);
  EXPECT_GT(f.transport->srd_reorder_entries_hwm(), 1u);
  EXPECT_GT(f.transport->srd_reorder_bytes_hwm(), mtu);
}

TEST(SrdTransport, TwoRailReadSpraysSegmentsAndLandsEveryByte) {
  const std::size_t n = 300001;  // 37 segments at the 8 KiB MTU, odd tail
  TransportConfig cfg;
  cfg.kind = QpKind::kSrd;
  cfg.rails = 2;
  cfg.srd_jitter_us = 10.0;
  Fixture f(cfg);
  f.timed_read(n);
  const std::size_t mtu = f.cluster.params().srd_mtu_bytes;
  EXPECT_EQ(f.transport->striped_ops(), 1u);
  EXPECT_EQ(f.transport->srd_segments(), (n + mtu - 1) / mtu);
}

TEST(SrdTransport, ZeroJitterDeliversInOrder) {
  // GDRSHMEM_IB_SRD_JITTER_US=0 is the A/B isolation knob: srd segmentation
  // with the reordering switched off must deliver strictly in order.
  const std::size_t n = 300001;
  std::vector<std::byte> src(n, std::byte{0x11}), dst(n);
  TransportConfig cfg;
  cfg.kind = QpKind::kSrd;
  cfg.srd_jitter_us = 0.0;
  Fixture f(cfg);
  f.verbs.reg_cache().register_at_init(0, src.data(), n);
  f.verbs.reg_cache().register_at_init(2, dst.data(), n);
  f.eng.spawn("pe0", [&](sim::Process& p) {
    f.transport->rdma_write(p, 0, src.data(), 2, dst.data(), n)
        ->wait(p);
  });
  f.eng.run();
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.transport->srd_ooo_deliveries(), 0u);
}

TEST(SrdTransport, ReorderingIsBitIdenticalPerSeed) {
  const std::size_t n = 300001;
  auto run = [&](std::uint64_t seed) {
    TransportConfig cfg;
    cfg.kind = QpKind::kSrd;
    cfg.srd_seed = seed;
    cfg.srd_jitter_us = 10.0;
    Fixture f(cfg);
    std::vector<std::byte> src(n, std::byte{0x3c}), dst(n);
    f.verbs.reg_cache().register_at_init(0, src.data(), n);
    f.verbs.reg_cache().register_at_init(2, dst.data(), n);
    sim::Time done;
    f.eng.spawn("pe0", [&](sim::Process& p) {
      f.transport->rdma_write(p, 0, src.data(), 2, dst.data(), n)
          ->wait(p);
      done = f.eng.now();
    });
    f.eng.run();
    EXPECT_EQ(dst, src);
    return std::make_tuple(done, f.eng.events_executed(),
                           f.transport->srd_ooo_deliveries());
  };
  auto a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);  // same seed: bit-identical schedule and reordering
  EXPECT_NE(a, c);  // different seed: a different (still valid) schedule
}

TEST(SrdTransport, FootprintIsConstantWithReorderBuffer) {
  TransportConfig cfg;
  cfg.kind = QpKind::kSrd;
  Fixture f(cfg);
  const hw::SystemParams& p = f.cluster.params();
  QpFootprint fp = f.transport->footprint(4096);
  EXPECT_EQ(fp.qps, 1u);  // one datagram QP regardless of peer count
  EXPECT_EQ(fp.context_bytes,
            p.ib_qp_context_bytes + p.ib_qp_ring_bytes +
                static_cast<std::uint64_t>(p.srd_reorder_entries) *
                    p.srd_reorder_entry_bytes);
  EXPECT_EQ(fp.recv_bytes, p.ib_srq_bytes);
}

TEST(SrdTransport, AtomicsAndSendsStayOrdered) {
  // Control messages and atomics ride the ordered service channel; they must
  // work unchanged and never count as sprayed segments.
  TransportConfig cfg;
  cfg.kind = QpKind::kSrd;
  Fixture f(cfg);
  std::uint64_t word = 5;
  f.verbs.reg_cache().register_at_init(2, &word, sizeof(word));
  std::uint64_t old = 0;
  bool delivered = false;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    f.transport->atomic(p, 0, 2, &word, Amo::fetch_add(3), &old)->wait(p);
    f.transport->post_send(p, 0, 2, 64, [&] { delivered = true; })->wait(p);
  });
  f.eng.run();
  EXPECT_EQ(old, 5u);
  EXPECT_EQ(word, 8u);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(f.transport->srd_segments(), 0u);
}

}  // namespace
}  // namespace gdrshmem::ib
