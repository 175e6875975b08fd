// Checkpoint/restore service coverage: the pmem pool allocator (first fit,
// keyed release, windowed repack with pinning, checked against a byte
// shadow of the arena), the open-loop traffic generator's determinism, the
// payload sum (XXH64) and model-state fill, and the end-to-end service —
// fault-free, under eviction and repack pressure, and under a seeded fault
// plan (proxy crash + P2P revocation mid-checkpoint) where the durability
// contract is zero lost acknowledged checkpoints and bit-identical digests
// on both engine backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/checkpoint/payload.hpp"
#include "apps/checkpoint/pool.hpp"
#include "apps/checkpoint/service.hpp"
#include "apps/checkpoint/traffic.hpp"

namespace gdrshmem::apps::ckpt {
namespace {

hw::ClusterConfig cluster(int nodes, int ppn) {
  hw::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.pes_per_node = ppn;
  return cfg;
}

core::RuntimeOptions service_options() {
  core::RuntimeOptions o;
  o.transport = core::TransportKind::kEnhancedGdr;
  o.pmem_heap_bytes = 1u << 16;
  return o;
}

CheckpointConfig small_config() {
  CheckpointConfig cfg;
  cfg.num_servers = 2;
  cfg.pool_bytes = 1u << 16;
  cfg.chunk_bytes = 1024;
  cfg.dir_slots = 4;
  cfg.traffic.seed = 7;
  cfg.traffic.mean_interarrival_us = 40.0;
  cfg.traffic.requests_per_client = 8;
  cfg.traffic.restore_fraction = 0.3;
  cfg.traffic.min_bytes = 1024;
  cfg.traffic.max_bytes = 8192;
  return cfg;
}

// ---- PmemPool ---------------------------------------------------------------

TEST(PmemPoolTest, FirstFitAndRelease) {
  PmemPool pool(16 * 1024, 1024);
  auto a = pool.allocate(1, 1000);   // rounds to 1K at offset 0
  auto b = pool.allocate(2, 2048);   // 2K at 1K
  auto c = pool.allocate(3, 1024);   // 1K at 3K
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->offset, 0u);
  EXPECT_EQ(a->bytes, 1024u);
  EXPECT_EQ(b->offset, 1024u);
  EXPECT_EQ(c->offset, 3072u);
  EXPECT_EQ(pool.used_bytes(), 4096u);
  // Release the middle extent: first fit reuses its gap for a small
  // allocation but skips it for a larger one.
  EXPECT_TRUE(pool.release(2));
  EXPECT_FALSE(pool.release(2));  // idempotent
  auto d = pool.allocate(4, 1024);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->offset, 1024u);
  auto e = pool.allocate(5, 4096);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->offset, 4096u);  // after c, not in the remaining 1K gap
}

TEST(PmemPoolTest, ExhaustionReturnsNullopt) {
  PmemPool pool(4096, 1024);
  EXPECT_TRUE(pool.allocate(1, 4096));
  EXPECT_FALSE(pool.allocate(2, 1));
  EXPECT_TRUE(pool.release(1));
  EXPECT_TRUE(pool.allocate(2, 1));
}

TEST(PmemPoolTest, FragmentationAndRepack) {
  PmemPool pool(8 * 1024, 1024);
  ASSERT_TRUE(pool.allocate(1, 2048));
  ASSERT_TRUE(pool.allocate(2, 2048));
  ASSERT_TRUE(pool.allocate(3, 2048));
  ASSERT_TRUE(pool.allocate(4, 2048));
  pool.release(1);
  pool.release(3);
  // 4K free but split into two 2K holes: a 4K allocation needs a repack.
  EXPECT_EQ(pool.free_bytes(), 4096u);
  EXPECT_FALSE(pool.allocate(9, 4096));
  std::vector<std::uint64_t> moved;
  std::size_t n = pool.repack(
      4096, [&](std::uint64_t key, std::size_t old_off, std::size_t new_off,
                std::size_t bytes) {
        moved.push_back(key);
        EXPECT_LT(new_off, old_off);
        EXPECT_EQ(bytes, 2048u);
      });
  // Sliding key 2 alone joins both holes; key 4 stays where it is.
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(moved, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(pool.find(2)->offset, 0u);
  EXPECT_EQ(pool.find(4)->offset, 6144u);
  auto e = pool.allocate(9, 4096);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->offset, 2048u);
}

TEST(PmemPoolTest, RepackSkipsPinnedExtents) {
  PmemPool pool(8 * 1024, 1024);
  ASSERT_TRUE(pool.allocate(1, 1024));
  ASSERT_TRUE(pool.allocate(2, 1024));
  ASSERT_TRUE(pool.allocate(3, 1024));
  ASSERT_TRUE(pool.allocate(4, 1024));
  pool.release(1);
  pool.release(3);
  auto pin2 = [](std::uint64_t key) { return key == 2; };  // 2 must not move
  auto no_move = [](std::uint64_t, std::size_t, std::size_t, std::size_t) {
    ADD_FAILURE() << "nothing may move";
  };
  // 6K are free, but only a window over pinned 2 would join them all.
  EXPECT_EQ(pool.free_bytes(), 6144u);
  EXPECT_EQ(pool.repack(6144, no_move, pin2), 0u);
  EXPECT_EQ(pool.find(2)->offset, 1024u);
  EXPECT_EQ(pool.find(4)->offset, 3072u);
  // The gap below pinned 2 stays (compaction cannot cross a pinned extent);
  // 4 slides into the gap freed by 3.
  std::size_t n = pool.repack(
      5120, [&](std::uint64_t key, std::size_t, std::size_t, std::size_t) {
        EXPECT_EQ(key, 4u);
      },
      pin2);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(pool.find(2)->offset, 1024u);
  EXPECT_EQ(pool.find(4)->offset, 2048u);
  auto e = pool.allocate(9, 5120);  // the 5K above 4
  ASSERT_TRUE(e);
  EXPECT_EQ(e->offset, 3072u);
}

TEST(PmemPoolTest, RepackPrefersFewerExtentsOnEqualBytes) {
  PmemPool pool(12 * 1024, 1024);
  ASSERT_TRUE(pool.allocate(10, 1024));  // freed below
  ASSERT_TRUE(pool.allocate(1, 1024));
  ASSERT_TRUE(pool.allocate(2, 1024));
  ASSERT_TRUE(pool.allocate(11, 1024));  // freed below
  ASSERT_TRUE(pool.allocate(3, 2048));
  ASSERT_TRUE(pool.allocate(12, 1024));  // freed below
  ASSERT_TRUE(pool.allocate(4, 5120));
  pool.release(10);
  pool.release(11);
  pool.release(12);
  // Three 1K holes. Sliding {1, 2} or {3} both move 2K and free 2K; the
  // single extent wins.
  EXPECT_FALSE(pool.allocate(9, 2048));
  std::vector<std::uint64_t> moved;
  EXPECT_EQ(pool.repack(2048,
                        [&](std::uint64_t key, std::size_t, std::size_t,
                            std::size_t) { moved.push_back(key); }),
            1u);
  EXPECT_EQ(moved, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(pool.find(3)->offset, 3072u);
  auto e = pool.allocate(9, 2048);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->offset, 5120u);
}

/// The cheapest window a repack for `need` may slide, found by trying every
/// run of consecutive unpinned extents: {bytes moved, extents moved}, or
/// {0, 0} when none frees `need`. `live` is sorted by offset.
std::pair<std::size_t, std::size_t> cheapest_window(
    const std::vector<std::pair<Extent, bool>>& live, std::size_t capacity,
    std::size_t need) {
  std::pair<std::size_t, std::size_t> best{0, 0};
  for (std::size_t i = 0; i < live.size(); ++i) {
    const std::size_t base =
        i == 0 ? 0 : live[i - 1].first.offset + live[i - 1].first.bytes;
    std::size_t bytes = 0;
    for (std::size_t j = i; j < live.size() && !live[j].second; ++j) {
      bytes += live[j].first.bytes;
      const std::size_t limit =
          j + 1 == live.size() ? capacity : live[j + 1].first.offset;
      const std::pair<std::size_t, std::size_t> cost{bytes, j - i + 1};
      if (limit - base - bytes >= need && (best.second == 0 || cost < best)) {
        best = cost;
      }
    }
  }
  return best;
}

TEST(PmemPoolTest, RepackPropertiesOnRandomSequences) {
  // Random allocate/release/pin sequences over a small arena, shadowed byte
  // for byte: every allocation gets random contents, and on_move memmoves
  // the shadow exactly as the service memmoves its pmem arena. Whenever an
  // allocation fails, repack must move the cheapest window that frees the
  // request (brute force above), only strictly downward in ascending old
  // offset and never a pinned extent, and the allocation must then succeed.
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kCapacity = 48 * kChunk;
  std::size_t repacks_moved = 0, repacks_blocked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    PmemPool pool(kCapacity, kChunk);
    std::vector<unsigned char> arena(kCapacity);
    std::map<std::uint64_t, std::vector<unsigned char>> contents;
    std::set<std::uint64_t> pinned;
    std::uint64_t next_key = 1;
    auto random_live_key = [&] {
      auto it = contents.begin();
      std::advance(it, static_cast<long>(rng.next_below(contents.size())));
      return it->first;
    };
    for (int step = 0; step < 300; ++step) {
      const std::uint64_t op = rng.next_below(10);
      if (op < 5) {
        const std::uint64_t key = next_key++;
        const std::size_t bytes = 1 + rng.next_below(8 * kChunk);
        const std::size_t need = pool.rounded(bytes);
        auto ext = pool.allocate(key, bytes);
        if (!ext) {
          std::vector<std::pair<Extent, bool>> live;
          for (const auto& [k, v] : contents) {
            live.emplace_back(*pool.find(k), pinned.count(k) != 0);
          }
          std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
            return a.first.offset < b.first.offset;
          });
          const auto want = cheapest_window(live, kCapacity, need);
          std::size_t moved_bytes = 0, last_old = 0;
          const std::size_t n = pool.repack(
              need,
              [&](std::uint64_t k, std::size_t old_off, std::size_t new_off,
                  std::size_t b) {
                EXPECT_LT(new_off, old_off);
                if (moved_bytes > 0) {
                  EXPECT_GT(old_off, last_old);
                }
                EXPECT_EQ(pinned.count(k), 0u) << "pinned key " << k;
                EXPECT_EQ(b, contents.at(k).size());
                std::memmove(arena.data() + new_off, arena.data() + old_off, b);
                moved_bytes += b;
                last_old = old_off;
              },
              [&](std::uint64_t k) { return pinned.count(k) != 0; });
          EXPECT_EQ(n > 0, want.second > 0);
          EXPECT_EQ(moved_bytes, want.first);
          EXPECT_EQ(n, want.second);
          if (n > 0) {
            ++repacks_moved;
            ext = pool.allocate(key, bytes);
            EXPECT_TRUE(ext) << "repack for " << need << " bytes left no room";
          } else if (pool.free_bytes() >= need) {
            ++repacks_blocked;  // enough free bytes, but pins split them
          }
        }
        if (ext) {
          std::vector<unsigned char>& c = contents[key];
          c.resize(ext->bytes);
          for (auto& byte : c) byte = static_cast<unsigned char>(rng.next_u64());
          std::memcpy(arena.data() + ext->offset, c.data(), c.size());
          if (rng.next_below(3) == 0) pinned.insert(key);
        }
      } else if (op < 8 && !contents.empty()) {
        const std::uint64_t key = random_live_key();
        EXPECT_TRUE(pool.release(key));
        contents.erase(key);
        pinned.erase(key);
      } else if (!contents.empty()) {
        const std::uint64_t key = random_live_key();
        if (!pinned.erase(key)) pinned.insert(key);
      }
      for (const auto& [key, c] : contents) {
        auto ext = pool.find(key);
        ASSERT_TRUE(ext);
        ASSERT_EQ(std::memcmp(arena.data() + ext->offset, c.data(), c.size()),
                  0)
            << "key " << key << " lost its bytes at step " << step;
      }
    }
  }
  // Both outcomes occurred: windows that moved, and pins that blocked one.
  EXPECT_GT(repacks_moved, 0u);
  EXPECT_GT(repacks_blocked, 0u);
}

TEST(PmemPoolTest, RejectsBadGeometry) {
  EXPECT_THROW(PmemPool(4096, 1000), std::invalid_argument);  // not a pow2
  EXPECT_THROW(PmemPool(512, 1024), std::invalid_argument);   // < one chunk
  PmemPool pool(4096, 1024);
  ASSERT_TRUE(pool.allocate(1, 10));
  EXPECT_THROW(pool.allocate(1, 10), std::invalid_argument);  // key reuse
}

// ---- traffic ----------------------------------------------------------------

TEST(TrafficTest, DeterministicPerSeedAndClient) {
  OpenLoopParams p;
  p.seed = 42;
  p.requests_per_client = 32;
  auto a = make_open_loop(p, 3);
  auto b = make_open_loop(p, 3);
  ASSERT_EQ(a.size(), 32u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_us, b[i].at_us);
    EXPECT_EQ(a[i].restore, b[i].restore);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
  auto c = make_open_loop(p, 4);  // a different client draws differently
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at_us != c[i].at_us || a[i].bytes != c[i].bytes) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(TrafficTest, ShapeRespectsParams) {
  OpenLoopParams p;
  p.seed = 9;
  p.requests_per_client = 200;
  p.min_bytes = 2048;
  p.max_bytes = 32768;
  p.restore_fraction = 0.25;
  auto reqs = make_open_loop(p, 0);
  EXPECT_FALSE(reqs.front().restore);  // first op is always a checkpoint
  double prev = 0;
  int restores = 0;
  for (const auto& r : reqs) {
    EXPECT_GT(r.at_us, prev);  // arrivals strictly increase
    prev = r.at_us;
    if (r.restore) {
      ++restores;
      EXPECT_EQ(r.bytes, 0u);
    } else {
      EXPECT_GE(r.bytes, p.min_bytes);
      EXPECT_LE(r.bytes, (p.max_bytes + 63) / 64 * 64);
      EXPECT_EQ(r.bytes % 64, 0u);
    }
  }
  EXPECT_GT(restores, 20);   // ~50 expected
  EXPECT_LT(restores, 100);
}

// ---- payload sum and model-state fill ---------------------------------------

std::vector<unsigned char> iota_bytes(std::size_t n) {
  std::vector<unsigned char> v(n);
  std::iota(v.begin(), v.end(), static_cast<unsigned char>(0));
  return v;
}

TEST(PayloadSumTest, MatchesPublishedXxh64Vectors) {
  // Seed 0. Together these reach every path: the short-input start ("",
  // "abc"), one stripe plus the 8-, 4- and 1-byte tails (47), three stripes
  // plus a 4-byte tail (100), and whole stripes only (256).
  EXPECT_EQ(xxh64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64("abc", 3), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(xxh64(iota_bytes(47).data(), 47), 0x0D9883A03E7BFBB8ULL);
  EXPECT_EQ(xxh64(iota_bytes(100).data(), 100), 0x6AC1E58032166597ULL);
  EXPECT_EQ(xxh64(iota_bytes(256).data(), 256), 0x1FACBE8406CD904BULL);
}

TEST(PayloadSumTest, EverySingleBitFlipChangesTheSum) {
  std::vector<unsigned char> buf = iota_bytes(257);  // 8 stripes + 1 byte
  const std::uint64_t clean = xxh64(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {  // 257 x 8 = 2,056 flips
      buf[i] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(xxh64(buf.data(), buf.size()), clean)
          << "byte " << i << " bit " << bit;
      buf[i] ^= static_cast<unsigned char>(1u << bit);
    }
  }
}

TEST(PayloadSumTest, UnalignedStartGivesTheAlignedSum) {
  const std::vector<unsigned char> src = iota_bytes(257);
  alignas(8) unsigned char shifted[257 + 8];
  for (std::size_t n : {0u, 3u, 47u, 100u, 257u}) {
    const std::uint64_t aligned = xxh64(src.data(), n);
    for (std::size_t off = 1; off <= 7; ++off) {
      std::memcpy(shifted + off, src.data(), n);
      EXPECT_EQ(xxh64(shifted + off, n), aligned)
          << "length " << n << " offset " << off;
    }
  }
}

/// Reference model-state fill, straight from the definition: one splitmix64
/// draw per 8 bytes, each copied with a length clamped to what is left.
std::vector<std::byte> reference_model_state(std::uint64_t seed, int ci,
                                            std::uint64_t version,
                                            std::size_t bytes) {
  sim::Rng rng(seed ^ mix64(static_cast<std::uint64_t>(ci) + 1) ^
               mix64(version * 0x9e3779b97f4a7c15ULL + 7));
  std::vector<std::byte> buf(bytes);
  std::size_t i = 0;
  while (i < bytes) {
    std::uint64_t w = rng.next_u64();
    std::size_t n = std::min<std::size_t>(8, bytes - i);
    std::memcpy(buf.data() + i, &w, n);
    i += n;
  }
  return buf;
}

TEST(ModelStateTest, WordWideFillMatchesReferenceLoop) {
  std::vector<std::size_t> lengths(131);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(32768);
  std::vector<std::byte> buf;
  for (std::size_t n : lengths) {
    // Reuse one buffer across lengths, as the client does.
    fill_model_state(7, 3, n + 1, buf, n);
    EXPECT_EQ(buf, reference_model_state(7, 3, n + 1, n)) << "length " << n;
  }
}

// ---- service end-to-end -----------------------------------------------------

TEST(CheckpointServiceTest, FaultFreeServesAndRestores) {
  auto res = run_checkpoint_service(cluster(3, 4), service_options(),
                                    small_config());
  EXPECT_GT(res.checkpoints_acked, 0u);
  EXPECT_GT(res.restores_ok, 0u);
  EXPECT_EQ(res.lost_acked, 0u);
  EXPECT_GT(res.bytes_acked, 0u);
  EXPECT_GT(res.goodput_mbps, 0.0);
  EXPECT_GT(res.makespan_ms, 0.0);
  EXPECT_GT(res.ckpt_p50_ns, 0u);
  EXPECT_GE(res.ckpt_p99_ns, res.ckpt_p50_ns);
  EXPECT_GE(res.ckpt_p999_ns, res.ckpt_p99_ns);
  EXPECT_GT(res.restore_p50_ns, 0u);
}

TEST(CheckpointServiceTest, EvictionPressureNeverLosesLatest) {
  // A deliberately tight pool under many large checkpoints: big enough that
  // second versions land (and then turn cold), small enough that grants must
  // evict them and repack — yet every restore of a latest-acked version is
  // byte-identical. (Smaller pools just reject everything: the latest acked
  // version per client is never evictable, and those alone overflow 16K.)
  // Some restores race a repack move and must re-read under the seqlock,
  // with and without a fault plan.
  auto cfg = small_config();
  cfg.pool_bytes = 32 * 1024;
  cfg.chunk_bytes = 1024;
  cfg.dir_slots = 2;
  cfg.traffic.requests_per_client = 10;
  cfg.traffic.min_bytes = 2048;
  cfg.traffic.max_bytes = 6144;
  for (const char* plan : {"", "seed=5,crash=1@400,revoke=2@300"}) {
    SCOPED_TRACE(std::string("fault plan \"") + plan + "\"");
    auto opts = service_options();
    if (*plan != '\0') opts.faults = sim::FaultPlan::parse(plan);
    auto res = run_checkpoint_service(cluster(3, 4), opts, cfg);
    EXPECT_GT(res.checkpoints_acked, 0u);
    EXPECT_EQ(res.lost_acked, 0u);
    // The pressure actually materialized: space was reclaimed some way —
    // eviction, slot supersede, or both — and by compaction.
    EXPECT_GT(res.evictions + res.supersedes, 0u);
    EXPECT_GT(res.repacks, 0u);
    EXPECT_GT(res.restore_retries, 0u);
  }
}

TEST(CheckpointServiceTest, DeterministicAcrossEngineBackends) {
  auto cfg = small_config();
  auto opts = service_options();
  opts.sim_backend = sim::BackendKind::kFibers;
  auto a = run_checkpoint_service(cluster(3, 4), opts, cfg);
  opts.sim_backend = sim::BackendKind::kThreads;
  auto b = run_checkpoint_service(cluster(3, 4), opts, cfg);
  EXPECT_EQ(a.digest, b.digest);  // includes virtual-time latencies
  EXPECT_EQ(a.checkpoints_acked, b.checkpoints_acked);
  EXPECT_EQ(a.restores_ok, b.restores_ok);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
}

TEST(CheckpointServiceTest, SurvivesProxyCrashAndP2pRevokeMidCheckpoint) {
  auto cfg = small_config();
  auto opts = service_options();
  // Crash the proxy on the server node and revoke P2P on a client node
  // while traffic is in flight; staged transfers replay, GPU-source puts
  // reroute through host staging.
  opts.faults = sim::FaultPlan::parse("seed=5,crash=0@150,revoke=1@120");
  auto res = run_checkpoint_service(cluster(3, 4), opts, cfg);
  EXPECT_GT(res.checkpoints_acked, 0u);
  EXPECT_GT(res.restores_ok, 0u);
  EXPECT_EQ(res.lost_acked, 0u);  // zero lost acknowledged checkpoints
}

TEST(CheckpointServiceTest, FaultPlanDeterministicAcrossBackends) {
  auto cfg = small_config();
  auto opts = service_options();
  opts.faults = sim::FaultPlan::parse("seed=5,crash=0@150,revoke=1@120");
  opts.sim_backend = sim::BackendKind::kFibers;
  auto a = run_checkpoint_service(cluster(3, 4), opts, cfg);
  opts.sim_backend = sim::BackendKind::kThreads;
  auto b = run_checkpoint_service(cluster(3, 4), opts, cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.lost_acked, 0u);
  EXPECT_EQ(b.lost_acked, 0u);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
}

TEST(CheckpointServiceTest, RestoreByteCompareIsACheckOnly) {
  // verify_restores only adds a byte compare on top of the payload sums; it
  // must not change what the service does, fault plan or not.
  sim::FaultPlan faulted =
      sim::FaultPlan::parse("seed=5,crash=1@400,revoke=2@300");
  std::vector<std::uint64_t> digests;
  for (const sim::FaultPlan& plan : {sim::FaultPlan{}, faulted}) {
    SCOPED_TRACE(plan.enabled() ? "faulted" : "fault-free");
    auto opts = service_options();
    opts.faults = plan;
    auto cfg = small_config();
    cfg.verify_restores = true;
    auto checked = run_checkpoint_service(cluster(3, 4), opts, cfg);
    cfg.verify_restores = false;
    auto unchecked = run_checkpoint_service(cluster(3, 4), opts, cfg);
    EXPECT_GT(checked.restores_ok, 0u);
    EXPECT_EQ(checked.lost_acked, 0u);
    EXPECT_EQ(checked.checkpoints_acked, unchecked.checkpoints_acked);
    EXPECT_EQ(checked.restores_ok, unchecked.restores_ok);
    EXPECT_EQ(checked.lost_acked, unchecked.lost_acked);
    EXPECT_EQ(checked.digest, unchecked.digest);
    digests.push_back(checked.digest);
  }
  EXPECT_NE(digests[0], digests[1]);  // the crash and revoke do land mid-run
}

TEST(CheckpointServiceTest, RequiresPmemHeapAndServers) {
  auto cfg = small_config();
  core::RuntimeOptions no_pmem;
  no_pmem.transport = core::TransportKind::kEnhancedGdr;
  EXPECT_THROW(run_checkpoint_service(cluster(3, 4), no_pmem, cfg),
               core::ShmemError);
  auto opts = service_options();
  cfg.num_servers = 1;
  EXPECT_THROW(run_checkpoint_service(cluster(3, 4), opts, cfg),
               core::ShmemError);
  cfg.num_servers = 12;  // every PE a server, no clients
  EXPECT_THROW(run_checkpoint_service(cluster(3, 4), opts, cfg),
               core::ShmemError);
}

}  // namespace
}  // namespace gdrshmem::apps::ckpt
