// Registration misses off the critical path (DESIGN §5j). An inter-node
// transfer larger than its direct-GDR window whose local buffer the
// registration cache does not cover runs its protocol's staged sibling
// through the PE's staging ring, while the PE's registration helper
// registers the buffer; once that registration ends the same transfer goes
// zero-copy. Ops inside their GDR window keep registering on the calling
// PE. Also the ring's registration after the bounce buffer grows.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ib/verbs.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

constexpr std::size_t kMiB = 1u << 20;

/// A byte pattern that differs between offsets a chunk apart, so a chunk
/// copied from or into the wrong bounce slot shows.
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

/// What a registration of `n` bytes costs, on the helper or on a PE.
double registration_us(std::size_t n) {
  const hw::SystemParams p = make_cluster(2, 1).params;
  return p.mr_register_base_us +
         p.mr_register_per_mb_us * static_cast<double>(n) / 1e6;
}

/// Let virtual time pass until the PE's helper has registered [buf, buf+n),
/// at most the registration's cost; false if it has not by then.
bool await_registration(Ctx& ctx, const void* buf, std::size_t n) {
  const ib::RegistrationCache& cache = ctx.runtime().verbs().reg_cache();
  const sim::Time deadline = ctx.now() + sim::Duration::us(registration_us(n));
  while (!cache.covered(ctx.my_pe(), buf, n)) {
    if (ctx.now() >= deadline) return false;
    ctx.compute(sim::Duration::us(10));
  }
  return true;
}

struct Case {
  bool put;
  bool local_dev;
  Domain remote;
  std::size_t bytes;
  bool same_socket;
  Protocol first;   // on the unregistered buffer
  Protocol second;  // once the helper registered it
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string s = c.put ? "PutFrom" : "GetInto";
  s += c.local_dev ? "Device" : "Host";
  s += c.put ? "Into" : "From";
  s += c.remote == Domain::kGpu ? "Gpu" : "Host";
  s += std::to_string(c.bytes / kMiB) + "MiB";
  s += c.same_socket ? "SameSocket" : "InterSocket";
  return s;
}

/// One transfer of a first-use pair: its protocol, its latency to remote
/// completion, whether every byte landed, and the cache's counters across it.
struct Transfer {
  Protocol proto = Protocol::kCount_;
  double us = 0;
  bool landed = false;
  std::uint64_t misses = 0;
  std::uint64_t hits = 0;
};

struct Pair {
  Transfer first;
  Transfer second;
  bool registered = false;  // by the helper, before the second transfer
  sim::Time end;
};

/// On 2 nodes x 1 PE, PE 0 moves `c.bytes` between a fresh local buffer and
/// PE 1's heap: once on the unregistered buffer, and again, with a new
/// payload, once the helper registered it.
Pair run_pair(const Case& c, RuntimeOptions opts) {
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  Pair out;
  Runtime rt(make_cluster(2, 1, c.same_socket), opts);
  const ib::RegistrationCache& cache = rt.verbs().reg_cache();
  rt.run([&](Ctx& ctx) {
    auto* sym = static_cast<unsigned char*>(ctx.shmalloc(c.bytes, c.remote));
    std::vector<unsigned char> host(c.bytes);
    unsigned char* local =
        c.local_dev ? static_cast<unsigned char*>(ctx.cuda_malloc(c.bytes))
                    : host.data();
    for (int round = 0; round < 2; ++round) {
      Transfer& t = round == 0 ? out.first : out.second;
      const int tag = 10 + round;
      if (!c.put && ctx.my_pe() == 1) fill(sym, c.bytes, tag);
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        if (round == 1) {
          out.registered = await_registration(ctx, local, c.bytes);
        }
        if (c.put) fill(local, c.bytes, tag);
        const std::uint64_t misses = cache.misses();
        const std::uint64_t hits = cache.hits();
        const sim::Time t0 = ctx.now();
        if (c.put) {
          ctx.putmem(sym, local, c.bytes, 1);
        } else {
          ctx.getmem(local, sym, c.bytes, 1);
        }
        t.proto = ctx.last_protocol();
        ctx.quiet();
        t.us = (ctx.now() - t0).to_us();
        t.misses = cache.misses() - misses;
        t.hits = cache.hits() - hits;
        if (!c.put) t.landed = holds(local, c.bytes, tag);
      }
      ctx.barrier_all();
      if (c.put && ctx.my_pe() == 1) t.landed = holds(sym, c.bytes, tag);
    }
    ctx.barrier_all();
  });
  out.end = rt.engine().now();
  return out;
}

class RegistrationMiss : public ::testing::TestWithParam<Case> {};

TEST_P(RegistrationMiss, FirstUseStagesThenGoesZeroCopy) {
  // On every QP kind: the first use stages and leaves the registration to
  // the helper, one miss counted when issued; once the helper is done, the
  // same transfer hits the cache and posts the buffer in place.
  const Case c = GetParam();
  const Pair p = run_pair(c, make_options(TransportKind::kEnhancedGdr));
  EXPECT_STREQ(to_string(p.first.proto), to_string(c.first));
  EXPECT_TRUE(p.first.landed);
  EXPECT_EQ(p.first.misses, 1u);
  EXPECT_TRUE(p.registered);
  EXPECT_STREQ(to_string(p.second.proto), to_string(c.second));
  EXPECT_TRUE(p.second.landed);
  EXPECT_EQ(p.second.misses, 0u);
  EXPECT_GE(p.second.hits, 1u);
}

TEST_P(RegistrationMiss, FirstUseBeatsRegisteringFirst) {
  // On the paper's RC fabric, none of the registration's cost reaches the
  // first use: registering first would cost the registration plus the
  // zero-copy transfer.
  const Case c = GetParam();
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kRc;
  const Pair p = run_pair(c, opts);
  EXPECT_LT(p.first.us, registration_us(c.bytes) + p.second.us)
      << "then " << p.second.us << " us";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RegistrationMiss,
    ::testing::Values(
        // A host source into a GPU: direct-gdr's sibling is
        // pipeline-gdr-write; inter-socket, proxy-put bounces it.
        Case{true, false, Domain::kGpu, kMiB, true, Protocol::kPipelineGdrWrite,
             Protocol::kDirectGdr},
        Case{true, false, Domain::kGpu, 4 * kMiB, true,
             Protocol::kPipelineGdrWrite, Protocol::kDirectGdr},
        Case{true, false, Domain::kGpu, kMiB, false, Protocol::kProxyPut,
             Protocol::kProxyPut},
        Case{true, false, Domain::kGpu, 4 * kMiB, false, Protocol::kProxyPut,
             Protocol::kProxyPut},
        // A get into a device buffer from host memory: host-staged-get.
        Case{false, true, Domain::kHost, kMiB, true, Protocol::kHostStagedGet,
             Protocol::kDirectGdr},
        Case{false, true, Domain::kHost, 4 * kMiB, true,
             Protocol::kHostStagedGet, Protocol::kDirectGdr},
        // A get into a host buffer from a GPU: proxy-get's staged mode.
        Case{false, false, Domain::kGpu, kMiB, true, Protocol::kProxyGet,
             Protocol::kProxyGet},
        Case{false, false, Domain::kGpu, 4 * kMiB, true, Protocol::kProxyGet,
             Protocol::kProxyGet},
        // A get into a device buffer from a GPU: proxy-get again.
        Case{false, true, Domain::kGpu, 4 * kMiB, true, Protocol::kProxyGet,
             Protocol::kProxyGet}),
    case_name);

TEST(RegistrationMiss, BackToBackMissesOnOneRangeRegisterOnce) {
  // Two nbi puts of one unregistered source before quiet(): both stage, and
  // the helper registers the range once. Pinned to RC, where the first
  // call returns before the helper's registration ends.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kRc;
  opts.gpu_heap_bytes = 8u << 20;
  std::uint64_t misses = 0;
  bool landed = false;
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    auto* dst =
        static_cast<unsigned char*>(ctx.shmalloc(2 * kMiB, Domain::kGpu));
    std::vector<unsigned char> src(kMiB);
    fill(src.data(), kMiB, 3);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      const std::uint64_t before = ctx.runtime().verbs().reg_cache().misses();
      ctx.putmem_nbi(dst, src.data(), kMiB, 1);
      ctx.putmem_nbi(dst + kMiB, src.data(), kMiB, 1);
      ctx.quiet();
      misses = ctx.runtime().verbs().reg_cache().misses() - before;
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      landed = holds(dst, kMiB, 3) && holds(dst + kMiB, kMiB, 3);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(rt->stats().ops(Protocol::kPipelineGdrWrite), 2u);
  EXPECT_EQ(rt->stats().ops(Protocol::kDirectGdr), 0u);
  EXPECT_TRUE(landed);
}

TEST(RegistrationMiss, OpInsideItsGdrWindowRegistersSynchronously) {
  // A 64 KiB host source into a GPU fits direct-gdr's 256 KiB write window:
  // it registers on the calling PE before it posts, as before.
  constexpr std::size_t n = 64u << 10;
  double call_us = 0;
  bool registered = false;
  std::uint64_t misses = 0;
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    void* dst = ctx.shmalloc(n, Domain::kGpu);
    std::vector<unsigned char> src(n);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      const ib::RegistrationCache& cache = ctx.runtime().verbs().reg_cache();
      const std::uint64_t before = cache.misses();
      const sim::Time t0 = ctx.now();
      ctx.putmem(dst, src.data(), n, 1);
      call_us = (ctx.now() - t0).to_us();
      registered = cache.covered(0, src.data(), n);
      misses = cache.misses() - before;
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(rt->stats().ops(Protocol::kDirectGdr), 1u);
  EXPECT_TRUE(registered);
  EXPECT_EQ(misses, 1u);
  EXPECT_GE(call_us, registration_us(n));
}

TEST(RegistrationMiss, ProxyCrashMidStagedGetIntoFreshHostBuffer) {
  // The serving node's proxy dies 300 us into a 4 MiB get into a fresh host
  // buffer, which streams through the bounce slots: the requester times
  // out, reissues, and still receives every byte.
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  opts.faults = sim::FaultPlan::parse("crash=1@300");
  constexpr std::size_t n = 4 * kMiB;
  bool landed = false;
  std::uint64_t misses = 0;
  auto rt = run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    void* src = ctx.shmalloc(n, Domain::kGpu);
    if (ctx.my_pe() == 1) fill(src, n, 7);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<unsigned char> out(n, 0xee);
      const std::uint64_t before = ctx.runtime().verbs().reg_cache().misses();
      ctx.getmem(out.data(), src, n, 1);
      misses = ctx.runtime().verbs().reg_cache().misses() - before;
      landed = holds(out.data(), n, 7);
    }
    ctx.barrier_all();
  });
  EXPECT_TRUE(landed);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(rt->stats().ops(Protocol::kProxyGet), 1u);
  EXPECT_EQ(rt->faults().count(sim::FaultEvent::kProxyCrash), 1u);
  EXPECT_GE(rt->faults().count(sim::FaultEvent::kProxyReissue), 1u);
}

TEST(RegistrationMiss, SameOnBothEngineBackends) {
  const Case cases[] = {
      {true, false, Domain::kGpu, 4 * kMiB, false, Protocol::kProxyPut,
       Protocol::kProxyPut},
      {false, false, Domain::kGpu, 4 * kMiB, true, Protocol::kProxyGet,
       Protocol::kProxyGet}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.put ? "put" : "get");
    Pair runs[2];
    int i = 0;
    for (sim::BackendKind b :
         {sim::BackendKind::kFibers, sim::BackendKind::kThreads}) {
      RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
      opts.sim_backend = b;
      runs[i++] = run_pair(c, opts);
    }
    EXPECT_TRUE(runs[0].first.landed && runs[0].second.landed);
    EXPECT_EQ(runs[0].first.us, runs[1].first.us);
    EXPECT_EQ(runs[0].second.us, runs[1].second.us);
    EXPECT_EQ(runs[0].end, runs[1].end);
  }
}

TEST(RegistrationMiss, RegrownBounceStaysRegistered) {
  // A bounce buffer grown past the ring's size registers pinned, and the
  // ring registered at init stays: 130 fresh registrations later (above
  // the 128-entry cache), a device-source put still stages through
  // registered slots.
  constexpr std::size_t n = kMiB;
  constexpr std::size_t kRange = 64u << 10;
  auto put_us = [](std::size_t fresh_registrations) {
    double us = 0;
    std::uint64_t misses = 0;
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
      void* dst = ctx.shmalloc(n, Domain::kGpu);
      void* src = ctx.cuda_malloc(n);
      std::vector<std::byte> pool(fresh_registrations * kRange);
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        ib::RegistrationCache& cache = ctx.runtime().verbs().reg_cache();
        ctx.bounce(4 * kMiB);
        for (std::size_t i = 0; i < fresh_registrations; ++i) {
          cache.get_or_register(ctx.proc(), 0, pool.data() + i * kRange,
                                kRange);
        }
        const std::uint64_t before = cache.misses();
        const sim::Time t0 = ctx.now();
        ctx.putmem(dst, src, n, 1);
        ctx.quiet();
        us = (ctx.now() - t0).to_us();
        misses = cache.misses() - before;
      }
      ctx.barrier_all();
    });
    EXPECT_EQ(misses, 0u) << fresh_registrations << " fresh registrations";
    return us;
  };
  EXPECT_EQ(put_us(130), put_us(0));
}

}  // namespace
}  // namespace gdrshmem::core
