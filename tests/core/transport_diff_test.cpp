// Differential tests across the IB queue-pair transports: the same workload
// under rc, ud, dc, and srd (and 1 vs 2 rails) must land bit-identical
// bytes — only the virtual clock may move — on both device backends, with
// and without a fault plan. Also covers the new GDRSHMEM_IB_* env
// validation and the shmem_info / shmemx transport query surface.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "gdrshmem/shmem.h"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

constexpr ib::QpKind kKinds[] = {ib::QpKind::kRc, ib::QpKind::kUd,
                                 ib::QpKind::kDc, ib::QpKind::kSrd};

std::uint64_t fnv1a(std::uint64_t h, const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

unsigned char pattern(int pe, std::size_t size, std::size_t i) {
  return static_cast<unsigned char>(pe * 131 + size * 29 + i * 7 + 3);
}

struct DiffConfig {
  ib::QpKind kind = ib::QpKind::kRc;
  int rails = 1;
  DeviceBackendKind backend = DeviceBackendKind::kGpuIb;
  std::string faults;
};

/// The Fig 6-9-shaped mixed workload: ring puts and gets in both heap
/// domains at sizes spanning every protocol boundary, remote atomics, an
/// allreduce, and one device-initiated put — then a per-PE FNV checksum of
/// all destination memory, folded over PEs in rank order.
std::uint64_t run_checksum(const DiffConfig& cfg) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = cfg.kind;
  opts.ib_rails = cfg.rails;
  opts.device_backend = cfg.backend;
  opts.host_heap_bytes = 16u << 20;
  opts.gpu_heap_bytes = 16u << 20;
  if (!cfg.faults.empty()) opts.faults = sim::FaultPlan::parse(cfg.faults);

  const std::size_t sizes[] = {7, 1024, 8192, 70000, 300001};
  const std::size_t kMax = 300001;
  std::vector<std::uint64_t> per_pe(4, 0);

  run_spmd(make_cluster(2, 2), opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    const int np = ctx.n_pes();
    const int right = (me + 1) % np;
    std::uint64_t h = 0xcbf29ce484222325ull;

    for (Domain dom : {Domain::kHost, Domain::kGpu}) {
      auto* sym = static_cast<unsigned char*>(ctx.shmalloc(kMax, dom));
      std::vector<unsigned char> src(kMax), back(kMax);
      ctx.barrier_all();
      for (std::size_t n : sizes) {
        for (std::size_t i = 0; i < n; ++i) src[i] = pattern(me, n, i);
        ctx.putmem(sym, src.data(), n, right);
        ctx.quiet();
        ctx.barrier_all();
        h = fnv1a(h, sym, n);  // what the left neighbor wrote here
        ctx.getmem(back.data(), sym, n, right);  // round-trip via get
        h = fnv1a(h, back.data(), n);
        ctx.barrier_all();
      }
    }

    // Remote atomics: commutative, so the final value is order-independent.
    auto* ctr = static_cast<std::int64_t*>(
        ctx.shmalloc(sizeof(std::int64_t), Domain::kHost));
    *ctr = 0;
    ctx.barrier_all();
    for (int k = 0; k < 8; ++k) ctx.atomic_fetch_add(ctr, me + 1, k % np);
    ctx.barrier_all();
    h = fnv1a(h, reinterpret_cast<unsigned char*>(ctr), sizeof(*ctr));

    // Collective over the transport under test.
    auto* red = static_cast<std::int64_t*>(
        ctx.shmalloc(8 * sizeof(std::int64_t), Domain::kHost));
    for (int i = 0; i < 8; ++i) red[i] = (me + 1) * (i + 1);
    ctx.team_reduce(ctx.team_world(), red, red, 8, ReduceOp::kSum);
    h = fnv1a(h, reinterpret_cast<unsigned char*>(red),
              8 * sizeof(std::int64_t));

    // One device-initiated exchange through the selected backend.
    const std::size_t dn = 8u << 10;
    auto* dev = static_cast<unsigned char*>(ctx.shmalloc(dn, Domain::kGpu));
    auto* sig = static_cast<std::uint64_t*>(
        ctx.shmalloc(sizeof(std::uint64_t), Domain::kGpu));
    std::vector<unsigned char> dsrc(dn);
    for (std::size_t i = 0; i < dn; ++i) dsrc[i] = pattern(me, dn, i);
    *sig = 0;
    ctx.barrier_all();
    ctx.launch_kernel_device(1.0, DeviceScope::kThread, [&](DeviceCtx& d) {
      d.put_signal(dev, dsrc.data(), dn, sig, 1, right);
      d.signal_wait_until(sig, Cmp::kGe, 1);
    });
    h = fnv1a(h, dev, dn);
    ctx.barrier_all();
    per_pe[static_cast<std::size_t>(me)] = h;
  });

  std::uint64_t all = 0xcbf29ce484222325ull;
  for (std::uint64_t h : per_pe) {
    all = fnv1a(all, reinterpret_cast<unsigned char*>(&h), sizeof(h));
  }
  return all;
}

TEST(TransportDiff, AllTransportsLandIdenticalBytes) {
  DiffConfig rc;
  const std::uint64_t want = run_checksum(rc);
  for (ib::QpKind kind : kKinds) {
    DiffConfig c;
    c.kind = kind;
    EXPECT_EQ(run_checksum(c), want) << ib::to_string(kind);
  }
}

TEST(TransportDiff, TwoRailStripingPreservesResults) {
  for (ib::QpKind kind :
       {ib::QpKind::kRc, ib::QpKind::kDc, ib::QpKind::kSrd}) {
    DiffConfig one{kind, 1, DeviceBackendKind::kGpuIb, ""};
    DiffConfig two{kind, 2, DeviceBackendKind::kGpuIb, ""};
    EXPECT_EQ(run_checksum(one), run_checksum(two)) << ib::to_string(kind);
  }
}

TEST(TransportDiff, BothDeviceBackendsAgreePerTransport) {
  for (ib::QpKind kind : kKinds) {
    DiffConfig gpu_ib{kind, 1, DeviceBackendKind::kGpuIb, ""};
    DiffConfig reverse{kind, 1, DeviceBackendKind::kReverseOffload, ""};
    EXPECT_EQ(run_checksum(gpu_ib), run_checksum(reverse))
        << ib::to_string(kind);
  }
}

TEST(TransportDiff, FaultPlanPreservesResultsOnEveryTransport) {
  const char* kPlan = "seed=11,wire_error_rate=8e-3,atomic_error_rate=5e-3";
  DiffConfig clean;
  const std::uint64_t want = run_checksum(clean);
  for (ib::QpKind kind : kKinds) {
    DiffConfig c;
    c.kind = kind;
    c.faults = kPlan;
    EXPECT_EQ(run_checksum(c), want) << ib::to_string(kind);
  }
}

TEST(TransportDiff, RunsAreDeterministicPerTransport) {
  for (ib::QpKind kind :
       {ib::QpKind::kUd, ib::QpKind::kDc, ib::QpKind::kSrd}) {
    DiffConfig c;
    c.kind = kind;
    c.rails = 2;
    EXPECT_EQ(run_checksum(c), run_checksum(c)) << ib::to_string(kind);
  }
}

TEST(TransportDiff, ProxyGetLandsEveryChunkBeforeReturn) {
  // A blocking D-D inter-node get served by the proxy's reverse pipeline
  // (Fig 5): three full chunks plus a tail below rail_stripe_min_bytes. On
  // 2 rails the unstriped tail can complete before the striped chunk ahead
  // of it; on srd any chunk can. Whatever the completion order, every byte
  // must be in place the moment getmem returns.
  const std::size_t n = 3 * (256u << 10) + (64u << 10);
  auto config = [](ib::QpKind kind, int rails) {
    DiffConfig c;
    c.kind = kind;
    c.rails = rails;
    return c;
  };
  for (DiffConfig cfg :
       {config(ib::QpKind::kRc, 2), config(ib::QpKind::kSrd, 1)}) {
    RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
    opts.ib_transport = cfg.kind;
    opts.ib_rails = cfg.rails;
    run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
      auto* sym = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kGpu));
      for (std::size_t i = 0; i < n; ++i) sym[i] = pattern(ctx.my_pe(), n, i);
      auto* dst = static_cast<unsigned char*>(ctx.cuda_malloc(n));
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        ctx.getmem(dst, sym, n, 1);
        EXPECT_EQ(ctx.last_protocol(), Protocol::kProxyGet);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(dst[i], pattern(1, n, i))
              << ib::to_string(cfg.kind) << " x" << cfg.rails << " byte " << i;
        }
      }
      ctx.barrier_all();
    });
  }
}

// ---------------------------------------------------------------------------
// Env validation for the new keys.

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

TEST(TransportFromEnv, ParsesTransportRailsAndSrq) {
  ScopedEnv e1("GDRSHMEM_IB_TRANSPORT", "dc");
  ScopedEnv e2("GDRSHMEM_IB_RAILS", "2");
  ScopedEnv e3("GDRSHMEM_IB_SRQ", "on");
  RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.ib_transport, ib::QpKind::kDc);
  EXPECT_EQ(opts.ib_rails, 2);
  EXPECT_TRUE(opts.ib_srq);
}

TEST(TransportFromEnv, ParsesSrdKnobs) {
  ScopedEnv e1("GDRSHMEM_IB_TRANSPORT", "srd");
  ScopedEnv e2("GDRSHMEM_IB_SRD_SEED", "42");
  ScopedEnv e3("GDRSHMEM_IB_SRD_JITTER_US", "2.5");
  RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.ib_transport, ib::QpKind::kSrd);
  EXPECT_EQ(opts.ib_srd_seed, 42u);
  EXPECT_DOUBLE_EQ(opts.ib_srd_jitter_us, 2.5);
}

TEST(TransportFromEnv, SrdKnobDefaults) {
  RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.ib_srd_seed, 1u);
  EXPECT_LT(opts.ib_srd_jitter_us, 0.0);  // negative: keep the params default
}

TEST(TransportFromEnv, RejectsBadValues) {
  {
    ScopedEnv e("GDRSHMEM_IB_TRANSPORT", "xrc");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_RAILS", "4");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_SRQ", "maybe");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_SRD_SEED", "-3");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
  {
    ScopedEnv e("GDRSHMEM_IB_SRD_JITTER_US", "-1.5");
    EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  }
}

// ---------------------------------------------------------------------------
// The query surface: spec version, vendor name, active transport.

TEST(InfoQuery, VersionNameAndTransport) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kDc;
  opts.ib_rails = 2;
  run_spmd(make_cluster(1, 2), opts, [&](Ctx& ctx) {
    capi::Bind bind(ctx);
    int major = 0, minor = 0;
    capi::shmem_info_get_version(&major, &minor);
    EXPECT_EQ(major, SHMEM_MAJOR_VERSION);
    EXPECT_EQ(minor, SHMEM_MINOR_VERSION);
    char name[capi::SHMEM_MAX_NAME_LEN];
    capi::shmem_info_get_name(name);
    EXPECT_EQ(std::string(name), SHMEM_VENDOR_STRING);
    EXPECT_EQ(std::string(capi::shmemx_transport_name()), "dc");
    EXPECT_EQ(capi::shmemx_rail_count(), 2);
  });
}

}  // namespace
}  // namespace gdrshmem::core
