// Virtual time depends only on the program, never on where its host
// buffers live: the same operations issued from different stack depths and
// heap offsets give the same run, fault-free and under a fault plan, from
// the host or from a resident kernel whose ops the proxy posts. Also pins
// that a regrown runtime staging buffer gives up its old registration.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;

/// Call `fn` `depth` frames below the caller. Each frame holds 256 bytes of
/// padding, so the locals of `fn` and of everything it calls (the value of
/// a p, the result of a g, the signal word of a put_signal, a barrier's
/// flag) sit at a different stack address for every depth.
template <typename Fn>
[[gnu::noinline]] void at_depth(int depth, Fn& fn) {
  if (depth == 0) {
    fn();
    return;
  }
  volatile unsigned char pad[256];
  pad[0] = static_cast<unsigned char>(depth);
  at_depth(depth - 1, fn);
  pad[1] = pad[0];  // keeps the frame live across the call
}

struct PlacementRun {
  std::int64_t end_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t reg_misses = 0;
};

constexpr int kRounds = 40;
constexpr std::size_t kMsg = 64;

/// Two PEs on two nodes exchange p, g, put_signal and 64-byte
/// putmem_nbi/getmem_nbi/getmem for kRounds rounds. The p/g word and the get
/// source live in `domain`. With `vary`, round r runs r % 8 frames deep and
/// uses a private heap buffer at offset (r % 8) * 512 bytes; otherwise every
/// round runs in the same frame on the same buffer.
PlacementRun run_rounds(const std::string& plan, bool vary, Domain domain) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.host_heap_bytes = 8u << 20;
  opts.gpu_heap_bytes = 8u << 20;
  opts.faults = sim::FaultPlan::parse(plan);
  Runtime rt(make_cluster(2, 1), opts);
  rt.run([&](Ctx& ctx) {
    const int me = ctx.my_pe();
    const int peer = 1 - me;
    auto* word = static_cast<std::int64_t*>(ctx.shmalloc(8, domain));
    auto* sig = static_cast<std::uint64_t*>(ctx.shmalloc(8, Domain::kHost));
    auto* put_dst =
        static_cast<unsigned char*>(ctx.shmalloc(2 * kMsg, Domain::kHost));
    auto* get_src = static_cast<unsigned char*>(ctx.shmalloc(kMsg, domain));
    std::memset(get_src, me + 1, kMsg);
    std::vector<unsigned char> heap(7 * 512 + 2 * kMsg);
    ctx.barrier_all();
    for (int r = 0; r < kRounds; ++r) {
      const int slot = vary ? r % 8 : 0;
      unsigned char* buf = heap.data() + slot * 512;
      auto round = [&] {
        ctx.p(word, std::int64_t{r}, peer);
        EXPECT_LE(ctx.g(word, peer), r);
        std::memset(buf, r, kMsg);
        ctx.put_signal(put_dst, buf, kMsg, sig, std::uint64_t(r + 1), peer);
        ctx.putmem_nbi(put_dst + kMsg, buf, kMsg, peer);
        ctx.getmem_nbi(buf + kMsg, get_src, kMsg, peer);
        ctx.getmem(buf, get_src, kMsg, peer);
        EXPECT_EQ(buf[kMsg - 1], peer + 1);
        ctx.signal_wait_until(sig, Cmp::kGe, std::uint64_t(r + 1));
        ctx.barrier_all();  // quiets the nbi put and get first
      };
      at_depth(slot, round);
      EXPECT_EQ(put_dst[kMsg - 1], r);
      EXPECT_EQ(put_dst[2 * kMsg - 1], r);
      EXPECT_EQ(buf[2 * kMsg - 1], peer + 1);
    }
  });
  return {rt.engine().now().count_ns(), rt.engine().events_executed(),
          rt.verbs().reg_cache().misses()};
}

TEST(Placement, VirtualTimeIgnoresStackDepthAndHeapOffset) {
  // Under the revoke plan, a g or 64-byte get of a GPU word on the revoked
  // node takes proxy-get into a small host buffer.
  const char* revoke = "seed=5,crash=1@400,revoke=1@300";
  for (auto [plan, domain] : {std::pair{"", Domain::kHost},
                              std::pair{revoke, Domain::kHost},
                              std::pair{revoke, Domain::kGpu}}) {
    SCOPED_TRACE(std::string("plan '") + plan + "', " +
                 (domain == Domain::kGpu ? "GPU" : "host") + " word");
    PlacementRun fixed = run_rounds(plan, /*vary=*/false, domain);
    PlacementRun moved = run_rounds(plan, /*vary=*/true, domain);
    EXPECT_EQ(fixed.end_ns, moved.end_ns);
    EXPECT_EQ(fixed.events, moved.events);
    EXPECT_EQ(fixed.reg_misses, moved.reg_misses);
  }
}

/// Two PEs on two nodes, each in one resident kernel on the reverse-offload
/// backend, exchange p, g and put_signal for kRounds rounds; with `vary`,
/// round r runs r % 8 frames deep. The proxy posts each op under the
/// requester's endpoint, so the kernel's p value, g result and signal word
/// are host ranges the Verbs registration rule leaves unregistered.
PlacementRun run_device_rounds(bool vary) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.device_backend = DeviceBackendKind::kReverseOffload;
  opts.host_heap_bytes = 8u << 20;
  opts.gpu_heap_bytes = 8u << 20;
  Runtime rt(make_cluster(2, 1), opts);
  rt.run([&](Ctx& ctx) {
    const int peer = 1 - ctx.my_pe();
    auto* word = static_cast<std::int64_t*>(ctx.shmalloc(8, Domain::kGpu));
    auto* dst = static_cast<std::int64_t*>(ctx.shmalloc(8, Domain::kGpu));
    auto* sig = static_cast<std::uint64_t*>(ctx.shmalloc(8, Domain::kGpu));
    ctx.barrier_all();
    ctx.launch_kernel_device(1.0, DeviceScope::kThread, [&](DeviceCtx& d) {
      for (int r = 0; r < kRounds; ++r) {
        auto round = [&] {
          d.p(word, std::int64_t{r}, peer);
          EXPECT_EQ(d.g(word, peer), r);
          const std::int64_t v = r;
          d.put_signal(dst, &v, sizeof v, sig, std::uint64_t(r + 1), peer);
          d.signal_wait_until(sig, Cmp::kGe, std::uint64_t(r + 1));
        };
        at_depth(vary ? r % 8 : 0, round);
        EXPECT_EQ(*dst, r);
      }
    });
    ctx.barrier_all();
  });
  return {rt.engine().now().count_ns(), rt.engine().events_executed(),
          rt.verbs().reg_cache().misses()};
}

TEST(Placement, ReverseOffloadIgnoresStackDepthAndHeapOffset) {
  PlacementRun fixed = run_device_rounds(/*vary=*/false);
  PlacementRun moved = run_device_rounds(/*vary=*/true);
  EXPECT_EQ(fixed.end_ns, moved.end_ns);
  EXPECT_EQ(fixed.events, moved.events);
  EXPECT_EQ(fixed.reg_misses, moved.reg_misses);
}

TEST(Placement, RegrownStagingDropsItsOldRegistration) {
  Runtime rt(make_cluster(2, 1), make_options(TransportKind::kHostPipeline));
  ib::RegistrationCache& rc = rt.verbs().reg_cache();
  rt.run([&](Ctx& ctx) {
    const int me = ctx.my_pe();
    const std::size_t grown = 2 * kStagingSlots * rt.tuning().pipeline_chunk;
    std::byte* old_bounce = ctx.bounce(0);
    std::byte* bounce = ctx.bounce(grown);
    EXPECT_FALSE(rc.covered(me, old_bounce, 1));
    EXPECT_TRUE(rc.covered(me, bounce, grown));
    std::byte* old_staging = ctx.rendezvous_staging(4096, ctx.proc());
    std::byte* staging = ctx.rendezvous_staging(8192, ctx.proc());
    EXPECT_FALSE(rc.covered(me, old_staging, 1));
    EXPECT_TRUE(rc.covered(me, staging, 8192));
  });
}

}  // namespace
}  // namespace gdrshmem::core
