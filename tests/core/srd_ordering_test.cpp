// Property tests for the srd relaxed-ordering transport: on a fabric where
// segments of one op (and back-to-back ops on one flow) arrive out of issue
// order, quiet() must still mean "every prior put is fully visible at its
// target", and the generation-tagged collective flags must never be
// overtaken by a stale write — including under a wire-error fault plan, on
// both engine backends.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

RuntimeOptions srd_options(sim::BackendKind backend, const char* faults = "") {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.ib_transport = ib::QpKind::kSrd;
  opts.ib_srd_jitter_us = 10.0;  // wide window: reordering actually happens
  opts.sim_backend = backend;
  if (faults != nullptr && *faults != '\0') {
    opts.faults = sim::FaultPlan::parse(faults);
  }
  return opts;
}

class SrdOrdering : public ::testing::TestWithParam<sim::BackendKind> {};

TEST_P(SrdOrdering, QuietMakesPriorPutsFullyVisible) {
  // PE 0 sprays a large put (dozens of jittered segments) at PE 1, quiets,
  // then announces it with a flag put. Whenever PE 1 observes the flag,
  // every byte of the data put must already be in place — quiet must not
  // return while any segment is still in flight.
  const std::size_t n = 300001;
  RuntimeOptions opts = srd_options(GetParam());
  run_spmd(make_cluster(2, 1), opts, [&](Ctx& ctx) {
    auto* data = static_cast<unsigned char*>(ctx.shmalloc(n, Domain::kHost));
    auto* flag = static_cast<std::uint64_t*>(
        ctx.shmalloc(sizeof(std::uint64_t), Domain::kHost));
    *flag = 0;
    ctx.barrier_all();
    for (std::uint64_t round = 1; round <= 3; ++round) {
      if (ctx.my_pe() == 0) {
        std::vector<unsigned char> src(n);
        for (std::size_t i = 0; i < n; ++i) {
          src[i] = static_cast<unsigned char>(i * 31 + round);
        }
        ctx.putmem(data, src.data(), n, 1);
        ctx.quiet();  // the ordering point under test
        ctx.putmem(flag, &round, sizeof(round), 1);
        ctx.quiet();
      } else {
        ctx.wait_until<std::uint64_t>(flag, Cmp::kGe, round);
        std::vector<unsigned char> want(n);
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = static_cast<unsigned char>(i * 31 + round);
        }
        ASSERT_EQ(std::memcmp(data, want.data(), n), 0)
            << "stale bytes visible after the flag, round " << round;
      }
      ctx.barrier_all();
    }
  });
}

TEST_P(SrdOrdering, GenerationTaggedCollectivesSurviveReorderAndFaults) {
  // Repeated collectives reuse generation-tagged flag slots; under srd's
  // delivery jitter plus a fault plan's retransmits, a stale flag write
  // overtaking a fresh one would deadlock a waiter or corrupt a round.
  // Every round is checked against a locally computed reference.
  const char* kPlan = "seed=11,wire_error_rate=8e-3,atomic_error_rate=5e-3";
  RuntimeOptions opts = srd_options(GetParam(), kPlan);
  constexpr int kNp = 4;
  constexpr int kRounds = 6;
  constexpr std::size_t kBcast = 4096;
  run_spmd(make_cluster(2, 2), opts, [&](Ctx& ctx) {
    const int me = ctx.my_pe();
    ASSERT_EQ(ctx.n_pes(), kNp);
    auto* red = static_cast<std::int64_t*>(
        ctx.shmalloc(16 * sizeof(std::int64_t), Domain::kHost));
    auto* bc =
        static_cast<unsigned char*>(ctx.shmalloc(kBcast, Domain::kHost));
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < 16; ++i) red[i] = (me + 1) * (i + 1) + r;
      ctx.team_reduce(ctx.team_world(), red, red, 16, ReduceOp::kSum);
      for (int i = 0; i < 16; ++i) {
        std::int64_t want = 0;
        for (int pe = 0; pe < kNp; ++pe) want += (pe + 1) * (i + 1) + r;
        ASSERT_EQ(red[i], want) << "allreduce round " << r << " elt " << i;
      }
      const int root = r % kNp;
      std::vector<unsigned char> src(kBcast);
      for (std::size_t i = 0; i < kBcast; ++i) {
        src[i] = static_cast<unsigned char>(i * 7 + r * 13 + root);
      }
      if (me == root) std::memcpy(bc, src.data(), kBcast);
      ctx.team_broadcast(ctx.team_world(), bc, bc, kBcast, root);
      ctx.barrier_all();
      ASSERT_EQ(std::memcmp(bc, src.data(), kBcast), 0)
          << "broadcast round " << r << " root " << root;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    EngineBackends, SrdOrdering,
    ::testing::Values(sim::BackendKind::kFibers, sim::BackendKind::kThreads),
    [](const ::testing::TestParamInfo<sim::BackendKind>& param_info) {
      return param_info.param == sim::BackendKind::kFibers ? "fibers"
                                                           : "threads";
    });

}  // namespace
}  // namespace gdrshmem::core
