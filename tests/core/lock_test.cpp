// Distributed locks.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

TEST(Lock, MutualExclusionAcrossNodes) {
  int in_critical = 0;
  int violations = 0;
  std::int64_t shared_value = 0;
  run_spmd(make_cluster(3, 2), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* lock = static_cast<std::int64_t*>(ctx.shmalloc(8));
             *lock = 0;
             ctx.barrier_all();
             for (int i = 0; i < 4; ++i) {
               ctx.set_lock(lock);
               if (in_critical != 0) ++violations;
               in_critical = 1;
               std::int64_t v = shared_value;
               ctx.compute(sim::Duration::us(3));
               shared_value = v + 1;  // read-modify-write under the lock
               in_critical = 0;
               ctx.clear_lock(lock);
             }
             ctx.barrier_all();
           });
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(shared_value, 6 * 4);  // no lost updates
}

TEST(Lock, TestLockAndMisuse) {
  run_spmd(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr),
           [&](Ctx& ctx) {
             auto* lock = static_cast<std::int64_t*>(ctx.shmalloc(8));
             *lock = 0;
             ctx.barrier_all();
             if (ctx.my_pe() == 0) {
               EXPECT_TRUE(ctx.test_lock(lock));
               EXPECT_FALSE(ctx.test_lock(lock));  // already held (by us)
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_FALSE(ctx.test_lock(lock));  // held by PE 0
               EXPECT_THROW(ctx.clear_lock(lock), ShmemError);  // not holder
             }
             ctx.barrier_all();
             if (ctx.my_pe() == 0) ctx.clear_lock(lock);
             ctx.barrier_all();
             if (ctx.my_pe() == 1) {
               EXPECT_TRUE(ctx.test_lock(lock));
             }
             ctx.barrier_all();
           });
}

}  // namespace
}  // namespace gdrshmem::core
