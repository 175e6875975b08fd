// Distributed dynamic work-stealing counter built on IB hardware atomics
// (Section III-D): PEs grab work items with fetch-and-add on a symmetric
// counter living in PE 0's *GPU memory* — the GDR-enabled atomic path —
// and a lock built from compare-and-swap protects a shared tally.
#include <cstdio>

#include "core/ctx.hpp"
#include "gdrshmem/shmem.h"

using namespace gdrshmem;
using namespace gdrshmem::capi;

int main() {
  hw::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.pes_per_node = 2;
  core::RuntimeOptions opts;
  core::Runtime rt(cluster, opts);

  constexpr long long kItems = 200;
  bool lost = false;
  rt.run([&](core::Ctx& ctx) {
    Bind bind(ctx);
    // Work counter on PE 0's GPU; results tally + lock on PE 0's host heap.
    auto* next_item = static_cast<long long*>(
        shmem_malloc(sizeof(long long), core::Domain::kGpu));
    auto* done_count = static_cast<long long*>(shmem_malloc(sizeof(long long)));
    auto* lock = static_cast<long long*>(shmem_malloc(sizeof(long long)));
    *next_item = 0;
    *done_count = 0;
    *lock = 0;
    shmem_barrier_all();

    const long long lock_owner = 1 + shmem_my_pe();
    int grabbed = 0;
    while (true) {
      long long item = shmem_atomic_fetch_add(next_item, 1LL, 0);  // GDR atomic
      if (item >= kItems) break;
      // "Process" the item: uneven cost so fast PEs steal more work.
      ctx.compute(sim::Duration::us(2.0 + (item % 7)));
      ++grabbed;
      // Critical section via cswap spinlock (paper: locks from atomics).
      while (shmem_atomic_compare_swap(lock, 0LL, lock_owner, 0) != 0) {
        ctx.compute(sim::Duration::us(1));
      }
      long long tally = 0;
      shmem_getmem(&tally, done_count, sizeof tally, 0);
      ++tally;
      shmem_putmem(done_count, &tally, sizeof tally, 0);
      shmem_quiet();
      shmem_atomic_compare_swap(lock, lock_owner, 0LL, 0);  // unlock
    }
    shmem_barrier_all();
    std::printf("PE %d processed %d items\n", shmem_my_pe(), grabbed);
    if (shmem_my_pe() == 0) {
      lost = *done_count != kItems;
      std::printf("total tallied: %lld / %lld (%s) in %.1f us virtual time\n",
                  *done_count, kItems,
                  lost ? "LOST UPDATES" : "all accounted",
                  ctx.now().to_us());
    }
  });
  return lost ? 1 : 0;
}
