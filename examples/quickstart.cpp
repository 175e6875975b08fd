// Quickstart: GPU-domain symmetric allocation and one-sided puts around a
// ring — the smallest end-to-end program using the OpenSHMEM 1.4 C API
// on a simulated 4-node GPU cluster.
//
//   $ ./quickstart
//
// Each PE allocates a symmetric buffer on its GPU with the paper's
// shmem_malloc(size, domain) extension, puts a message into its right
// neighbor's GPU memory, flags it, and verifies what it received.
#include <cstdio>
#include <cstring>

#include "core/ctx.hpp"
#include "gdrshmem/shmem.h"

using namespace gdrshmem;
using namespace gdrshmem::capi;

int main() {
  // 4 nodes x 2 PEs, each PE owning one (simulated) Tesla K20 behind a
  // shared FDR InfiniBand fabric with GPUDirect RDMA.
  hw::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.pes_per_node = 2;

  core::RuntimeOptions opts;
  opts.transport = core::TransportKind::kEnhancedGdr;

  core::Runtime rt(cluster, opts);
  int wrong = 0;
  rt.run([&](core::Ctx& ctx) {
    Bind bind(ctx);  // enable the shmem_* calls on this PE

    const int me = shmem_my_pe();
    const int np = shmem_n_pes();
    const int right = (me + 1) % np;

    // Symmetric allocation on the GPU domain — the paper's extension.
    char* inbox = static_cast<char*>(shmem_malloc(64, core::Domain::kGpu));
    auto* flag = static_cast<long long*>(
        shmem_calloc(1, sizeof(long long)));

    char message[64];
    std::snprintf(message, sizeof message, "hello from PE %d's GPU", me);

    sim::Time t0 = ctx.now();
    shmem_putmem(inbox, message, sizeof message, right);  // GPU -> remote GPU
    shmem_quiet();                                        // delivered
    long long one = 1;
    shmem_putmem(flag, &one, sizeof one, right);          // then raise the flag
    double put_us = (ctx.now() - t0).to_us();

    shmem_longlong_wait_until(flag, SHMEM_CMP_EQ, 1);
    const int left = (me + np - 1) % np;
    char expected[64];
    std::snprintf(expected, sizeof expected, "hello from PE %d's GPU", left);

    const bool correct = std::strcmp(inbox, expected) == 0;
    if (!correct) ++wrong;
    std::printf("PE %d received \"%s\" (%s) — put+quiet took %.2f us\n", me,
                inbox, correct ? "correct" : "WRONG", put_us);
    shmem_barrier_all();
  });
  return wrong == 0 ? 0 : 1;
}
