// Ablation: the MVAPICH2-X registration cache (DESIGN.md §5.3). Measures
// the first-touch put latency (pays HCA memory registration) against the
// steady state (cache hit), plus the cache hit/miss counters. Then the same
// for inter-node transfers between a fresh buffer and a GPU or a GPU and
// host memory, whose first touch stages through the bounce buffer while
// the PE's helper registers the buffer (DESIGN.md §5j).
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/ctx.hpp"
#include "core/runtime.hpp"

using namespace gdrshmem;
using core::Ctx;
using core::Domain;

namespace {

struct RegProbe {
  double first_us = 0;
  double steady_us = 0;
  std::uint64_t hits = 0, misses = 0;
};

/// First-touch and steady latency of a `bytes`-long put or get between a
/// fresh local buffer and PE 1's heap in `remote`: H-H puts (`remote` host,
/// `local_dev` false), H->D puts, and gets into a device buffer from host
/// memory. Each op is followed by quiet().
RegProbe measure(std::size_t bytes, bool is_get = false,
                 bool local_dev = false, Domain remote = Domain::kHost) {
  hw::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.pes_per_node = 1;
  core::RuntimeOptions opts;
  core::Runtime rt(cluster, opts);
  RegProbe probe;
  rt.run([&](Ctx& ctx) {
    void* sym = ctx.shmalloc(bytes, remote);
    std::vector<std::byte> host(bytes);
    // Never seen by the HCA.
    void* fresh = local_dev ? ctx.cuda_malloc(bytes) : host.data();
    auto op = [&] {
      if (is_get) {
        ctx.getmem(fresh, sym, bytes, 1);
      } else {
        ctx.putmem(sym, fresh, bytes, 1);
      }
      ctx.quiet();
    };
    if (ctx.my_pe() == 0) {
      sim::Time t0 = ctx.now();
      op();
      probe.first_us = (ctx.now() - t0).to_us();
      constexpr int kIters = 20;
      t0 = ctx.now();
      for (int i = 0; i < kIters; ++i) op();
      probe.steady_us = (ctx.now() - t0).to_us() / kIters;
    }
    ctx.barrier_all();
  });
  probe.hits = rt.verbs().reg_cache().hits();
  probe.misses = rt.verbs().reg_cache().misses();
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Ablation: registration cache — first-touch vs cached put (us) ==\n");
  std::printf("%-8s %-14s %-14s %-10s %-8s %-8s\n", "size", "first (miss)",
              "steady (hit)", "overhead", "hits", "misses");
  for (std::size_t bytes : {4096u, 65536u, 1048576u}) {
    RegProbe p = measure(bytes);
    std::printf("%-8s %-14.2f %-14.2f %-10.1fx %-8llu %-8llu\n",
                bench::size_label(bytes).c_str(), p.first_us, p.steady_us,
                p.first_us / p.steady_us,
                static_cast<unsigned long long>(p.hits),
                static_cast<unsigned long long>(p.misses));
    std::string tag = "ablation_regcache/" + bench::size_label(bytes);
    bench::add_point(tag + "/first_touch", p.first_us);
    bench::add_point(tag + "/steady", p.steady_us);
  }
  std::printf(
      "\n== inter-node, same socket: first touch stages, steady is "
      "zero-copy (us) ==\n");
  std::printf("%-18s %-8s %-14s %-14s %-8s %-8s\n", "op", "size",
              "first (miss)", "steady (hit)", "hits", "misses");
  for (bool is_get : {false, true}) {
    const char* name = is_get ? "get_into_device" : "put_from_host";
    for (std::size_t bytes : {1u << 20, 4u << 20}) {
      RegProbe p = measure(bytes, is_get, /*local_dev=*/is_get,
                           is_get ? Domain::kHost : Domain::kGpu);
      std::printf("%-18s %-8s %-14.2f %-14.2f %-8llu %-8llu\n", name,
                  bench::size_label(bytes).c_str(), p.first_us, p.steady_us,
                  static_cast<unsigned long long>(p.hits),
                  static_cast<unsigned long long>(p.misses));
      std::string tag = std::string("ablation_regcache/inter/") + name + "/" +
                        bench::size_label(bytes);
      bench::add_point(tag + "/first_touch", p.first_us);
      bench::add_point(tag + "/steady", p.steady_us);
    }
  }
  std::printf("\n");
  return bench::report_and_run(argc, argv, "ablation_regcache");
}
