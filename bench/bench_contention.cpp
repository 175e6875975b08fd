// Extension bench: link contention — multiple PE pairs streaming large GPU
// messages across the same fabric. Validates that the modeled PCIe/IB links
// are genuinely shared resources (per-pair bandwidth drops as pairs fight
// over ports) and that one proxy per node remains sufficient, as the paper
// claims ("a single proxy is enough to saturate the PCIe and network
// bandwidths").
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ctx.hpp"
#include "core/runtime.hpp"

using namespace gdrshmem;
using core::Ctx;
using core::Domain;

namespace {

/// `pairs` PEs per node all put 4 MB D->D to their counterpart on the other
/// node; returns aggregate bandwidth (MB/s) and per-pair average.
std::pair<double, double> contended_bw(int pairs) {
  hw::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.pes_per_node = pairs;
  cluster.gpus_per_node = 2;
  cluster.hcas_per_node = 2;
  core::RuntimeOptions opts;
  opts.gpu_heap_bytes = 16u << 20;
  core::Runtime rt(cluster, opts);
  constexpr std::size_t kBytes = 4u << 20;
  double total_us = 0;
  rt.run([&](Ctx& ctx) {
    void* sym = ctx.shmalloc(kBytes, Domain::kGpu);
    void* src = ctx.cuda_malloc(kBytes);
    ctx.barrier_all();
    sim::Time t0 = ctx.now();
    if (ctx.my_pe() < pairs) {  // node-0 PEs push to node-1 partners
      ctx.putmem(sym, src, kBytes, ctx.my_pe() + pairs);
      ctx.quiet();
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) total_us = (ctx.now() - t0).to_us();
  });
  double aggregate = static_cast<double>(kBytes) * pairs / total_us;
  return {aggregate, aggregate / pairs};
}

/// PE 0 of 2 nodes x 2 PEs issues a 4 MB nbi put or get to its same-node
/// peer's GPU heap, then one to its other-node peer's, then quiet() — the
/// perfbench p2p-large window. The same-node copy runs on PE 0's stream
/// while the other-node op proceeds, unless the two share a link (the
/// source GPU's PCIe slot for a D-D put's D->H staging). Returns the
/// window's virtual time (µs) after one untimed warm-up window.
double nbi_window_us(bool put, bool local_dev, bool same_socket) {
  hw::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.pes_per_node = 2;
  cluster.hca_gpu_same_socket = same_socket;
  core::Runtime rt(cluster, core::RuntimeOptions{});
  constexpr std::size_t kBytes = 4u << 20;
  double window_us = 0;
  rt.run([&](Ctx& ctx) {
    auto* sym = static_cast<std::byte*>(ctx.shmalloc(2 * kBytes, Domain::kGpu));
    std::vector<std::byte> host(2 * kBytes);
    std::byte* local =
        local_dev ? static_cast<std::byte*>(ctx.cuda_malloc(2 * kBytes))
                  : host.data();
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      for (int rep = 0; rep < 2; ++rep) {
        sim::Time t0 = ctx.now();
        for (int target : {1, 2}) {  // same node, then the other node
          const std::size_t off = static_cast<std::size_t>(target - 1) * kBytes;
          if (put) {
            ctx.putmem_nbi(sym + off, local + off, kBytes, target);
          } else {
            ctx.getmem_nbi(local + off, sym + off, kBytes, target);
          }
        }
        ctx.quiet();
        window_us = (ctx.now() - t0).to_us();
      }
    }
    ctx.barrier_all();
  });
  return window_us;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== contention: concurrent 4 MB D-D streams across one fabric ==\n");
  std::printf("%-8s %-20s %-20s\n", "pairs", "aggregate MB/s", "per-pair MB/s");
  for (int pairs : {1, 2, 4, 8}) {
    auto [agg, per] = contended_bw(pairs);
    std::printf("%-8d %-20.0f %-20.0f\n", pairs, agg, per);
    bench::add_point("contention/pairs" + std::to_string(pairs) + "/aggregate",
                     agg);
  }
  std::printf("\n(two FDR HCAs per node: aggregate should plateau around\n"
              " 2 x 6397 MB/s while per-pair bandwidth shrinks)\n\n");

  std::printf("== nbi window: 4 MB same-node + 4 MB other-node op, then quiet ==\n");
  std::printf("%-5s %-4s %-14s %-12s\n", "op", "cfg", "placement", "window us");
  for (bool put : {true, false}) {
    for (bool local_dev : {true, false}) {
      for (bool same_socket : {true, false}) {
        const double us = nbi_window_us(put, local_dev, same_socket);
        const char* op = put ? "put" : "get";
        const char* cfg = local_dev ? "dd" : "hd";
        const char* placement = same_socket ? "intra_socket" : "inter_socket";
        std::printf("%-5s %-4s %-14s %-12.1f\n", op, cfg, placement, us);
        bench::add_point(std::string("contention/nbi_window/") + op + "/" + cfg +
                             "/" + placement,
                         us);
      }
    }
  }
  std::printf("\n(hd: host local buffer, both remote buffers on GPUs; the\n"
              " same-node copy overlaps the other-node op unless they share\n"
              " the local GPU's PCIe slot)\n\n");
  return bench::report_and_run(argc, argv, "contention");
}
