// Ablation: proxy-based asynchronous progress (DESIGN.md §5.2). Compares
// large inter-node D-D gets (1 MB, and 4 MB so an inter-socket requester's
// staged proxy-get runs many chunk pairs) and their one-sidedness with the
// proxy enabled vs disabled (falling back to direct GDR reads through the
// P2P read cap), and large inter-node D-D and H-D puts into a GPU on the
// other socket from its HCA with the proxy enabled (the staged proxy-put
// pipeline) vs disabled (pipeline-GDR-write for a device source, one direct
// GDR write for a host source, both through the P2P write cap).
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

/// Blocking get of `bytes` from PE 2's GPU heap on the other node into PE
/// 0's device buffer, after a warmup get; with `busy` the owning PE 2
/// busy-computes 2 ms meanwhile.
double measure_get(bool use_proxy, bool same_socket, std::size_t bytes,
                   bool busy) {
  hw::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.pes_per_node = 2;
  cluster.hca_gpu_same_socket = same_socket;
  core::RuntimeOptions opts;
  opts.tuning.use_proxy = use_proxy;
  core::Runtime rt(cluster, opts);
  double us = 0;
  rt.run([&](Ctx& ctx) {
    void* sym = ctx.shmalloc(bytes, Domain::kGpu);
    void* local = ctx.cuda_malloc(bytes);
    if (ctx.my_pe() == 0) ctx.getmem(local, sym, bytes, 2);  // warmup
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      sim::Time t0 = ctx.now();
      ctx.getmem(local, sym, bytes, 2);
      us = (ctx.now() - t0).to_us();
    } else if (ctx.my_pe() == 2 && busy) {
      ctx.compute(sim::Duration::us(2000));
    }
    ctx.barrier_all();
  });
  return us;
}

/// Blocking put of `bytes` from PE 0's device or host buffer into PE 2's GPU
/// heap on the other node, HCA and GPU on different sockets on both nodes,
/// timed until quiet() returns. A warmup put first pays any registration.
double measure_put(bool use_proxy, bool device_source, std::size_t bytes) {
  hw::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.pes_per_node = 2;
  cluster.hca_gpu_same_socket = false;
  core::RuntimeOptions opts;
  opts.tuning.use_proxy = use_proxy;
  core::Runtime rt(cluster, opts);
  double us = 0;
  rt.run([&](Ctx& ctx) {
    void* sym = ctx.shmalloc(bytes, Domain::kGpu);
    if (ctx.my_pe() == 0) {
      std::vector<std::byte> host(device_source ? 0 : bytes);
      void* src = device_source ? ctx.cuda_malloc(bytes) : host.data();
      ctx.putmem(sym, src, bytes, 2);  // warmup
      ctx.quiet();
      sim::Time t0 = ctx.now();
      ctx.putmem(sym, src, bytes, 2);
      ctx.quiet();
      us = (ctx.now() - t0).to_us();
    }
    ctx.barrier_all();
  });
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Ablation: 1 MB inter-node D-D get, proxy on/off (us) ==\n");
  std::printf("%-14s %-10s %-14s %-18s\n", "placement", "proxy", "idle target",
              "busy target (2ms)");
  for (bool same_socket : {true, false}) {
    for (bool proxy : {true, false}) {
      const double idle = measure_get(proxy, same_socket, 1u << 20, false);
      const double busy = measure_get(proxy, same_socket, 1u << 20, true);
      std::printf("%-14s %-10s %-14.1f %-18.1f\n",
                  same_socket ? "intra-socket" : "inter-socket",
                  proxy ? "on" : "off", idle, busy);
      std::string tag = std::string("ablation_proxy/") +
                        (same_socket ? "intra" : "inter") + "_socket/" +
                        (proxy ? "on" : "off");
      bench::add_point(tag + "/idle", idle);
      bench::add_point(tag + "/busy", busy);
    }
  }
  std::printf("\n");

  std::printf("== Ablation: 4 MB inter-node D-D get, proxy on/off (us) ==\n");
  std::printf("%-14s %-12s %-12s\n", "placement", "proxy on", "proxy off");
  for (bool same_socket : {true, false}) {
    const double on = measure_get(true, same_socket, 4u << 20, false);
    const double off = measure_get(false, same_socket, 4u << 20, false);
    std::printf("%-14s %-12.1f %-12.1f\n",
                same_socket ? "intra-socket" : "inter-socket", on, off);
    std::string tag = std::string("ablation_proxy/get/dd/4MB/") +
                      (same_socket ? "intra" : "inter") + "_socket/";
    bench::add_point(tag + "on", on);
    bench::add_point(tag + "off", off);
  }
  std::printf("\n");

  std::printf(
      "== Ablation: inter-node put into an inter-socket GPU, proxy on/off "
      "(us) ==\n");
  std::printf("%-8s %-8s %-12s %-12s\n", "source", "size", "proxy on",
              "proxy off");
  for (bool device_source : {true, false}) {
    for (std::size_t mib : {1, 4}) {
      const std::size_t bytes = mib << 20;
      const double on = measure_put(true, device_source, bytes);
      const double off = measure_put(false, device_source, bytes);
      const char* src = device_source ? "D-D" : "H-D";
      std::printf("%-8s %-8s %-12.1f %-12.1f\n", src,
                  (std::to_string(mib) + " MB").c_str(), on, off);
      std::string tag = std::string("ablation_proxy/put/") +
                        (device_source ? "dd/" : "hd/") +
                        std::to_string(mib) + "MB/";
      bench::add_point(tag + "on", on);
      bench::add_point(tag + "off", off);
    }
  }
  std::printf("\n");
  return bench::report_and_run(argc, argv, "ablation_proxy");
}
