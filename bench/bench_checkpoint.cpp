// Portus-style checkpoint/restore service under open-loop load: client PEs
// snapshot GPU-resident model state into checkpoint-server pmem arenas with
// one-sided put/put_signal and restore with one-sided get. The sweep scales
// from 30 to 248 client PEs (thousands of seeded open-loop requests) and
// reports goodput plus p50/p99/p999 request latency measured from the
// scheduled arrival, so server queueing, eviction, and repack stalls are all
// visible, next to the rejects, evictions, repacks and extent moves behind
// them. A faulted variant replays the same workload under a proxy crash
// plus P2P revocation mid-checkpoint; the acked-durability contract
// (lost_acked == 0) is asserted on every run.
//
// `--smoke` (used by scripts/check_tier1.sh) runs the faulted config on both
// engine backends and fails unless the digests match bit-for-bit and no
// acknowledged checkpoint is lost.
#include <cstdio>
#include <cstring>
#include <string>

#include "apps/checkpoint/service.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "sim/fault.hpp"

using namespace gdrshmem;
using apps::ckpt::CheckpointConfig;
using apps::ckpt::CheckpointResult;

namespace {

struct BenchCase {
  const char* name;
  int nodes;
  int ppn;
  int servers;
  int requests_per_client;
  std::size_t pool_bytes;
  const char* fault_plan;  // nullptr = clean run
};

// Large config: 248 client PEs, ~4K open-loop requests. Pool sized so the
// per-server working set of latest-acked versions fits but cold versions
// must be evicted/repacked.
const BenchCase kCases[] = {
    {"small", 8, 4, 2, 16, 256u << 10, nullptr},
    {"medium", 16, 8, 4, 16, 768u << 10, nullptr},
    {"large", 32, 8, 8, 16, 768u << 10, nullptr},
    {"faulted", 8, 4, 2, 16, 256u << 10, "seed=5,crash=1@400,revoke=2@300"},
};

core::RuntimeOptions scaled_options(const BenchCase& c) {
  core::RuntimeOptions opts;
  opts.transport = core::TransportKind::kEnhancedGdr;
  // Hundreds of PEs: shrink the per-PE heaps and the np^2 eager storage.
  opts.host_heap_bytes = 512u << 10;
  opts.gpu_heap_bytes = 128u << 10;
  opts.pmem_heap_bytes = c.pool_bytes + (64u << 10);
  opts.tuning.eager_limit = 1024;
  opts.tuning.pipeline_chunk = 64u << 10;
  if (c.fault_plan != nullptr) {
    opts.faults = sim::FaultPlan::parse(c.fault_plan);
  }
  return opts;
}

CheckpointConfig service_config(const BenchCase& c) {
  CheckpointConfig cfg;
  cfg.num_servers = c.servers;
  cfg.pool_bytes = c.pool_bytes;
  cfg.chunk_bytes = 4096;
  cfg.dir_slots = 4;
  cfg.verify_restores = false;  // sum always checked; skip the byte compare
  cfg.traffic.seed = 2015;
  cfg.traffic.mean_interarrival_us = 60.0;
  cfg.traffic.requests_per_client = c.requests_per_client;
  cfg.traffic.restore_fraction = 0.2;
  cfg.traffic.min_bytes = 2048;
  cfg.traffic.max_bytes = 32768;
  cfg.traffic.size_skew = 2.0;
  return cfg;
}

CheckpointResult measure(const BenchCase& c, sim::BackendKind backend) {
  hw::ClusterConfig cluster;
  cluster.num_nodes = c.nodes;
  cluster.pes_per_node = c.ppn;
  core::RuntimeOptions opts = scaled_options(c);
  opts.sim_backend = backend;
  return apps::ckpt::run_checkpoint_service(cluster, opts, service_config(c));
}

/// --smoke: the faulted config on both engine backends; digests must match
/// and no acknowledged checkpoint may be lost. Exercised by check_tier1.sh.
int smoke() {
  const BenchCase& c = kCases[3];
  CheckpointResult a = measure(c, sim::BackendKind::kFibers);
  CheckpointResult b = measure(c, sim::BackendKind::kThreads);
  std::printf(
      "checkpoint smoke (%s, fault plan \"%s\"): acked=%llu restores=%llu "
      "lost=%llu digest=%016llx\n",
      c.name, c.fault_plan, static_cast<unsigned long long>(a.checkpoints_acked),
      static_cast<unsigned long long>(a.restores_ok),
      static_cast<unsigned long long>(a.lost_acked),
      static_cast<unsigned long long>(a.digest));
  bool ok = true;
  if (a.digest != b.digest || a.makespan_ms != b.makespan_ms) {
    std::fprintf(stderr,
                 "checkpoint smoke FAILED: fibers/threads diverge "
                 "(digest %016llx vs %016llx, makespan %.3f vs %.3f ms)\n",
                 static_cast<unsigned long long>(a.digest),
                 static_cast<unsigned long long>(b.digest), a.makespan_ms,
                 b.makespan_ms);
    ok = false;
  }
  if (a.lost_acked != 0 || b.lost_acked != 0) {
    std::fprintf(stderr,
                 "checkpoint smoke FAILED: lost acknowledged checkpoints "
                 "(%llu / %llu)\n",
                 static_cast<unsigned long long>(a.lost_acked),
                 static_cast<unsigned long long>(b.lost_acked));
    ok = false;
  }
  if (a.checkpoints_acked == 0 || a.restores_ok == 0) {
    std::fprintf(stderr,
                 "checkpoint smoke FAILED: workload did not materialize "
                 "(acked=%llu restores=%llu)\n",
                 static_cast<unsigned long long>(a.checkpoints_acked),
                 static_cast<unsigned long long>(a.restores_ok));
    ok = false;
  }
  if (ok) std::printf("checkpoint smoke OK\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return smoke();
  }
  std::printf(
      "== Checkpoint/restore service: open-loop goodput and latency ==\n");
  std::printf("%-9s %-8s %-8s %-9s %-9s %-9s %-11s %-12s %-22s %-8s\n",
              "config", "clients", "acked", "rejected", "restores", "evict",
              "repack/mv", "goodput MB/s", "ckpt p50/p99/p999 us", "lost");
  for (const BenchCase& c : kCases) {
    CheckpointResult r = measure(c, sim::BackendKind::kFibers);
    const int clients = c.nodes * c.ppn - c.servers;
    char lat[64];
    std::snprintf(lat, sizeof lat, "%.0f/%.0f/%.0f",
                  static_cast<double>(r.ckpt_p50_ns) * 1e-3,
                  static_cast<double>(r.ckpt_p99_ns) * 1e-3,
                  static_cast<double>(r.ckpt_p999_ns) * 1e-3);
    std::printf("%-9s %-8d %-8llu %-9llu %-9llu %-9llu %llu/%-9llu %-12.1f "
                "%-22s %-8llu\n",
                c.name, clients,
                static_cast<unsigned long long>(r.checkpoints_acked),
                static_cast<unsigned long long>(r.checkpoints_rejected),
                static_cast<unsigned long long>(r.restores_ok),
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.repacks),
                static_cast<unsigned long long>(r.extents_moved),
                r.goodput_mbps, lat,
                static_cast<unsigned long long>(r.lost_acked));
    if (r.lost_acked != 0) {
      std::fprintf(stderr, "FAILED: %s lost %llu acknowledged checkpoints\n",
                   c.name, static_cast<unsigned long long>(r.lost_acked));
      return 1;
    }
    std::string base = std::string("checkpoint/") + c.name;
    bench::add_point(base + "/makespan", r.makespan_ms * 1e3);
    bench::add_point(base + "/ckpt_p50",
                     static_cast<double>(r.ckpt_p50_ns) * 1e-3);
    bench::add_point(base + "/ckpt_p99",
                     static_cast<double>(r.ckpt_p99_ns) * 1e-3);
    bench::add_point(base + "/ckpt_p999",
                     static_cast<double>(r.ckpt_p999_ns) * 1e-3);
    bench::add_point(base + "/restore_p99",
                     static_cast<double>(r.restore_p99_ns) * 1e-3);
    bench::add_metric(base + "/goodput_mbps", r.goodput_mbps);
    bench::add_metric(base + "/acked",
                      static_cast<double>(r.checkpoints_acked));
    bench::add_metric(base + "/rejected",
                      static_cast<double>(r.checkpoints_rejected));
    bench::add_metric(base + "/evictions",
                      static_cast<double>(r.evictions));
    bench::add_metric(base + "/repacks", static_cast<double>(r.repacks));
    bench::add_metric(base + "/extents_moved",
                      static_cast<double>(r.extents_moved));
  }
  std::printf("\n");
  return bench::report_and_run(argc, argv, "checkpoint");
}
