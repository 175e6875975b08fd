// Stencil2D demo: runs the SHOC-style 9-point stencil (Section V-C) on a
// simulated 8-GPU cluster with real math, verifies the distributed result
// against the serial reference, and compares both runtime designs.
#include <cmath>
#include <cstdio>

#include "apps/stencil2d.hpp"

using namespace gdrshmem;

int main() {
  hw::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.pes_per_node = 2;

  apps::Stencil2DConfig cfg;
  cfg.nx = 256;
  cfg.ny = 256;
  cfg.px = 4;
  cfg.py = 2;
  cfg.iterations = 50;
  cfg.functional = true;

  double reference = apps::stencil2d_reference_checksum(cfg);
  std::printf("Stencil2D %zux%zu, %d iterations on %d GPUs (grid %dx%d)\n",
              cfg.nx, cfg.ny, cfg.iterations,
              cluster.num_nodes * cluster.pes_per_node, cfg.px, cfg.py);
  std::printf("serial reference checksum: %.10g\n\n", reference);

  bool mismatch = false;
  for (auto kind : {core::TransportKind::kHostPipeline,
                    core::TransportKind::kEnhancedGdr}) {
    core::RuntimeOptions opts;
    opts.transport = kind;
    opts.gpu_heap_bytes = 32u << 20;
    auto res = run_stencil2d(cluster, opts, cfg);
    double rel_err = std::abs(res.checksum - reference) /
                     std::max(1.0, std::abs(reference));
    const bool matches = rel_err < 1e-9;
    mismatch |= !matches;
    std::printf("%-16s exec %8.2f ms   checksum %.10g (rel err %.1e, %s)\n",
                core::to_string(kind), res.exec_time_ms, res.checksum, rel_err,
                matches ? "matches" : "MISMATCH");
  }
  return mismatch ? 1 : 0;
}
