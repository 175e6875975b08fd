#include "apps/stencil2d.hpp"

#include <cstring>
#include <vector>

#include "core/ctx.hpp"
#include "core/device_api.hpp"

namespace gdrshmem::apps {

using core::Ctx;
using core::Domain;

namespace {

/// Deterministic initial condition by global coordinates.
double initial_value(std::size_t gi, std::size_t gj) {
  return static_cast<double>((gi * 31 + gj * 17) % 101) * 0.01;
}

struct Tile {
  std::size_t lnx, lny;  // interior rows/cols
  std::size_t pitch;     // lny + 2
  std::size_t idx(std::size_t i, std::size_t j) const { return i * pitch + j; }
};

/// Global checksum of the interior: a two-stage reduction along the process
/// grid — sum across my row team, then across my column team — so each stage
/// only spans one grid dimension. Shared by the host-driven and
/// device-initiated variants (identical reduction order keeps their
/// checksums bit-identical).
double global_checksum(core::Ctx& ctx, const Stencil2DConfig& cfg,
                       double my_partial) {
  auto* partial = static_cast<double*>(ctx.shmalloc(sizeof(double)));
  auto* rowsum = static_cast<double*>(ctx.shmalloc(sizeof(double)));
  auto* total = static_cast<double*>(ctx.shmalloc(sizeof(double)));
  *partial = my_partial;
  if (cfg.px > 1 && cfg.py > 1 &&
      cfg.px + cfg.py < core::coll::SyncLayout::kMaxTeams) {
    // Row r = PEs [r*py, (r+1)*py), stride 1; column c = {c, c+py, ...},
    // stride py. Splits are collective over the world team, so every PE
    // participates in all of them; each keeps only its own row/column.
    core::Team* row = nullptr;
    core::Team* col = nullptr;
    for (int r = 0; r < cfg.px; ++r) {
      core::Team* tm =
          ctx.team_split_strided(ctx.team_world(), r * cfg.py, 1, cfg.py);
      if (tm != nullptr) row = tm;
    }
    for (int c = 0; c < cfg.py; ++c) {
      core::Team* tm =
          ctx.team_split_strided(ctx.team_world(), c, cfg.py, cfg.px);
      if (tm != nullptr) col = tm;
    }
    ctx.team_reduce(*row, rowsum, partial, 1, core::ReduceOp::kSum);
    ctx.team_reduce(*col, total, rowsum, 1, core::ReduceOp::kSum);
    ctx.team_destroy(row);
    ctx.team_destroy(col);
  } else {
    // 1-D decompositions (or grids needing more team slots than the sync
    // pool holds) reduce over the world team directly.
    ctx.team_reduce(ctx.team_world(), total, partial, 1, core::ReduceOp::kSum);
  }
  return *total;
}

}  // namespace

Stencil2DResult run_stencil2d(const hw::ClusterConfig& cluster,
                              const core::RuntimeOptions& opts,
                              const Stencil2DConfig& cfg) {
  core::Runtime rt(cluster, opts);
  const int np = rt.num_pes();
  if (cfg.px * cfg.py != np) {
    throw core::ShmemError("stencil2d: px*py must equal the PE count");
  }
  if (cfg.nx % static_cast<std::size_t>(cfg.px) != 0 ||
      cfg.ny % static_cast<std::size_t>(cfg.py) != 0) {
    throw core::ShmemError("stencil2d: grid must divide evenly");
  }

  Stencil2DResult result;
  rt.run([&](Ctx& ctx) {
    const int me = ctx.my_pe();
    const int rx = me / cfg.py;  // my row in the process grid
    const int ry = me % cfg.py;
    Tile t;
    t.lnx = cfg.nx / static_cast<std::size_t>(cfg.px);
    t.lny = cfg.ny / static_cast<std::size_t>(cfg.py);
    t.pitch = t.lny + 2;
    const std::size_t tile_doubles = (t.lnx + 2) * t.pitch;

    auto* cur = static_cast<double*>(
        ctx.shmalloc(tile_doubles * sizeof(double), Domain::kGpu));
    auto* next = static_cast<double*>(
        ctx.shmalloc(tile_doubles * sizeof(double), Domain::kGpu));
    // Symmetric column-halo landing zones: [0] = from west, [1] = from east.
    auto* colhalo = static_cast<double*>(
        ctx.shmalloc(2 * t.lnx * sizeof(double), Domain::kGpu));
    // Local (non-symmetric) device pack buffers.
    auto* pack = static_cast<double*>(ctx.cuda_malloc(2 * t.lnx * sizeof(double)));

    const int north = rx > 0 ? me - cfg.py : -1;
    const int south = rx < cfg.px - 1 ? me + cfg.py : -1;
    const int west = ry > 0 ? me - 1 : -1;
    const int east = ry < cfg.py - 1 ? me + 1 : -1;

    // Initialize: interior by global coordinate, halo/boundary zero.
    for (std::size_t i = 0; i < t.lnx + 2; ++i) {
      for (std::size_t j = 0; j < t.pitch; ++j) {
        cur[t.idx(i, j)] = 0.0;
        next[t.idx(i, j)] = 0.0;
      }
    }
    if (cfg.functional) {
      for (std::size_t i = 1; i <= t.lnx; ++i) {
        for (std::size_t j = 1; j <= t.lny; ++j) {
          std::size_t gi = static_cast<std::size_t>(rx) * t.lnx + i - 1;
          std::size_t gj = static_cast<std::size_t>(ry) * t.lny + j - 1;
          cur[t.idx(i, j)] = initial_value(gi, gj);
        }
      }
    }
    ctx.barrier_all();

    sim::Time t0 = ctx.now();
    for (int iter = 0; iter < cfg.iterations; ++iter) {
      // (1) pack boundary columns.
      ctx.launch_kernel(2 * t.lnx, cfg.per_cell_ns, [&] {
        if (cfg.functional) {
          for (std::size_t i = 0; i < t.lnx; ++i) {
            pack[i] = cur[t.idx(i + 1, 1)];           // west column
            pack[t.lnx + i] = cur[t.idx(i + 1, t.lny)];  // east column
          }
        }
      });
      // (2) exchange columns: my west column becomes the west neighbor's
      // "from east" halo and vice versa.
      if (west >= 0) {
        ctx.putmem_nbi(colhalo + t.lnx, pack, t.lnx * sizeof(double), west);
      }
      if (east >= 0) {
        ctx.putmem_nbi(colhalo, pack + t.lnx, t.lnx * sizeof(double), east);
      }
      ctx.quiet();
      ctx.barrier_all();
      // (3) unpack column halos.
      ctx.launch_kernel(2 * t.lnx, cfg.per_cell_ns, [&] {
        if (cfg.functional) {
          for (std::size_t i = 0; i < t.lnx; ++i) {
            if (west >= 0) cur[t.idx(i + 1, 0)] = colhalo[i];
            if (east >= 0) cur[t.idx(i + 1, t.lny + 1)] = colhalo[t.lnx + i];
          }
        }
      });
      // (4) exchange full-width rows (carrying the diagonal corners).
      if (north >= 0) {
        ctx.putmem_nbi(cur + t.idx(t.lnx + 1, 0), cur + t.idx(1, 0),
                       t.pitch * sizeof(double), north);
      }
      if (south >= 0) {
        ctx.putmem_nbi(cur + t.idx(0, 0), cur + t.idx(t.lnx, 0),
                       t.pitch * sizeof(double), south);
      }
      ctx.quiet();
      ctx.barrier_all();
      // (5) 9-point update.
      ctx.launch_kernel(t.lnx * t.lny, cfg.per_cell_ns, [&] {
        if (!cfg.functional) return;
        for (std::size_t i = 1; i <= t.lnx; ++i) {
          for (std::size_t j = 1; j <= t.lny; ++j) {
            double c = cur[t.idx(i, j)];
            double edges = cur[t.idx(i - 1, j)] + cur[t.idx(i + 1, j)] +
                           cur[t.idx(i, j - 1)] + cur[t.idx(i, j + 1)];
            double diag = cur[t.idx(i - 1, j - 1)] + cur[t.idx(i - 1, j + 1)] +
                          cur[t.idx(i + 1, j - 1)] + cur[t.idx(i + 1, j + 1)];
            next[t.idx(i, j)] = cfg.wc * c + cfg.we * edges + cfg.wd * diag;
          }
        }
      });
      std::swap(cur, next);  // lockstep on every PE: stays symmetric
    }
    ctx.barrier_all();
    double elapsed_ms = (ctx.now() - t0).to_ms();

    double partial = 0;
    if (cfg.functional) {
      for (std::size_t i = 1; i <= t.lnx; ++i) {
        for (std::size_t j = 1; j <= t.lny; ++j) partial += cur[t.idx(i, j)];
      }
    }
    double total = global_checksum(ctx, cfg, partial);
    if (me == 0) {
      result.exec_time_ms = elapsed_ms;
      result.checksum = total;
      result.cells_updated = static_cast<std::uint64_t>(t.lnx) * t.lny *
                             static_cast<std::uint64_t>(np) *
                             static_cast<std::uint64_t>(cfg.iterations);
    }
    ctx.barrier_all();
  });
  return result;
}

Stencil2DResult run_stencil2d_device(const hw::ClusterConfig& cluster,
                                     const core::RuntimeOptions& opts,
                                     const Stencil2DConfig& cfg,
                                     core::DeviceScope scope) {
  core::Runtime rt(cluster, opts);
  const int np = rt.num_pes();
  if (cfg.px * cfg.py != np) {
    throw core::ShmemError("stencil2d: px*py must equal the PE count");
  }
  if (cfg.nx % static_cast<std::size_t>(cfg.px) != 0 ||
      cfg.ny % static_cast<std::size_t>(cfg.py) != 0) {
    throw core::ShmemError("stencil2d: grid must divide evenly");
  }

  Stencil2DResult result;
  rt.run([&](Ctx& ctx) {
    const int me = ctx.my_pe();
    const int rx = me / cfg.py;
    const int ry = me % cfg.py;
    Tile t;
    t.lnx = cfg.nx / static_cast<std::size_t>(cfg.px);
    t.lny = cfg.ny / static_cast<std::size_t>(cfg.py);
    t.pitch = t.lny + 2;
    const std::size_t tile_doubles = (t.lnx + 2) * t.pitch;

    auto* cur = static_cast<double*>(
        ctx.shmalloc(tile_doubles * sizeof(double), Domain::kGpu));
    auto* next = static_cast<double*>(
        ctx.shmalloc(tile_doubles * sizeof(double), Domain::kGpu));
    // Parity-buffered column-halo landing zones: two slots of [from west,
    // from east], alternating per iteration, so iteration i+1's puts can
    // never clobber a slot iteration i is still reading.
    auto* colhalo = static_cast<double*>(
        ctx.shmalloc(4 * t.lnx * sizeof(double), Domain::kGpu));
    auto* pack = static_cast<double*>(ctx.cuda_malloc(2 * t.lnx * sizeof(double)));
    // Arrival signals: [0] west column, [1] east column, [2] north row,
    // [3] south row. Monotonically increasing (iteration count), so they
    // never need a reset between iterations.
    auto* sig = static_cast<std::uint64_t*>(
        ctx.shmalloc(4 * sizeof(std::uint64_t), Domain::kGpu));
    for (int k = 0; k < 4; ++k) sig[k] = 0;

    const int north = rx > 0 ? me - cfg.py : -1;
    const int south = rx < cfg.px - 1 ? me + cfg.py : -1;
    const int west = ry > 0 ? me - 1 : -1;
    const int east = ry < cfg.py - 1 ? me + 1 : -1;

    for (std::size_t i = 0; i < t.lnx + 2; ++i) {
      for (std::size_t j = 0; j < t.pitch; ++j) {
        cur[t.idx(i, j)] = 0.0;
        next[t.idx(i, j)] = 0.0;
      }
    }
    if (cfg.functional) {
      for (std::size_t i = 1; i <= t.lnx; ++i) {
        for (std::size_t j = 1; j <= t.lny; ++j) {
          std::size_t gi = static_cast<std::size_t>(rx) * t.lnx + i - 1;
          std::size_t gj = static_cast<std::size_t>(ry) * t.lny + j - 1;
          cur[t.idx(i, j)] = initial_value(gi, gj);
        }
      }
    }
    ctx.barrier_all();

    sim::Time t0 = ctx.now();
    // The whole evolution loop is ONE resident kernel: halo exchange is
    // issued from inside it, synchronized by signals instead of host
    // barriers, and only the final iteration returns to the host.
    ctx.launch_kernel_device(cfg.per_cell_ns, scope, [&](core::DeviceCtx& d) {
      for (int iter = 0; iter < cfg.iterations; ++iter) {
        const std::uint64_t tick = static_cast<std::uint64_t>(iter) + 1;
        const std::size_t base = static_cast<std::size_t>(iter % 2) * 2 * t.lnx;
        // (1) pack boundary columns.
        d.compute(2 * t.lnx);
        if (cfg.functional) {
          for (std::size_t i = 0; i < t.lnx; ++i) {
            pack[i] = cur[t.idx(i + 1, 1)];              // west column
            pack[t.lnx + i] = cur[t.idx(i + 1, t.lny)];  // east column
          }
        }
        // (2) exchange columns: my west column becomes the west neighbor's
        // "from east" halo and vice versa, signal riding behind the data.
        if (west >= 0) {
          d.put_signal(colhalo + base + t.lnx, pack, t.lnx * sizeof(double),
                       sig + 1, tick, west);
        }
        if (east >= 0) {
          d.put_signal(colhalo + base, pack + t.lnx, t.lnx * sizeof(double),
                       sig + 0, tick, east);
        }
        if (west >= 0) d.signal_wait_until(sig + 0, core::Cmp::kGe, tick);
        if (east >= 0) d.signal_wait_until(sig + 1, core::Cmp::kGe, tick);
        // (3) unpack column halos from this iteration's parity slot.
        d.compute(2 * t.lnx);
        if (cfg.functional) {
          for (std::size_t i = 0; i < t.lnx; ++i) {
            if (west >= 0) cur[t.idx(i + 1, 0)] = colhalo[base + i];
            if (east >= 0) cur[t.idx(i + 1, t.lny + 1)] = colhalo[base + t.lnx + i];
          }
        }
        // (4) exchange full-width rows (carrying the diagonal corners). The
        // rows land in the neighbor's current-parity buffer, whose halo rows
        // nobody else touches this iteration.
        if (north >= 0) {
          d.put_signal(cur + t.idx(t.lnx + 1, 0), cur + t.idx(1, 0),
                       t.pitch * sizeof(double), sig + 3, tick, north);
        }
        if (south >= 0) {
          d.put_signal(cur + t.idx(0, 0), cur + t.idx(t.lnx, 0),
                       t.pitch * sizeof(double), sig + 2, tick, south);
        }
        if (north >= 0) d.signal_wait_until(sig + 2, core::Cmp::kGe, tick);
        if (south >= 0) d.signal_wait_until(sig + 3, core::Cmp::kGe, tick);
        // (5) 9-point update.
        d.compute(t.lnx * t.lny);
        if (cfg.functional) {
          for (std::size_t i = 1; i <= t.lnx; ++i) {
            for (std::size_t j = 1; j <= t.lny; ++j) {
              double c = cur[t.idx(i, j)];
              double edges = cur[t.idx(i - 1, j)] + cur[t.idx(i + 1, j)] +
                             cur[t.idx(i, j - 1)] + cur[t.idx(i, j + 1)];
              double diag = cur[t.idx(i - 1, j - 1)] + cur[t.idx(i - 1, j + 1)] +
                            cur[t.idx(i + 1, j - 1)] + cur[t.idx(i + 1, j + 1)];
              next[t.idx(i, j)] = cfg.wc * c + cfg.we * edges + cfg.wd * diag;
            }
          }
        }
        std::swap(cur, next);  // lockstep in program order: stays symmetric
      }
      d.quiet();
    });
    ctx.barrier_all();
    double elapsed_ms = (ctx.now() - t0).to_ms();

    double partial = 0;
    if (cfg.functional) {
      for (std::size_t i = 1; i <= t.lnx; ++i) {
        for (std::size_t j = 1; j <= t.lny; ++j) partial += cur[t.idx(i, j)];
      }
    }
    double total = global_checksum(ctx, cfg, partial);
    if (me == 0) {
      result.exec_time_ms = elapsed_ms;
      result.checksum = total;
      result.cells_updated = static_cast<std::uint64_t>(t.lnx) * t.lny *
                             static_cast<std::uint64_t>(np) *
                             static_cast<std::uint64_t>(cfg.iterations);
    }
    ctx.barrier_all();
  });
  return result;
}

double stencil2d_reference_checksum(const Stencil2DConfig& cfg) {
  const std::size_t pitch = cfg.ny + 2;
  std::vector<double> cur((cfg.nx + 2) * pitch, 0.0);
  std::vector<double> next((cfg.nx + 2) * pitch, 0.0);
  auto idx = [pitch](std::size_t i, std::size_t j) { return i * pitch + j; };
  for (std::size_t i = 1; i <= cfg.nx; ++i) {
    for (std::size_t j = 1; j <= cfg.ny; ++j) {
      cur[idx(i, j)] = initial_value(i - 1, j - 1);
    }
  }
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    for (std::size_t i = 1; i <= cfg.nx; ++i) {
      for (std::size_t j = 1; j <= cfg.ny; ++j) {
        double c = cur[idx(i, j)];
        double edges = cur[idx(i - 1, j)] + cur[idx(i + 1, j)] +
                       cur[idx(i, j - 1)] + cur[idx(i, j + 1)];
        double diag = cur[idx(i - 1, j - 1)] + cur[idx(i - 1, j + 1)] +
                      cur[idx(i + 1, j - 1)] + cur[idx(i + 1, j + 1)];
        next[idx(i, j)] = cfg.wc * c + cfg.we * edges + cfg.wd * diag;
      }
    }
    std::swap(cur, next);
  }
  double sum = 0;
  for (std::size_t i = 1; i <= cfg.nx; ++i) {
    for (std::size_t j = 1; j <= cfg.ny; ++j) sum += cur[idx(i, j)];
  }
  return sum;
}

}  // namespace gdrshmem::apps
