#include "apps/stencil2d.hpp"

#include <algorithm>
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

/// One PE's part of the grid: its interior (`lnx` x `lny` cells inside a
/// one-cell halo ring, rows `pitch` apart), its neighbours in the process
/// grid (-1 at the boundary) and its buffers.
struct Tile {
  std::size_t lnx, lny;  // interior rows/cols
  std::size_t pitch;     // lny + 2
  int north, south, west, east;
  double* cur;
  double* next;
  /// Symmetric column-halo landing zones: slots of [from west, from east].
  double* colhalo;
  /// Local (non-symmetric) device buffer for the two outgoing columns.
  double* pack;
  /// Symmetric signal words, zeroed (none unless asked for).
  std::uint64_t* sig = nullptr;
  std::size_t idx(std::size_t i, std::size_t j) const { return i * pitch + j; }
};

/// Sets up my tile: allocates cur, next, `halo_slots` column-halo slots and
/// `signals` signal words symmetrically (in that order on every PE), and
/// writes the initial condition: interior by global coordinate, halo and
/// boundary zero.
Tile make_tile(Ctx& ctx, const Stencil2DConfig& cfg, std::size_t halo_slots,
               std::size_t signals) {
  const int me = ctx.my_pe();
  const int rx = me / cfg.py;  // my row in the process grid
  const int ry = me % cfg.py;
  Tile t;
  t.lnx = cfg.nx / static_cast<std::size_t>(cfg.px);
  t.lny = cfg.ny / static_cast<std::size_t>(cfg.py);
  t.pitch = t.lny + 2;
  t.north = rx > 0 ? me - cfg.py : -1;
  t.south = rx < cfg.px - 1 ? me + cfg.py : -1;
  t.west = ry > 0 ? me - 1 : -1;
  t.east = ry < cfg.py - 1 ? me + 1 : -1;

  const std::size_t tile_doubles = (t.lnx + 2) * t.pitch;
  t.cur = static_cast<double*>(
      ctx.shmalloc(tile_doubles * sizeof(double), Domain::kGpu));
  t.next = static_cast<double*>(
      ctx.shmalloc(tile_doubles * sizeof(double), Domain::kGpu));
  t.colhalo = static_cast<double*>(
      ctx.shmalloc(halo_slots * 2 * t.lnx * sizeof(double), Domain::kGpu));
  t.pack = static_cast<double*>(ctx.cuda_malloc(2 * t.lnx * sizeof(double)));
  if (signals > 0) {
    t.sig = static_cast<std::uint64_t*>(
        ctx.shmalloc(signals * sizeof(std::uint64_t), Domain::kGpu));
    std::fill_n(t.sig, signals, 0);
  }

  std::fill_n(t.cur, tile_doubles, 0.0);
  std::fill_n(t.next, tile_doubles, 0.0);
  if (cfg.functional) {
    for (std::size_t i = 1; i <= t.lnx; ++i) {
      for (std::size_t j = 1; j <= t.lny; ++j) {
        std::size_t gi = static_cast<std::size_t>(rx) * t.lnx + i - 1;
        std::size_t gj = static_cast<std::size_t>(ry) * t.lny + j - 1;
        t.cur[t.idx(i, j)] = initial_value(gi, gj);
      }
    }
  }
  return t;
}

/// Packs my boundary columns: west into pack[0, lnx), east after it.
void pack_columns(const Tile& t, const Stencil2DConfig& cfg) {
  if (!cfg.functional) return;
  for (std::size_t i = 0; i < t.lnx; ++i) {
    t.pack[i] = t.cur[t.idx(i + 1, 1)];              // west column
    t.pack[t.lnx + i] = t.cur[t.idx(i + 1, t.lny)];  // east column
  }
}

/// Unpacks the column halos of the slot at `colhalo + base`.
void unpack_columns(const Tile& t, const Stencil2DConfig& cfg,
                    std::size_t base) {
  if (!cfg.functional) return;
  for (std::size_t i = 0; i < t.lnx; ++i) {
    if (t.west >= 0) t.cur[t.idx(i + 1, 0)] = t.colhalo[base + i];
    if (t.east >= 0) {
      t.cur[t.idx(i + 1, t.lny + 1)] = t.colhalo[base + t.lnx + i];
    }
  }
}

/// The 9-point update of my interior, from cur into next.
void update(const Tile& t, const Stencil2DConfig& cfg) {
  if (!cfg.functional) return;
  for (std::size_t i = 1; i <= t.lnx; ++i) {
    for (std::size_t j = 1; j <= t.lny; ++j) {
      double c = t.cur[t.idx(i, j)];
      double edges = t.cur[t.idx(i - 1, j)] + t.cur[t.idx(i + 1, j)] +
                     t.cur[t.idx(i, j - 1)] + t.cur[t.idx(i, j + 1)];
      double diag = t.cur[t.idx(i - 1, j - 1)] + t.cur[t.idx(i - 1, j + 1)] +
                    t.cur[t.idx(i + 1, j - 1)] + t.cur[t.idx(i + 1, j + 1)];
      t.next[t.idx(i, j)] = cfg.wc * c + cfg.we * edges + cfg.wd * diag;
    }
  }
}

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

/// The run both variants share: the grid check, then on every PE its tile
/// (see make_tile), a barrier, `evolve(ctx, tile)` timed from that barrier
/// to the next one, and the global checksum, which PE 0 reports.
template <class Evolve>
Stencil2DResult run_tiles(const hw::ClusterConfig& cluster,
                          const core::RuntimeOptions& opts,
                          const Stencil2DConfig& cfg, std::size_t halo_slots,
                          std::size_t signals, Evolve evolve) {
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
    Tile t = make_tile(ctx, cfg, halo_slots, signals);
    ctx.barrier_all();
    sim::Time t0 = ctx.now();
    evolve(ctx, t);
    ctx.barrier_all();
    double elapsed_ms = (ctx.now() - t0).to_ms();

    double partial = 0;
    if (cfg.functional) {
      for (std::size_t i = 1; i <= t.lnx; ++i) {
        for (std::size_t j = 1; j <= t.lny; ++j) partial += t.cur[t.idx(i, j)];
      }
    }
    double total = global_checksum(ctx, cfg, partial);
    if (ctx.my_pe() == 0) {
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

}  // namespace

Stencil2DResult run_stencil2d(const hw::ClusterConfig& cluster,
                              const core::RuntimeOptions& opts,
                              const Stencil2DConfig& cfg) {
  // One column-halo slot and no signals: barriers order every exchange.
  return run_tiles(cluster, opts, cfg, 1, 0, [&](Ctx& ctx, Tile& t) {
    for (int iter = 0; iter < cfg.iterations; ++iter) {
      // (1) pack boundary columns.
      ctx.launch_kernel(2 * t.lnx, cfg.per_cell_ns,
                        [&] { pack_columns(t, cfg); });
      // (2) exchange columns: my west column becomes the west neighbor's
      // "from east" halo and vice versa.
      if (t.west >= 0) {
        ctx.putmem_nbi(t.colhalo + t.lnx, t.pack, t.lnx * sizeof(double),
                       t.west);
      }
      if (t.east >= 0) {
        ctx.putmem_nbi(t.colhalo, t.pack + t.lnx, t.lnx * sizeof(double),
                       t.east);
      }
      ctx.quiet();
      ctx.barrier_all();
      // (3) unpack column halos.
      ctx.launch_kernel(2 * t.lnx, cfg.per_cell_ns,
                        [&] { unpack_columns(t, cfg, 0); });
      // (4) exchange full-width rows (carrying the diagonal corners).
      if (t.north >= 0) {
        ctx.putmem_nbi(t.cur + t.idx(t.lnx + 1, 0), t.cur + t.idx(1, 0),
                       t.pitch * sizeof(double), t.north);
      }
      if (t.south >= 0) {
        ctx.putmem_nbi(t.cur + t.idx(0, 0), t.cur + t.idx(t.lnx, 0),
                       t.pitch * sizeof(double), t.south);
      }
      ctx.quiet();
      ctx.barrier_all();
      // (5) 9-point update.
      ctx.launch_kernel(t.lnx * t.lny, cfg.per_cell_ns,
                        [&] { update(t, cfg); });
      std::swap(t.cur, t.next);  // lockstep on every PE: stays symmetric
    }
  });
}

Stencil2DResult run_stencil2d_device(const hw::ClusterConfig& cluster,
                                     const core::RuntimeOptions& opts,
                                     const Stencil2DConfig& cfg,
                                     core::DeviceScope scope) {
  // Parity-buffered column halos: two slots, alternating per iteration, so
  // iteration i+1's puts can never clobber a slot iteration i is still
  // reading. Arrival signals: [0] west column, [1] east column, [2] north
  // row, [3] south row. Monotonically increasing (iteration count), so they
  // never need a reset between iterations.
  return run_tiles(cluster, opts, cfg, 2, 4, [&](Ctx& ctx, Tile& t) {
    std::uint64_t* sig = t.sig;
    // The whole evolution loop is ONE resident kernel: halo exchange is
    // issued from inside it, synchronized by signals instead of host
    // barriers, and only the final iteration returns to the host.
    ctx.launch_kernel_device(cfg.per_cell_ns, scope, [&](core::DeviceCtx& d) {
      for (int iter = 0; iter < cfg.iterations; ++iter) {
        const std::uint64_t tick = static_cast<std::uint64_t>(iter) + 1;
        const std::size_t base = static_cast<std::size_t>(iter % 2) * 2 * t.lnx;
        // (1) pack boundary columns.
        d.compute(2 * t.lnx);
        pack_columns(t, cfg);
        // (2) exchange columns: my west column becomes the west neighbor's
        // "from east" halo and vice versa, signal riding behind the data.
        if (t.west >= 0) {
          d.put_signal(t.colhalo + base + t.lnx, t.pack,
                       t.lnx * sizeof(double), sig + 1, tick, t.west);
        }
        if (t.east >= 0) {
          d.put_signal(t.colhalo + base, t.pack + t.lnx,
                       t.lnx * sizeof(double), sig + 0, tick, t.east);
        }
        if (t.west >= 0) d.signal_wait_until(sig + 0, core::Cmp::kGe, tick);
        if (t.east >= 0) d.signal_wait_until(sig + 1, core::Cmp::kGe, tick);
        // (3) unpack column halos from this iteration's parity slot.
        d.compute(2 * t.lnx);
        unpack_columns(t, cfg, base);
        // (4) exchange full-width rows (carrying the diagonal corners). The
        // rows land in the neighbor's current-parity buffer, whose halo rows
        // nobody else touches this iteration.
        if (t.north >= 0) {
          d.put_signal(t.cur + t.idx(t.lnx + 1, 0), t.cur + t.idx(1, 0),
                       t.pitch * sizeof(double), sig + 3, tick, t.north);
        }
        if (t.south >= 0) {
          d.put_signal(t.cur + t.idx(0, 0), t.cur + t.idx(t.lnx, 0),
                       t.pitch * sizeof(double), sig + 2, tick, t.south);
        }
        if (t.north >= 0) d.signal_wait_until(sig + 2, core::Cmp::kGe, tick);
        if (t.south >= 0) d.signal_wait_until(sig + 3, core::Cmp::kGe, tick);
        // (5) 9-point update.
        d.compute(t.lnx * t.lny);
        update(t, cfg);
        std::swap(t.cur, t.next);  // lockstep in program order: stays symmetric
      }
      d.quiet();
    });
  });
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
