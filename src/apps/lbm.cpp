#include "apps/lbm.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "core/ctx.hpp"

namespace gdrshmem::apps {

using core::Ctx;
using core::Domain;

namespace {

// D3Q7 lattice: rest + one velocity per axis direction.
constexpr int kQ = 7;
constexpr int kCx[kQ] = {0, 1, -1, 0, 0, 0, 0};
constexpr int kCy[kQ] = {0, 0, 0, 1, -1, 0, 0};
constexpr int kCz[kQ] = {0, 0, 0, 0, 0, 1, -1};
constexpr float kW[kQ] = {0.25f, 0.125f, 0.125f, 0.125f, 0.125f, 0.125f, 0.125f};
constexpr int kUp = 5;    // +z crossing distribution
constexpr int kDown = 6;  // -z crossing distribution

float initial_phi(std::size_t gx, std::size_t gy, std::size_t gz) {
  // A deterministic two-phase blob pattern.
  return ((gx * 13 + gy * 7 + gz * 3) % 97 < 40) ? 1.0f : -1.0f;
}

}  // namespace

LbmResult run_lbm(const hw::ClusterConfig& cluster,
                  const core::RuntimeOptions& opts, const LbmConfig& cfg) {
  core::Runtime rt(cluster, opts);
  const int np = rt.num_pes();
  if (cfg.z % static_cast<std::size_t>(np) != 0) {
    throw core::ShmemError("lbm: Z must divide evenly across PEs");
  }

  LbmResult result;
  rt.run([&](Ctx& ctx) {
    const int me = ctx.my_pe();
    const std::size_t X = cfg.x, Y = cfg.y;
    const std::size_t lz = cfg.z / static_cast<std::size_t>(np);
    const std::size_t P = X * Y;                 // plane size (sites)
    const std::size_t S = (lz + 2) * P;          // field size incl. z halos
    const int up = (me + 1) % np;
    const int down = (me - 1 + np) % np;

    auto field = [&] {
      return static_cast<float*>(ctx.shmalloc(S * sizeof(float), Domain::kGpu));
    };
    std::array<float*, kQ> f{}, fn{}, g{}, gn{};
    for (int i = 0; i < kQ; ++i) f[i] = field();
    for (int i = 0; i < kQ; ++i) fn[i] = field();
    for (int i = 0; i < kQ; ++i) g[i] = field();
    for (int i = 0; i < kQ; ++i) gn[i] = field();
    float* phi = field();
    float* lap = field();
    float* rho = field();
    float* ux = field();
    float* uy = field();
    float* uz = field();
    float* mu = field();

    // Halo put: the redesigned code uses asynchronous one-sided puts; the
    // MPI-style baseline waits for each message (sendrecv semantics).
    auto halo_put = [&](void* dst_sym, const void* src, std::size_t n, int pe) {
      if (cfg.blocking_exchange) {
        ctx.putmem(dst_sym, src, n, pe);
        ctx.quiet();
      } else {
        ctx.putmem_nbi(dst_sym, src, n, pe);
      }
    };
    auto site = [&](std::size_t x, std::size_t y, std::size_t zz) {
      return (zz * Y + y) * X + x;
    };
    auto plane = [&](float* fld, std::size_t zz) { return fld + zz * P; };

    // ---- initialization ----------------------------------------------------
    // Never-used heap space reads zero (core/heap.hpp), so no clearing pass.
    if (cfg.functional) {
      for (std::size_t zz = 1; zz <= lz; ++zz) {
        std::size_t gz = static_cast<std::size_t>(me) * lz + zz - 1;
        for (std::size_t y = 0; y < Y; ++y) {
          for (std::size_t x = 0; x < X; ++x) {
            float p0 = initial_phi(x, y, gz);
            for (int i = 0; i < kQ; ++i) {
              f[i][site(x, y, zz)] = kW[i] * p0;
              g[i][site(x, y, zz)] = kW[i] * 1.0f;  // rho0 = 1
            }
          }
        }
      }
    }
    ctx.barrier_all();

    auto local_mass = [&](const std::array<float*, kQ>& dist) {
      double m = 0;
      for (std::size_t zz = 1; zz <= lz; ++zz) {
        for (std::size_t s = zz * P; s < (zz + 1) * P; ++s) {
          for (int i = 0; i < kQ; ++i) m += dist[i][s];
        }
      }
      return m;
    };
    auto* partial = static_cast<double*>(ctx.shmalloc(2 * sizeof(double)));
    auto* total = static_cast<double*>(ctx.shmalloc(2 * sizeof(double)));
    partial[0] = local_mass(f);
    partial[1] = local_mass(g);
    ctx.team_reduce(ctx.team_world(), total, partial, 2, core::ReduceOp::kSum);
    double mass0_phase = total[0], mass0_fluid = total[1];

    const double kn = cfg.per_cell_ns;
    const std::size_t cells = lz * P;

    // ---- evolution loop (the phase the paper measures) ---------------------
    sim::Time t0 = ctx.now();
    for (int iter = 0; iter < cfg.iterations; ++iter) {
      // Kernel 1: moments.
      ctx.launch_kernel(cells, 0.20 * kn, [&] {
        if (!cfg.functional) return;
        for (std::size_t s = P; s < (lz + 1) * P; ++s) {
          float p = 0, r = 0, vx = 0, vy = 0, vz = 0;
          for (int i = 0; i < kQ; ++i) {
            p += f[i][s];
            r += g[i][s];
            vx += kCx[i] * g[i][s];
            vy += kCy[i] * g[i][s];
            vz += kCz[i] * g[i][s];
          }
          phi[s] = p;
          rho[s] = r;
          float inv = r != 0.0f ? 1.0f / r : 0.0f;
          ux[s] = vx * inv;
          uy[s] = vy * inv;
          uz[s] = vz * inv;
          mu[s] = p * p * p - p;  // double-well chemical potential (bulk)
        }
      });

      // Exchange A (1 element): phase-field boundary planes.
      halo_put(plane(phi, 0), plane(phi, lz), P * sizeof(float), up);
      halo_put(plane(phi, lz + 1), plane(phi, 1), P * sizeof(float), down);
      ctx.quiet();
      ctx.barrier_all();

      // Kernel 2: laplacian of phi (7-point; x/y periodic, z via halos).
      ctx.launch_kernel(cells, 0.15 * kn, [&] {
        if (!cfg.functional) return;
        for (std::size_t zz = 1; zz <= lz; ++zz) {
          for (std::size_t y = 0; y < Y; ++y) {
            for (std::size_t x = 0; x < X; ++x) {
              std::size_t s = site(x, y, zz);
              float c = phi[s];
              float sum = phi[site((x + 1) % X, y, zz)] +
                          phi[site((x + X - 1) % X, y, zz)] +
                          phi[site(x, (y + 1) % Y, zz)] +
                          phi[site(x, (y + Y - 1) % Y, zz)] +
                          phi[site(x, y, zz + 1)] + phi[site(x, y, zz - 1)];
              lap[s] = sum - 6.0f * c;
            }
          }
        }
      });

      // Kernel 3: collision (BGK, exactly mass-conserving) + forces.
      ctx.launch_kernel(cells, 0.40 * kn, [&] {
        if (!cfg.functional) return;
        for (std::size_t zz = 1; zz <= lz; ++zz) {
          for (std::size_t s = zz * P; s < (zz + 1) * P; ++s) {
            float p = phi[s], l = lap[s], r = rho[s];
            // Phase distribution: feq sums to phi by construction.
            float feq_side = 0.125f * p + cfg.gamma * l;
            float feq0 = p - 6.0f * feq_side;
            f[0][s] -= (f[0][s] - feq0) / cfg.tau_f;
            for (int i = 1; i < kQ; ++i) {
              f[i][s] -= (f[i][s] - feq_side) / cfg.tau_f;
            }
            // Momentum distribution: geq sums to rho (sum_i w_i c_i = 0).
            for (int i = 0; i < kQ; ++i) {
              float cu = kCx[i] * ux[s] + kCy[i] * uy[s] + kCz[i] * uz[s];
              float geq = kW[i] * r * (1.0f + 3.0f * cu);
              g[i][s] -= (g[i][s] - geq) / cfg.tau_g;
            }
            // Interface force along z: zero-sum (+F to g5, -F to g6).
            float fz = cfg.kforce * mu[s] * l;
            g[kUp][s] += fz;
            g[kDown][s] -= fz;
          }
          // Boundary coupling: the planes adjacent to a halo use the
          // neighbor moments received last step (exchange C) in a zero-sum
          // shear/pressure term.
          if (zz == 1 || zz == lz) {
            std::size_t hz = (zz == 1) ? 0 : lz + 1;
            for (std::size_t i2 = 0; i2 < P; ++i2) {
              std::size_t s = zz * P + i2;
              std::size_t h = hz * P + i2;
              float shear = cfg.kboundary *
                            ((ux[h] - ux[s]) + (uy[h] - uy[s]) + (uz[h] - uz[s]) +
                             (rho[h] - rho[s]) + (mu[h] - mu[s]));
              g[kUp][s] += shear;
              g[kDown][s] -= shear;
            }
          }
        }
      });

      // Exchange B (1 element): z-crossing phase distributions.
      halo_put(plane(f[kUp], 0), plane(f[kUp], lz), P * sizeof(float), up);
      halo_put(plane(f[kDown], lz + 1), plane(f[kDown], 1), P * sizeof(float),
               down);
      ctx.quiet();
      ctx.barrier_all();

      // Exchange C (6 elements): z-crossing momentum distributions plus the
      // boundary moments used by next step's boundary coupling.
      halo_put(plane(g[kUp], 0), plane(g[kUp], lz), P * sizeof(float), up);
      halo_put(plane(g[kDown], lz + 1), plane(g[kDown], 1), P * sizeof(float),
               down);
      for (float* m : {rho, ux, uy, uz, mu}) {
        halo_put(plane(m, 0), plane(m, lz), P * sizeof(float), up);
        halo_put(plane(m, lz + 1), plane(m, 1), P * sizeof(float), down);
      }
      ctx.quiet();
      ctx.barrier_all();

      // Kernel 4: streaming (pull), x/y periodic, z through the halos.
      ctx.launch_kernel(cells, 0.25 * kn, [&] {
        if (!cfg.functional) return;
        for (std::size_t zz = 1; zz <= lz; ++zz) {
          for (std::size_t y = 0; y < Y; ++y) {
            for (std::size_t x = 0; x < X; ++x) {
              std::size_t s = site(x, y, zz);
              for (int i = 0; i < kQ; ++i) {
                auto sx = static_cast<std::size_t>(
                    (static_cast<long>(x) - kCx[i] + static_cast<long>(X)) %
                    static_cast<long>(X));
                auto sy = static_cast<std::size_t>(
                    (static_cast<long>(y) - kCy[i] + static_cast<long>(Y)) %
                    static_cast<long>(Y));
                auto sz = static_cast<std::size_t>(static_cast<long>(zz) - kCz[i]);
                std::size_t src = site(sx, sy, sz);
                fn[i][s] = f[i][src];
                gn[i][s] = g[i][src];
              }
            }
          }
        }
      });
      std::swap(f, fn);
      std::swap(g, gn);
    }
    ctx.barrier_all();
    double elapsed_ms = (ctx.now() - t0).to_ms();

    partial[0] = local_mass(f);
    partial[1] = local_mass(g);
    ctx.team_reduce(ctx.team_world(), total, partial, 2, core::ReduceOp::kSum);
    if (me == 0) {
      result.evolution_ms = elapsed_ms;
      result.phase_mass_initial = mass0_phase;
      result.phase_mass_final = total[0];
      result.fluid_mass_initial = mass0_fluid;
      result.fluid_mass_final = total[1];
      result.halo_bytes_per_step = 2 * (1 + 1 + 6) * P * sizeof(float);
    }
    ctx.barrier_all();
  });
  return result;
}

}  // namespace gdrshmem::apps
