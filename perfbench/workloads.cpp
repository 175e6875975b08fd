// The four benchmark workloads. Each constructor is the generator: it is the
// only code that sees the seed, and it turns it into the operation lists,
// payload keys, kernel costs and traffic parameters the episodes replay.
// Every episode runs one fiber-backed engine on the calling OS thread.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "apps/checkpoint/service.hpp"
#include "apps/checkpoint/traffic.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

namespace apps = gdrshmem::apps;
using core::Ctx;
using core::Domain;

hw::ClusterConfig cluster_of(int nodes, int pes_per_node, bool same_socket) {
  hw::ClusterConfig c;
  c.num_nodes = nodes;
  c.pes_per_node = pes_per_node;
  c.gpus_per_node = 2;
  c.hcas_per_node = 2;
  c.sockets_per_node = 2;
  c.hca_gpu_same_socket = same_socket;
  return c;
}

std::int64_t since(Ctx& ctx, sim::Time t0) { return (ctx.now() - t0).count_ns(); }

/// A point-to-point route from PE 0: the target (1 = same node, 2 = other
/// node) and the domains of PE 0's local buffer and the remote symmetric
/// buffer. A put moves local -> remote, a get remote -> local, so the three
/// domain pairs cover H-D, D-H and D-D in both directions.
struct Route {
  int target;
  Domain local;
  Domain remote;
};

constexpr Route kRoutes[] = {
    {1, Domain::kHost, Domain::kGpu}, {1, Domain::kGpu, Domain::kHost},
    {1, Domain::kGpu, Domain::kGpu},  {2, Domain::kHost, Domain::kGpu},
    {2, Domain::kGpu, Domain::kHost}, {2, Domain::kGpu, Domain::kGpu},
};
constexpr int kNumRoutes = 6;

int dom_index(Domain d) { return d == Domain::kGpu ? 1 : 0; }

/// Routes a transport implements: the host-based pipeline has no
/// inter-node H-D/D-H path.
bool supported(core::TransportKind t, const Route& r) {
  return t != core::TransportKind::kHostPipeline || r.target == 1 ||
         r.local == r.remote;
}

// ---------------------------------------------------------------------------
// p2p-small: closed loop, one outstanding operation, 8 B - 8 KB.

enum class SmallKind { kPut, kGet, kFetchAdd, kCompareSwap };

struct SmallOp {
  int route;
  SmallKind kind;
  std::size_t bytes;
  std::uint64_t key;
};

struct SmallPlan {
  core::TransportKind transport;
  std::vector<SmallOp> ops;
};

class P2pSmall : public Workload {
 public:
  static constexpr std::size_t kMaxBytes = 8192;

  P2pSmall(std::uint64_t seed, Scale scale) : pattern_(seed ^ 0x5bd1e995u) {
    const int rma = scale == Scale::kFull ? 5000 : 20;
    const int atomics = scale == Scale::kFull ? 1000 : 5;
    sim::Rng rng(seed);
    for (core::TransportKind t :
         {core::TransportKind::kEnhancedGdr, core::TransportKind::kHostPipeline}) {
      SmallPlan plan{t, {}};
      for (int r = 0; r < kNumRoutes; ++r) {
        if (!supported(t, kRoutes[r])) continue;
        for (int i = 0; i < rma; ++i) {
          plan.ops.push_back({r, SmallKind::kPut, size(rng), rng.next_u64()});
          plan.ops.push_back({r, SmallKind::kGet, size(rng), rng.next_u64()});
        }
        for (int i = 0; i < atomics; ++i) {
          plan.ops.push_back({r, SmallKind::kFetchAdd, 8, rng.next_u64()});
          plan.ops.push_back({r, SmallKind::kCompareSwap, 8, rng.next_u64()});
        }
      }
      for (std::size_t i = plan.ops.size(); i > 1; --i) {
        std::swap(plan.ops[i - 1], plan.ops[rng.next_below(i)]);
      }
      plans_.push_back(std::move(plan));
    }
  }

  void run(Episode& ep) override {
    for (const SmallPlan& plan : plans_) {
      core::RuntimeOptions opts = pinned_options();
      opts.transport = plan.transport;
      // Small heaps: the buffers are 8 KB, so set-up stays negligible.
      opts.host_heap_bytes = 1u << 20;
      opts.gpu_heap_bytes = 1u << 20;
      auto rt = ep.make_runtime(cluster_of(2, 2, true), opts);
      ep.run_program(*rt, [&](Ctx& ctx) { program(ep, ctx, plan); });
    }
  }

 private:
  /// Log-uniform in [8, 8192], a multiple of 8.
  static std::size_t size(sim::Rng& rng) {
    auto b = static_cast<std::size_t>(8.0 * std::pow(1024.0, rng.next_double()));
    return std::min(kMaxBytes, (b + 7) / 8 * 8);
  }

  void program(Episode& ep, Ctx& ctx, const SmallPlan& plan) {
    void* buf[2] = {nullptr, nullptr};
    std::int64_t* ctr[2] = {nullptr, nullptr};
    for (Domain d : {Domain::kHost, Domain::kGpu}) {
      const int i = dom_index(d);
      timed(ep, ctx, Call::kShmalloc, kMaxBytes,
            [&] { buf[i] = ctx.shmalloc(kMaxBytes, d); });
      timed(ep, ctx, Call::kShmalloc, 8, [&] {
        ctr[i] = static_cast<std::int64_t*>(ctx.shmalloc(sizeof(std::int64_t), d));
      });
      *ctr[i] = 0;  // every PE clears its own copy before the barrier
    }
    timed(ep, ctx, Call::kBarrierAll, 0, [&] { ctx.barrier_all(); });
    if (ctx.my_pe() == 0) drive(ep, ctx, plan, buf, ctr);
    timed(ep, ctx, Call::kBarrierAll, 0, [&] { ctx.barrier_all(); });
  }

  void drive(Episode& ep, Ctx& ctx, const SmallPlan& plan, void* const buf[2],
             std::int64_t* const ctr[2]) {
    core::Runtime& rt = ctx.runtime();
    std::vector<std::byte> host_local(kMaxBytes);
    void* local_of[2] = {host_local.data(), ctx.cuda_malloc(kMaxBytes)};
    std::int64_t expect[3][2] = {};  // counter value per (target, domain)
    bool used[3][2] = {};
    for (const SmallOp& op : plan.ops) {
      const Route& r = kRoutes[op.route];
      void* local = local_of[dom_index(r.local)];
      const int rd = dom_index(r.remote);
      const std::size_t n = op.bytes;
      const sim::Time t0 = ctx.now();
      switch (op.kind) {
        case SmallKind::kPut: {
          pattern_.fill(local, n, op.key);
          timed(ep, ctx, Call::kPutmem, n,
                [&] { ctx.putmem(buf[rd], local, n, r.target); });
          timed(ep, ctx, Call::kQuiet, 0, [&] { ctx.quiet(); });
          const std::int64_t lat = since(ctx, t0);
          ep.write_ns.push_back(lat);
          ep.write_bytes += static_cast<double>(n);
          ep.write_span_ns += static_cast<double>(lat);
          ep.check(pattern_.check(rt.translate(buf[rd], 0, r.target, n, nullptr),
                                  n, op.key));
          break;
        }
        case SmallKind::kGet: {
          pattern_.fill(rt.translate(buf[rd], 0, r.target, n, nullptr), n, op.key);
          timed(ep, ctx, Call::kGetmem, n,
                [&] { ctx.getmem(local, buf[rd], n, r.target); });
          read_sample(ep, since(ctx, t0), n);
          ep.check(pattern_.check(local, n, op.key));
          break;
        }
        case SmallKind::kFetchAdd: {
          const auto v = static_cast<std::int64_t>(op.key % 1000) + 1;
          std::int64_t old = 0;
          timed(ep, ctx, Call::kAtomic, n,
                [&] { old = ctx.atomic_fetch_add(ctr[rd], v, r.target); });
          read_sample(ep, since(ctx, t0), n);
          ep.check(old == expect[r.target][rd]);
          expect[r.target][rd] += v;
          break;
        }
        case SmallKind::kCompareSwap: {
          const auto v = static_cast<std::int64_t>(op.key >> 1);
          std::int64_t old = 0;
          timed(ep, ctx, Call::kAtomic, n, [&] {
            old = ctx.atomic_compare_swap(ctr[rd], expect[r.target][rd], v, r.target);
          });
          read_sample(ep, since(ctx, t0), n);
          ep.check(old == expect[r.target][rd]);
          expect[r.target][rd] = v;
          break;
        }
      }
      used[r.target][rd] = true;
      ep.step_ns.push_back(since(ctx, t0));
      ep.payload_bytes += static_cast<double>(n);
    }
    // The final counters at the targets hold every atomic's effect.
    for (int target = 1; target <= 2; ++target) {
      for (int d = 0; d < 2; ++d) {
        if (!used[target][d]) continue;
        std::int64_t final_value = 0;
        std::memcpy(&final_value,
                    rt.translate(ctr[d], 0, target, sizeof(std::int64_t), nullptr),
                    sizeof final_value);
        ep.check(final_value == expect[target][d]);
      }
    }
  }

  static void read_sample(Episode& ep, std::int64_t lat, std::size_t n) {
    ep.read_ns.push_back(lat);
    ep.read_bytes += static_cast<double>(n);
    ep.read_span_ns += static_cast<double>(lat);
  }

  Pattern pattern_;
  std::vector<SmallPlan> plans_;
};

// ---------------------------------------------------------------------------
// p2p-large: windows of non-blocking puts or gets closed by quiet, 64 KB -
// 4 MB, from a local buffer pool larger than the registration cache.

struct LargeOp {
  int route;
  std::size_t bytes;
  int size_class;  // local buffer capacity P2pLarge::capacity(size_class)
  int slot;        // which buffer of that class
  std::uint64_t key;
};

struct Window {
  bool put;
  std::vector<LargeOp> ops;
};

struct LargePlan {
  bool same_socket;  // HCA and GPU on one socket (Table III's fast regime)
  std::vector<Window> windows;
};

class P2pLarge : public Workload {
 public:
  static constexpr std::size_t kMinBytes = 64u << 10;
  /// Sizes fall in six octaves above 64 KB; a class-c buffer holds one
  /// octave's largest size.
  static constexpr int kClasses = 6;
  static constexpr std::size_t capacity(int c) { return (2 * kMinBytes) << c; }
  static constexpr std::size_t kMaxBytes = (2 * kMinBytes) << (kClasses - 1);  // 4 MB
  /// 12 buffers per class and domain: 144 dynamic registrations on PE 0,
  /// above hw::SystemParams::mr_cache_capacity (128).
  static constexpr int kSlotsPerClass = 12;
  static constexpr int kWindow = 2;

  P2pLarge(std::uint64_t seed, Scale scale) : pattern_(seed ^ 0x2545f491u) {
    const int windows = scale == Scale::kFull ? 540 : 18;  // per kind and plan
    sim::Rng rng(seed);
    for (bool same_socket : {true, false}) {
      LargePlan plan{same_socket, {}};
      for (bool put : {true, false}) add_windows(plan, put, windows, rng);
      shuffle(plan.windows, rng);
      plans_.push_back(std::move(plan));
    }
  }

  void run(Episode& ep) override {
    for (const LargePlan& plan : plans_) {
      core::RuntimeOptions opts = pinned_options();
      // kWindow remote slots of 4 MB per domain, plus the sync pool.
      opts.host_heap_bytes = 12u << 20;
      opts.gpu_heap_bytes = 10u << 20;
      auto rt = ep.make_runtime(cluster_of(2, 2, plan.same_socket), opts);
      ep.run_program(*rt, [&](Ctx& ctx) { program(ep, ctx, plan); });
    }
  }

 private:
  /// Appends `n` windows of one kind (n a multiple of 18). Every route and
  /// size octave occurs equally often, sizes are spread evenly (in log
  /// scale) across each octave, and a window pairs a same-node and an
  /// other-node op with the same domains and octave. So the mix of windows
  /// is fixed and seeds differ only in exact sizes, pairing, buffer choice
  /// and order. The pairing also keeps two GPU-source other-node puts out
  /// of one window: such a put stages its last chunks in the PE's one
  /// bounce buffer and returns before they are sent, so a second one in
  /// flight would overwrite them (a runtime defect).
  static void add_windows(LargePlan& plan, bool put, int n, sim::Rng& rng) {
    std::vector<LargeOp> ops[kNumRoutes][kClasses];
    const int per_group = n * kWindow / (kNumRoutes * kClasses);
    for (int i = 0; i < n * kWindow; ++i) {
      LargeOp op{};
      op.route = i % kNumRoutes;
      op.size_class = (i / kNumRoutes) % kClasses;
      const int stratum = i / (kNumRoutes * kClasses);
      const double raw =
          static_cast<double>(kMinBytes << op.size_class) *
          std::pow(2.0, (stratum + rng.next_double()) / per_group);
      op.bytes = std::min(capacity(op.size_class),
                          (static_cast<std::size_t>(raw) + 4095) / 4096 * 4096);
      op.slot = static_cast<int>(rng.next_below(kSlotsPerClass));
      op.key = rng.next_u64();
      ops[op.route][op.size_class].push_back(op);
    }
    for (int c = 0; c < kClasses; ++c) {
      for (int r = 0; r < kNumRoutes / 2; ++r) {
        std::vector<LargeOp>& near = ops[r][c];
        std::vector<LargeOp>& far = ops[r + kNumRoutes / 2][c];
        shuffle(near, rng);
        shuffle(far, rng);
        for (std::size_t i = 0; i < near.size(); ++i) {
          Window win{put, {near[i], far[i]}};
          // Ops of one window never share a local buffer.
          if (win.ops[0].slot == win.ops[1].slot) {
            win.ops[1].slot = (win.ops[1].slot + 1) % kSlotsPerClass;
          }
          plan.windows.push_back(std::move(win));
        }
      }
    }
  }

  template <typename T>
  static void shuffle(std::vector<T>& v, sim::Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
  }

  void program(Episode& ep, Ctx& ctx, const LargePlan& plan) {
    std::byte* remote[2] = {nullptr, nullptr};
    for (Domain d : {Domain::kHost, Domain::kGpu}) {
      timed(ep, ctx, Call::kShmalloc, kWindow * kMaxBytes, [&] {
        remote[dom_index(d)] =
            static_cast<std::byte*>(ctx.shmalloc(kWindow * kMaxBytes, d));
      });
    }
    timed(ep, ctx, Call::kBarrierAll, 0, [&] { ctx.barrier_all(); });
    if (ctx.my_pe() == 0) drive(ep, ctx, plan, remote);
    timed(ep, ctx, Call::kBarrierAll, 0, [&] { ctx.barrier_all(); });
  }

  void drive(Episode& ep, Ctx& ctx, const LargePlan& plan,
             std::byte* const remote[2]) {
    core::Runtime& rt = ctx.runtime();
    // Grow the PE's staging buffer to the largest message before the first
    // window. It otherwise grows on demand, and a regrown buffer that lands
    // on a freed, still-registered address makes the registration cache
    // (keyed by address) hit where it would miss — virtual time would then
    // depend on the host allocator.
    ctx.bounce(kMaxBytes);
    // Local pools: kSlotsPerClass buffers of each capacity, back to back in
    // one host and one device allocation.
    std::size_t class_offset[kClasses + 1] = {};
    for (int c = 0; c < kClasses; ++c) {
      class_offset[c + 1] = class_offset[c] + kSlotsPerClass * capacity(c);
    }
    const std::size_t pool_bytes = class_offset[kClasses];
    std::unique_ptr<std::byte[]> host_pool(new std::byte[pool_bytes]);
    std::byte* pool[2] = {host_pool.get(),
                          static_cast<std::byte*>(ctx.cuda_malloc(pool_bytes))};
    auto local_of = [&](const LargeOp& op) {
      return pool[dom_index(kRoutes[op.route].local)] + class_offset[op.size_class] +
             static_cast<std::size_t>(op.slot) * capacity(op.size_class);
    };
    auto remote_of = [&](const LargeOp& op, int j) {
      return remote[dom_index(kRoutes[op.route].remote)] +
             static_cast<std::size_t>(j) * kMaxBytes;
    };

    for (const Window& win : plan.windows) {
      double bytes = 0;
      for (int j = 0; j < kWindow; ++j) {
        const LargeOp& op = win.ops[static_cast<std::size_t>(j)];
        const int target = kRoutes[op.route].target;
        void* src = win.put ? static_cast<void*>(local_of(op))
                            : rt.translate(remote_of(op, j), 0, target, op.bytes, nullptr);
        pattern_.fill(src, op.bytes, op.key);
        bytes += static_cast<double>(op.bytes);
      }
      const sim::Time t0 = ctx.now();
      for (int j = 0; j < kWindow; ++j) {
        const LargeOp& op = win.ops[static_cast<std::size_t>(j)];
        const int target = kRoutes[op.route].target;
        if (win.put) {
          timed(ep, ctx, Call::kPutmemNbi, op.bytes, [&] {
            ctx.putmem_nbi(remote_of(op, j), local_of(op), op.bytes, target);
          });
        } else {
          timed(ep, ctx, Call::kGetmemNbi, op.bytes, [&] {
            ctx.getmem_nbi(local_of(op), remote_of(op, j), op.bytes, target);
          });
        }
      }
      timed(ep, ctx, Call::kQuiet, 0, [&] { ctx.quiet(); });
      const std::int64_t lat = since(ctx, t0);
      if (win.put) {
        ep.write_ns.push_back(lat);
        ep.write_bytes += bytes;
        ep.write_span_ns += static_cast<double>(lat);
      } else {
        ep.read_ns.push_back(lat);
        ep.read_bytes += bytes;
        ep.read_span_ns += static_cast<double>(lat);
      }
      ep.step_ns.push_back(lat);
      ep.payload_bytes += bytes;
      for (int j = 0; j < kWindow; ++j) {
        const LargeOp& op = win.ops[static_cast<std::size_t>(j)];
        const int target = kRoutes[op.route].target;
        const void* dst = win.put ? rt.translate(remote_of(op, j), 0, target,
                                                 op.bytes, nullptr)
                                  : static_cast<const void*>(local_of(op));
        ep.check(pattern_.check(dst, op.bytes, op.key));
      }
    }
  }

  Pattern pattern_;
  std::vector<LargePlan> plans_;
};

// ---------------------------------------------------------------------------
// halo2d: the Stencil2D communication skeleton (apps/stencil2d.cpp) on a
// Runtime the benchmark owns, with cost-only kernels and seeded halos.

class Halo2d : public Workload {
 public:
  Halo2d(std::uint64_t seed, Scale scale) : pattern_(seed ^ 0x68e31da4u) {
    if (scale == Scale::kSmoke) {
      nodes_ = 2;
      px_ = py_ = 2;
      lnx_ = lny_ = 16;
      iters_ = 4;
      heap_bytes_ = 1u << 20;
    }
    sim::Rng rng(seed);
    key_base_ = rng.next_u64();
    // Seeded load imbalance: each kernel of each PE and iteration costs
    // 1.0-1.2x the nominal per-cell time.
    cost_factor_.resize(static_cast<std::size_t>(3 * iters_ * px_ * py_));
    for (double& f : cost_factor_) f = 1.0 + 0.2 * rng.next_double();
  }

  void run(Episode& ep) override {
    core::RuntimeOptions opts = pinned_options();
    opts.host_heap_bytes = heap_bytes_;
    opts.gpu_heap_bytes = heap_bytes_;
    auto rt = ep.make_runtime(cluster_of(nodes_, px_ * py_ / nodes_, true), opts);
    ep.run_program(*rt, [&](Ctx& ctx) { program(ep, ctx); });
  }

 private:
  enum Side { kWest, kEast, kNorth, kSouth };

  /// Payload key of the halo `pe` sends from its `side` in iteration `it`.
  std::uint64_t key(int it, int pe, Side side) const {
    sim::Rng r(key_base_ ^ (static_cast<std::uint64_t>(it) << 32) ^
               (static_cast<std::uint64_t>(pe) << 2) ^ static_cast<std::uint64_t>(side));
    return r.next_u64();
  }

  void program(Episode& ep, Ctx& ctx) {
    const int me = ctx.my_pe();
    const int np = ctx.n_pes();
    const int rx = me / py_;
    const int ry = me % py_;
    const std::size_t pitch = lny_ + 2;
    const std::size_t col_bytes = lnx_ * sizeof(std::uint64_t);
    const std::size_t row_bytes = pitch * sizeof(std::uint64_t);
    auto idx = [pitch](std::size_t i, std::size_t j) { return i * pitch + j; };

    std::uint64_t* cur = nullptr;
    std::uint64_t* colhalo = nullptr;  // [0, lnx) from west, [lnx, 2 lnx) from east
    const std::size_t tile_bytes = (lnx_ + 2) * row_bytes;
    timed(ep, ctx, Call::kShmalloc, tile_bytes, [&] {
      cur = static_cast<std::uint64_t*>(ctx.shmalloc(tile_bytes, Domain::kGpu));
    });
    timed(ep, ctx, Call::kShmalloc, 2 * col_bytes, [&] {
      colhalo = static_cast<std::uint64_t*>(ctx.shmalloc(2 * col_bytes, Domain::kGpu));
    });
    auto* pack = static_cast<std::uint64_t*>(ctx.cuda_malloc(2 * col_bytes));

    const int north = rx > 0 ? me - py_ : -1;
    const int south = rx < px_ - 1 ? me + py_ : -1;
    const int west = ry > 0 ? me - 1 : -1;
    const int east = ry < py_ - 1 ? me + 1 : -1;
    auto kernel = [&](int it, int k, std::size_t cells) {
      const double f = cost_factor_[static_cast<std::size_t>((it * np + me) * 3 + k)];
      timed(ep, ctx, Call::kLaunchKernel, 0,
            [&] { ctx.launch_kernel(cells, kPerCellNs * f, [] {}); });
    };
    auto put = [&](void* dst, const void* src, std::size_t n, int pe) {
      timed(ep, ctx, Call::kPutmemNbi, n, [&] { ctx.putmem_nbi(dst, src, n, pe); });
      ep.write_bytes += static_cast<double>(n);
      ep.read_bytes += static_cast<double>(n);
      ep.payload_bytes += static_cast<double>(n);
    };
    // A halo write runs from the kernel that produces the halo to the quiet
    // that completes its puts; the barrier behind it is the wait until the
    // incoming halos may be read.
    auto close_phase = [&](sim::Time t0) {
      timed(ep, ctx, Call::kQuiet, 0, [&] { ctx.quiet(); });
      ep.write_ns.push_back(since(ctx, t0));
      const sim::Time t1 = ctx.now();
      timed(ep, ctx, Call::kBarrierAll, 0, [&] { ctx.barrier_all(); });
      ep.read_ns.push_back(since(ctx, t1));
    };

    timed(ep, ctx, Call::kBarrierAll, 0, [&] { ctx.barrier_all(); });
    const sim::Time start = ctx.now();
    for (int it = 0; it < iters_; ++it) {
      const sim::Time iter_start = ctx.now();
      // (1) pack boundary columns.
      pattern_.fill(pack, col_bytes, key(it, me, kWest));
      pattern_.fill(pack + lnx_, col_bytes, key(it, me, kEast));
      kernel(it, 0, 2 * lnx_);
      // (2) column halos: my west column lands in the west neighbor's
      // "from east" slot and vice versa.
      if (west >= 0) put(colhalo + lnx_, pack, col_bytes, west);
      if (east >= 0) put(colhalo, pack + lnx_, col_bytes, east);
      close_phase(iter_start);
      if (west >= 0) ep.check(pattern_.check(colhalo, col_bytes, key(it, west, kEast)));
      if (east >= 0) {
        ep.check(pattern_.check(colhalo + lnx_, col_bytes, key(it, east, kWest)));
      }
      // (3) unpack; my first and last interior rows are the next halos.
      const sim::Time t1 = ctx.now();
      kernel(it, 1, 2 * lnx_);
      pattern_.fill(cur + idx(1, 0), row_bytes, key(it, me, kNorth));
      pattern_.fill(cur + idx(lnx_, 0), row_bytes, key(it, me, kSouth));
      // (4) full-width row halos.
      if (north >= 0) put(cur + idx(lnx_ + 1, 0), cur + idx(1, 0), row_bytes, north);
      if (south >= 0) put(cur + idx(0, 0), cur + idx(lnx_, 0), row_bytes, south);
      close_phase(t1);
      if (north >= 0) {
        ep.check(pattern_.check(cur + idx(0, 0), row_bytes, key(it, north, kSouth)));
      }
      if (south >= 0) {
        ep.check(pattern_.check(cur + idx(lnx_ + 1, 0), row_bytes, key(it, south, kNorth)));
      }
      // (5) update.
      kernel(it, 2, lnx_ * lny_);
      if (me == 0) ep.step_ns.push_back(since(ctx, iter_start));
    }
    timed(ep, ctx, Call::kBarrierAll, 0, [&] { ctx.barrier_all(); });
    if (me == 0) {
      const auto span = static_cast<double>(since(ctx, start));
      ep.write_span_ns += span;
      ep.read_span_ns += span;
    }
  }

  /// Double-precision 9-point stencil on a K20 (bench_fig11_stencil2d).
  static constexpr double kPerCellNs = 1.0;

  Pattern pattern_;
  int nodes_ = 32;  // 2 PEs per node
  int px_ = 8;
  int py_ = 8;
  std::size_t lnx_ = 256;  // a 2048 x 2048 grid on 8 x 8 PEs
  std::size_t lny_ = 256;
  int iters_ = 100;
  std::size_t heap_bytes_ = pinned_options().host_heap_bytes;
  std::uint64_t key_base_ = 0;
  std::vector<double> cost_factor_;  // [(iteration * np + pe) * 3 + kernel]
};

// ---------------------------------------------------------------------------
// ckpt: the checkpoint/restore service under a fixed open-loop rate below
// saturation, with a proxy crash and a P2P revocation mid-run.

class Ckpt : public Workload {
 public:
  Ckpt(std::uint64_t seed, Scale scale) {
    cluster_ = cluster_of(8, 4, true);
    opts_ = pinned_options();
    opts_.host_heap_bytes = 512u << 10;
    opts_.gpu_heap_bytes = 128u << 10;
    cfg_.num_servers = 2;
    cfg_.pool_bytes = 768u << 10;
    opts_.pmem_heap_bytes = cfg_.pool_bytes + (64u << 10);
    opts_.tuning.eager_limit = 1024;
    opts_.tuning.pipeline_chunk = 64u << 10;
    opts_.faults = sim::FaultPlan::parse("seed=5,crash=1@400,revoke=2@300");
    cfg_.chunk_bytes = 4096;
    cfg_.dir_slots = 4;
    cfg_.verify_restores = true;
    cfg_.traffic.seed = sim::Rng(seed).next_u64();
    cfg_.traffic.mean_interarrival_us = kInterarrivalUs;
    cfg_.traffic.requests_per_client = scale == Scale::kFull ? 1000 : 8;
    cfg_.traffic.restore_fraction = 0.2;
    cfg_.traffic.min_bytes = 2048;
    cfg_.traffic.max_bytes = 32768;
    cfg_.traffic.size_skew = 2.0;
    const int clients = cluster_.num_nodes * cluster_.pes_per_node - cfg_.num_servers;
    for (int c = 0; c < clients; ++c) {
      requests_ += apps::ckpt::make_open_loop(cfg_.traffic, c).size();
    }
  }

  void run(Episode& ep) override {
    // The service builds its own Runtime; set-up is timed on an identical
    // one constructed and destroyed first.
    ep.make_runtime(cluster_, opts_).reset();
    apps::ckpt::CheckpointResult r;
    ep.measure_run(
        [&] { r = apps::ckpt::run_checkpoint_service(cluster_, opts_, cfg_); });

    const double served = static_cast<double>(r.checkpoints_acked + r.checkpoints_rejected +
                                              r.restores_ok + r.lost_acked);
    ep.attempted += requests_;
    ep.failed += r.checkpoints_rejected + r.lost_acked +
                 static_cast<std::uint64_t>(std::fabs(served - static_cast<double>(requests_)));
    const double makespan_ns = r.makespan_ms * 1e6;
    ep.vt["vt_write_p50_us"] = static_cast<double>(r.ckpt_p50_ns) * 1e-3;
    ep.vt["vt_write_p99_us"] = static_cast<double>(r.ckpt_p99_ns) * 1e-3;
    ep.vt["vt_read_p50_us"] = static_cast<double>(r.restore_p50_ns) * 1e-3;
    ep.vt["vt_read_p99_us"] = static_cast<double>(r.restore_p99_ns) * 1e-3;
    ep.vt["vt_step_us"] = makespan_ns * 1e-3 / static_cast<double>(requests_);
    ep.vt["bench.vt_write_samples"] = static_cast<double>(r.checkpoints_acked);
    ep.vt["bench.vt_read_samples"] = static_cast<double>(r.restores_ok);
    ep.write_bytes = static_cast<double>(r.bytes_acked);
    ep.read_bytes = static_cast<double>(r.bytes_restored);
    ep.write_span_ns = ep.read_span_ns = makespan_ns;
    ep.payload_bytes = static_cast<double>(r.bytes_acked + r.bytes_restored);
    ep.add("apps.ckpt.acked", static_cast<double>(r.checkpoints_acked));
    ep.add("apps.ckpt.rejected", static_cast<double>(r.checkpoints_rejected));
    ep.add("apps.ckpt.restores_ok", static_cast<double>(r.restores_ok));
    ep.add("apps.ckpt.lost_acked", static_cast<double>(r.lost_acked));
    ep.add("apps.ckpt.evictions", static_cast<double>(r.evictions));
    ep.add("apps.ckpt.repacks", static_cast<double>(r.repacks));
    ep.add("apps.ckpt.extents_moved", static_cast<double>(r.extents_moved));
    ep.add("apps.ckpt.restore_retries", static_cast<double>(r.restore_retries));
  }

 private:
  /// Per-client mean interarrival. 30 clients on 2 servers keep up at this
  /// rate: median latency stays near its unloaded value and does not grow
  /// with the number of requests, while 300 us already queues for
  /// hundreds of microseconds.
  static constexpr double kInterarrivalUs = 800.0;

  hw::ClusterConfig cluster_;
  core::RuntimeOptions opts_;
  apps::ckpt::CheckpointConfig cfg_;
  std::uint64_t requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale) {
  if (name == "p2p-small") return std::make_unique<P2pSmall>(seed, scale);
  if (name == "p2p-large") return std::make_unique<P2pLarge>(seed, scale);
  if (name == "halo2d") return std::make_unique<Halo2d>(seed, scale);
  if (name == "ckpt") return std::make_unique<Ckpt>(seed, scale);
  return nullptr;
}

}  // namespace perfbench
