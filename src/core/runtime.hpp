// The GDR-aware OpenSHMEM runtime: owns the simulated cluster, the CUDA and
// verbs layers, per-PE symmetric heaps (host + GPU domains), the selected
// transport, and the per-node proxy daemons. `run()` launches one simulated
// process per PE and executes the SPMD program to completion in virtual
// time.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/heap.hpp"
#include "core/metrics.hpp"
#include "core/transport.hpp"
#include "core/trace.hpp"
#include "core/tuning.hpp"
#include "core/types.hpp"
#include "cudart/cudart.hpp"
#include "hw/topology.hpp"
#include "ib/transport.hpp"
#include "ib/verbs.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/zero_pages.hpp"

namespace gdrshmem::core {

class Ctx;
class ProxyDaemon;
class ProtocolSelector;
class DeviceBackend;

struct RuntimeOptions {
  std::size_t host_heap_bytes = 16u << 20;
  std::size_t gpu_heap_bytes = 16u << 20;
  /// Persistent (pmem) symmetric heap per PE (GDRSHMEM_PMEM_HEAP; 0 — the
  /// default — means no pmem heap, so shmalloc(Domain::kPmem) throws).
  /// Host-like on the wire; backs the checkpoint service's durable store.
  std::size_t pmem_heap_bytes = 0;
  TransportKind transport = TransportKind::kEnhancedGdr;
  Tuning tuning;
  /// Execution backend for the simulation engine (fibers by default;
  /// overridable per-process via GDRSHMEM_SIM_BACKEND). Both backends are
  /// bit-identical in virtual time; threads is the slow fallback.
  sim::BackendKind sim_backend = sim::backend_from_env();
  /// Pending-event queue for the engine (timing wheel by default;
  /// overridable via GDRSHMEM_SIM_QUEUE). Both kinds pop the same strict
  /// (time, seq) order, so they are bit-identical; heap is kept for A/B
  /// benchmarking and differential testing.
  sim::QueueKind sim_queue = sim::queue_from_env();
  /// Coalesce notification fan-out into one queue event per cohort
  /// (GDRSHMEM_SIM_BATCH; on by default). Trace-order identical either way.
  bool sim_batch = sim::batch_from_env();
  /// The alternative Section III-C rejects in favor of the proxy: a service
  /// thread per PE progresses incoming transfers asynchronously — restoring
  /// overlap for the baseline, but stealing half of the CPU from the
  /// application, so Ctx::compute takes twice as long
  /// (GDRSHMEM_SERVICE_THREAD).
  bool service_thread = false;
  /// Ignored: Ctx::compute charges the paper's doubling as a constant. Kept
  /// only because the repo benchmark (perfbench) still assigns it.
  double service_thread_compute_penalty = 1.0;
  /// Seeded fault-injection schedule (empty by default — an empty plan
  /// guarantees the fault-free code paths run verbatim, event for event).
  /// Configurable via GDRSHMEM_FAULTS; see sim::FaultPlan::parse.
  sim::FaultPlan faults;
  /// Operation tracer: enabled via GDRSHMEM_TRACE, ring capacity (events)
  /// via GDRSHMEM_TRACE_CAP. Tracing is bookkeeping-only, so enabling it
  /// never changes virtual time or event order.
  bool trace = trace_from_env();
  std::size_t trace_cap = trace_cap_from_env();
  /// Engine behind device-initiated (in-kernel) operations
  /// (GDRSHMEM_DEVICE_BACKEND=gpu-ib|reverse; gpu-ib by default). Both are
  /// bit-identical in application results per seed; they differ only in
  /// modeled cost, so CI A/Bs the whole suite under each value.
  DeviceBackendKind device_backend = device_backend_from_env();
  /// Outstanding command descriptors the reverse-offload ring holds per PE
  /// before the kernel blocks on a free slot (GDRSHMEM_DEVICE_QUEUE_DEPTH).
  std::size_t device_queue_depth = 64;
  /// Queue-pair transport behind the ib::Transport endpoint API
  /// (GDRSHMEM_IB_TRANSPORT=rc|ud|dc|srd; rc by default). All four land
  /// identical application bytes per seed; they differ in modeled cost and
  /// per-QP memory, so CI A/Bs suites across values.
  ib::QpKind ib_transport = ib::qp_kind_from_env();
  /// HCA rails large messages stripe across (GDRSHMEM_IB_RAILS=1|2; 1 by
  /// default — the bit-identical legacy schedule).
  int ib_rails = ib::rails_from_env();
  /// Model an RC shared receive queue instead of per-QP recv rings
  /// (GDRSHMEM_IB_SRQ; footprint-only — never changes timing). UD, DC and
  /// SRD always use the SRQ.
  bool ib_srq = false;
  /// Seed for srd's deterministic per-segment delivery jitter
  /// (GDRSHMEM_IB_SRD_SEED; the reordering pattern is bit-identical per
  /// seed). Ignored by the ordered transports.
  std::uint64_t ib_srd_seed = 1;
  /// srd jitter window override in microseconds (GDRSHMEM_IB_SRD_JITTER_US;
  /// 0 disables jitter for A/B isolation). Negative keeps
  /// hw::SystemParams::srd_jitter_window_us.
  double ib_srd_jitter_us = -1.0;

  /// Build options from the environment: parses and validates every
  /// GDRSHMEM_* variable (backend, heap sizes, transport, tuning
  /// thresholds, fault plan) in one place. Unknown GDRSHMEM_* keys and
  /// out-of-range values throw ShmemError naming the variable.
  static RuntimeOptions from_env();
};

/// Operation totals, a read-only view of the metrics registry (see
/// Runtime::stats). `puts`/`gets`/`atomics` count API calls, the
/// collectives' own puts included; the protocol table counts protocol
/// executions, so a 32-bit atomic that races is one of `atomics` but two
/// kAtomicHw ops per attempt.
struct OpStats {
  std::array<std::uint64_t, static_cast<std::size_t>(Protocol::kCount_)>
      ops_by_protocol{};
  std::array<std::uint64_t, static_cast<std::size_t>(Protocol::kCount_)>
      bytes_by_protocol{};
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t atomics = 0;
  std::uint64_t barriers = 0;

  std::uint64_t ops(Protocol p) const {
    return ops_by_protocol[static_cast<std::size_t>(p)];
  }
};

class Runtime {
 public:
  explicit Runtime(const hw::ClusterConfig& cluster_cfg,
                   const RuntimeOptions& opts = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Launch the SPMD `program` on every PE and run the simulation to
  /// completion. Single-shot: a Runtime instance runs one job.
  void run(std::function<void(Ctx&)> program);

  // ---- accessors ----------------------------------------------------------
  sim::Engine& engine() { return engine_; }
  hw::Cluster& cluster() { return cluster_; }
  cudart::CudaRuntime& cuda() { return cuda_; }
  /// The low-level verbs engine (registration cache, op diagnostics).
  /// Protocol code posts operations through ib(), not here.
  ib::Verbs& verbs() { return verbs_; }
  /// The selected queue-pair transport (rc | ud | dc | srd); every
  /// RDMA/send/atomic the runtime issues routes through it.
  ib::Transport& ib() { return *ib_; }
  const RuntimeOptions& options() const { return opts_; }
  const Tuning& tuning() const { return opts_.tuning; }
  Transport& transport() { return *transport_; }
  /// Operation totals computed from the registry: the protocol table from
  /// the op_bytes/<kind>/<protocol> histograms, the op counts from the
  /// ops/<kind> counters.
  OpStats stats() const;
  Tracer& tracer() { return tracer_; }
  Metrics& metrics() { return metrics_; }
  /// Mirror the counters components keep themselves (registration cache,
  /// verbs, transport, proxies, heaps, tracer, fault injector) into the
  /// metrics registry — the only code that copies a count in. Called by the
  /// report formatters; cheap and idempotent.
  void snapshot_metrics();
  int num_pes() const { return cluster_.num_pes(); }
  Ctx& ctx(int pe) { return *ctxs_.at(static_cast<std::size_t>(pe)); }
  sim::FaultInjector& faults() { return injector_; }
  bool faults_enabled() const { return injector_.enabled(); }
  /// The single ordering predicate: true when a data op's completion must be
  /// awaited before the notification that announces it, because a fault
  /// plan may replay the op late or the wire (srd) does not deliver in
  /// issue order. Otherwise the wire's FIFO orders the notification.
  bool needs_completion_ordering() {
    return faults_enabled() || !ib().in_order_delivery();
  }
  /// Deadline for a recovery stage that started now: `timeout` from now
  /// under a fault plan, Time::never() (no wake event, cannot expire)
  /// without one.
  sim::Time deadline_after(sim::Duration timeout) {
    return faults_enabled() ? engine_.now() + timeout : sim::Time::never();
  }
  /// GPUDirect P2P usable for `pe`'s GPU (false after a planned revocation).
  bool gdr_available(int pe) {
    return cluster_.p2p_available(cluster_.placement(pe).node);
  }
  ProxyDaemon& proxy(int node) { return *proxies_.at(static_cast<std::size_t>(node)); }
  bool proxies_enabled() const { return !proxies_.empty(); }
  /// The single source of protocol decisions (GDR vs IPC vs staged vs
  /// proxy), shared by the host transport, the device backends, and the
  /// proxy's device-command service.
  ProtocolSelector& selector() { return *selector_; }
  /// Engine behind in-kernel operations (per options().device_backend).
  DeviceBackend& device_backend() { return *device_backend_; }

  SymmetricHeap& heap(int pe, Domain d) {
    auto& hs = heaps_.at(static_cast<std::size_t>(pe));
    switch (d) {
      case Domain::kGpu: return hs.gpu;
      case Domain::kPmem: return hs.pmem;
      case Domain::kHost: break;
    }
    return hs.host;
  }

  /// Translate a symmetric address owned by `owner_pe` into `target_pe`'s
  /// copy; `n` bytes must fit inside one heap. Returns the domain through
  /// `domain_out`.
  void* translate(const void* sym, int owner_pe, int target_pe, std::size_t n,
                  Domain* domain_out);

  /// True when `pe`'s HCA and GPU sit on different sockets — the severe
  /// Table III P2P regime.
  bool gdr_inter_socket(int pe) const;

  /// Remote eager slot reserved for (src -> dst) baseline traffic.
  void* eager_slot(int dst_pe, int src_pe);
  std::size_t eager_slot_bytes() const;

  /// IPC-map `owner_pe`'s GPU heap from `opener`'s context (one-time cost).
  std::byte* map_peer_gpu_heap(sim::Process& proc, int opener_pe, int owner_pe);

  /// Wake `pe`'s progress engine (data/ctrl/ack landed for it).
  void notify_pe(int pe);

  /// Collective-allocation consistency check (shmalloc is collective): every
  /// PE must request the same (size, domain) for allocation number `seq`.
  void check_symmetric_alloc(std::uint64_t seq, std::size_t bytes, Domain d);

 private:
  struct PeHeaps {
    SymmetricHeap host;
    SymmetricHeap gpu;
    SymmetricHeap pmem;
  };
  struct AllocRecord {
    std::size_t bytes;
    Domain domain;
  };

  RuntimeOptions opts_;
  sim::Engine engine_;
  hw::Cluster cluster_;
  cudart::CudaRuntime cuda_;
  ib::Verbs verbs_;
  std::unique_ptr<ib::Transport> ib_;
  sim::FaultInjector injector_;
  Tracer tracer_;
  Metrics metrics_;

  std::vector<sim::ZeroPages> host_heap_storage_;
  std::vector<sim::ZeroPages> pmem_heap_storage_;
  std::vector<PeHeaps> heaps_;
  std::vector<sim::ZeroPages> eager_storage_;
  std::vector<std::unique_ptr<Ctx>> ctxs_;
  std::vector<std::unique_ptr<ProxyDaemon>> proxies_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<ProtocolSelector> selector_;
  std::unique_ptr<DeviceBackend> device_backend_;
  std::vector<AllocRecord> alloc_log_;
  bool ran_ = false;
};

}  // namespace gdrshmem::core
