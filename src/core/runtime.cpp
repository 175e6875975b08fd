#include "core/runtime.hpp"

#include <sstream>
#include <string_view>

#include "core/ctx.hpp"
#include "core/device_api.hpp"
#include "core/protocol_selector.hpp"
#include "core/proxy.hpp"
#include "core/transports.hpp"

namespace gdrshmem::core {

Runtime::Runtime(const hw::ClusterConfig& cluster_cfg, const RuntimeOptions& opts)
    : opts_(opts),
      engine_(opts.sim_backend, opts.sim_queue),
      cluster_(cluster_cfg),
      cuda_(engine_, cluster_),
      verbs_(engine_, cluster_, cuda_),
      injector_(opts.faults) {
  const int np = cluster_.num_pes();

  // A fault-plan entry for a node the cluster does not have would never
  // fire: reject the plan, naming the entry.
  auto reject = [this](const auto&... entry) {
    std::ostringstream os;
    (os << "fault plan entry " << ... << entry)
        << " names a node the " << cluster_.num_nodes()
        << "-node cluster does not have";
    throw ShmemError(os.str());
  };
  for (const auto& f : opts_.faults.flaps) {
    if (f.node >= cluster_.num_nodes()) {
      reject("flap=", f.node, '@', f.at_us, '+', f.duration_us);
    }
  }
  for (const auto& c : opts_.faults.crashes) {
    if (c.node >= cluster_.num_nodes()) reject("crash=", c.node, '@', c.at_us);
  }
  for (const auto& r : opts_.faults.revokes) {
    if (r.node >= cluster_.num_nodes()) reject("revoke=", r.node, '@', r.at_us);
  }

  engine_.set_batch_wakeups(opts_.sim_batch);
  if (opts_.trace) tracer_.enable();
  tracer_.set_capacity(opts_.trace_cap);

  ib::TransportConfig ib_cfg;
  ib_cfg.kind = opts_.ib_transport;
  ib_cfg.rails = opts_.ib_rails;
  ib_cfg.srq = opts_.ib_srq;
  ib_cfg.srd_seed = opts_.ib_srd_seed;
  ib_cfg.srd_jitter_us = opts_.ib_srd_jitter_us;
  ib_ = ib::make_transport(verbs_, ib_cfg);

  verbs_.set_fault_injector(&injector_);
  // Mirror fault/recovery events into the operation tracer when it is
  // enabled. The injector keeps the counts; snapshot_metrics copies them.
  injector_.set_hook([this](sim::FaultEvent ev, int endpoint) {
    if (!tracer_.enabled()) return;
    TraceEvent::Kind kind;
    switch (ev) {
      case sim::FaultEvent::kRetransmit: kind = TraceEvent::Kind::kRetransmit; break;
      case sim::FaultEvent::kCompletionError: kind = TraceEvent::Kind::kError; break;
      case sim::FaultEvent::kSwReplay: kind = TraceEvent::Kind::kReplay; break;
      case sim::FaultEvent::kGdrFallback: kind = TraceEvent::Kind::kFallback; break;
      case sim::FaultEvent::kProxyCrash: kind = TraceEvent::Kind::kProxyCrash; break;
      case sim::FaultEvent::kProxyRestart: kind = TraceEvent::Kind::kProxyRestart; break;
      case sim::FaultEvent::kProxyReissue: kind = TraceEvent::Kind::kProxyReissue; break;
      case sim::FaultEvent::kStaleCtrlDrop: kind = TraceEvent::Kind::kStaleDrop; break;
      case sim::FaultEvent::kP2pRevoke: kind = TraceEvent::Kind::kRevoke; break;
      default: return;
    }
    TraceEvent ev_out;
    ev_out.pe = endpoint;
    ev_out.kind = kind;
    ev_out.start = ev_out.end = engine_.now();
    tracer_.record(ev_out);
  });

  // Symmetric heaps: one host + one GPU heap per PE, registered with the HCA
  // at init (III-A). Both are sim::ZeroPages (malloc_device's backing store
  // included): they read zero and commit a page at its first touch.
  heaps_.reserve(static_cast<std::size_t>(np));
  for (int pe = 0; pe < np; ++pe) {
    hw::PePlacement pl = cluster_.placement(pe);
    std::byte* host_base =
        host_heap_storage_.emplace_back(opts_.host_heap_bytes).data();
    auto* gpu_base = static_cast<std::byte*>(
        cuda_.malloc_device(pl.node, pl.gpu, opts_.gpu_heap_bytes));
    // Optional pmem heap (off by default): plain host memory in the model —
    // host-like on the wire — with durable semantics asserted by the
    // checkpoint service. Zero size leaves a null heap so contains() is
    // always false and shmalloc(kPmem) reports exhaustion.
    std::byte* pmem_base = nullptr;
    if (opts_.pmem_heap_bytes > 0) {
      pmem_base = pmem_heap_storage_.emplace_back(opts_.pmem_heap_bytes).data();
    }
    heaps_.push_back(PeHeaps{
        SymmetricHeap(Domain::kHost, host_base, opts_.host_heap_bytes),
        SymmetricHeap(Domain::kGpu, gpu_base, opts_.gpu_heap_bytes),
        SymmetricHeap(Domain::kPmem, pmem_base, opts_.pmem_heap_bytes)});
    verbs_.reg_cache().register_at_init(pe, host_base, opts_.host_heap_bytes);
    verbs_.reg_cache().register_at_init(pe, gpu_base, opts_.gpu_heap_bytes);
    if (pmem_base != nullptr) {
      verbs_.reg_cache().register_at_init(pe, pmem_base, opts_.pmem_heap_bytes);
    }
  }

  // Eager slot regions (baseline transport): one slot per source PE. An
  // eager limit of 0 gives empty regions: puts and gets then take rendezvous.
  const std::size_t region = opts_.tuning.eager_limit * static_cast<std::size_t>(np);
  for (int pe = 0; pe < np; ++pe) {
    const sim::ZeroPages& slots = eager_storage_.emplace_back(region);
    verbs_.reg_cache().register_at_init(pe, slots.data(), slots.size());
  }

  // Per-PE contexts. Each reserves the runtime-internal sync region as the
  // first (symmetric) allocation of its host heap.
  ctxs_.reserve(static_cast<std::size_t>(np));
  for (int pe = 0; pe < np; ++pe) {
    ctxs_.push_back(std::make_unique<Ctx>(*this, pe));
  }

  selector_ = std::make_unique<ProtocolSelector>(*this);

  switch (opts_.transport) {
    case TransportKind::kNaive:
      transport_ = std::make_unique<NaiveTransport>();
      break;
    case TransportKind::kHostPipeline:
      transport_ = std::make_unique<HostPipelineTransport>(*this);
      break;
    case TransportKind::kEnhancedGdr:
      transport_ = std::make_unique<EnhancedGdrTransport>(*this);
      if (opts_.tuning.use_proxy) {
        for (int node = 0; node < cluster_.num_nodes(); ++node) {
          proxies_.push_back(std::make_unique<ProxyDaemon>(*this, node));
        }
      }
      break;
  }

  device_backend_ = make_device_backend(*this, opts_.device_backend);

  // Deliveries (RDMA data, atomics, ACKs) wake the owning PE's progress
  // engine; service-endpoint deliveries are bookkeeping only.
  verbs_.set_delivery_hook([this, np](int endpoint) {
    if (endpoint < np) ctx(endpoint).notify_progress();
  });
}

Runtime::~Runtime() { engine_.shutdown_daemons(); }

void Runtime::run(std::function<void(Ctx&)> program) {
  if (ran_) throw ShmemError("Runtime::run is single-shot; create a new Runtime");
  ran_ = true;
  for (auto& proxy : proxies_) proxy->start();
  if (faults_enabled()) {
    // Schedule the planned point faults. Flap windows and error rates need
    // no events — the injector answers them analytically per attempt.
    for (const auto& r : opts_.faults.revokes) {
      engine_.schedule_at(sim::Time::zero() + sim::Duration::us(r.at_us),
                          [this, node = r.node] {
                            cluster_.set_p2p_available(node, false);
                            injector_.on_event(sim::FaultEvent::kP2pRevoke, node);
                          });
    }
    for (const auto& c : opts_.faults.crashes) {
      engine_.schedule_at(sim::Time::zero() + sim::Duration::us(c.at_us),
                          [this, node = c.node] {
                            if (!proxies_enabled()) return;  // nothing to crash
                            proxies_[static_cast<std::size_t>(node)]->crash();
                          });
    }
  }
  if (opts_.service_thread) {
    // One service thread per PE, draining its control mailbox concurrently
    // with (and racing) the PE's own progress engine.
    for (int pe = 0; pe < num_pes(); ++pe) {
      engine_.spawn(
          "svc-pe" + std::to_string(pe),
          [this, pe](sim::Process& self) {
            Ctx& c = ctx(pe);
            while (true) {
              CtrlMsg m = c.rx().receive(self);
              self.delay(sim::Duration::us(
                  cluster_.params().progress_wakeup_us));
              transport_->handle_ctrl(c, m, self);
              c.notify_progress();
            }
          },
          /*daemon=*/true);
    }
  }
  for (int pe = 0; pe < num_pes(); ++pe) {
    engine_.spawn("pe" + std::to_string(pe),
                  [this, pe, program](sim::Process& p) {
                    Ctx& c = ctx(pe);
                    c.proc_ = &p;
                    program(c);
                  });
  }
  engine_.run();
}

void* Runtime::translate(const void* sym, int owner_pe, int target_pe,
                         std::size_t n, Domain* domain_out) {
  auto& own = heaps_.at(static_cast<std::size_t>(owner_pe));
  auto& tgt = heaps_.at(static_cast<std::size_t>(target_pe));
  for (auto [mine, theirs] : {std::pair{&own.host, &tgt.host},
                              std::pair{&own.gpu, &tgt.gpu},
                              std::pair{&own.pmem, &tgt.pmem}}) {
    if (mine->contains(sym)) {
      std::size_t off = mine->offset_of(sym);
      if (off + n > mine->size()) {
        throw ShmemError("symmetric access overruns the heap");
      }
      if (domain_out) *domain_out = mine->domain();
      return theirs->base() + off;
    }
  }
  throw ShmemError("address is not symmetric (not in any heap of PE " +
                   std::to_string(owner_pe) + ")");
}

bool Runtime::gdr_inter_socket(int pe) const {
  hw::PePlacement pl = cluster_.placement(pe);
  return cluster_.node(pl.node).hcas.at(static_cast<std::size_t>(pl.hca)).socket !=
         pl.socket;
}

void* Runtime::eager_slot(int dst_pe, int src_pe) {
  return eager_storage_.at(static_cast<std::size_t>(dst_pe)).data() +
         static_cast<std::size_t>(src_pe) * opts_.tuning.eager_limit;
}

std::size_t Runtime::eager_slot_bytes() const { return opts_.tuning.eager_limit; }

std::byte* Runtime::map_peer_gpu_heap(sim::Process& proc, int opener_pe,
                                      int owner_pe) {
  auto& h = heaps_.at(static_cast<std::size_t>(owner_pe)).gpu;
  cudart::IpcHandle handle = cuda_.ipc_get_handle(h.base());
  hw::PePlacement pl = cluster_.placement(opener_pe);
  return static_cast<std::byte*>(
      cuda_.ipc_open_handle(proc, handle, pl.node, opener_pe));
}

void Runtime::notify_pe(int pe) { ctx(pe).notify_progress(); }

void Runtime::snapshot_metrics() {
  metrics_.counter("reg_cache/hits").set(verbs_.reg_cache().hits());
  metrics_.counter("reg_cache/misses").set(verbs_.reg_cache().misses());
  metrics_.counter("reg_cache/evictions").set(verbs_.reg_cache().evictions());
  metrics_.counter("reg_cache/grows").set(verbs_.reg_cache().grows());
  metrics_.counter("ib/ops_posted").set(verbs_.ops_posted());
  // Transport-layer diagnostics: the modeled per-endpoint QP footprint (for
  // the mesh the job would form) plus the per-kind activity counters.
  const int endpoints = num_pes() + cluster_.num_nodes();
  ib::QpFootprint fp = ib_->footprint(endpoints);
  metrics_.gauge("ib/qps_per_endpoint").set(fp.qps);
  metrics_.gauge("ib/qp_mem_bytes_per_endpoint").set(fp.total_bytes());
  metrics_.counter("ib/dc_reconnects").set(ib_->dc_reconnects());
  metrics_.counter("ib/ud_packets").set(ib_->ud_packets());
  metrics_.counter("ib/striped_ops").set(ib_->striped_ops());
  metrics_.counter("ib/srd/segments").set(ib_->srd_segments());
  metrics_.counter("ib/srd/ooo_deliveries").set(ib_->srd_ooo_deliveries());
  metrics_.gauge("ib/srd/reorder_bytes_hwm").set(ib_->srd_reorder_bytes_hwm());
  metrics_.gauge("ib/srd/reorder_entries_hwm")
      .set(ib_->srd_reorder_entries_hwm());
  if (proxies_enabled()) {
    std::uint64_t gets = 0, puts = 0, device_cmds = 0, restarts = 0;
    for (const auto& p : proxies_) {
      gets += p->gets_served();
      puts += p->puts_served();
      device_cmds += p->device_cmds_served();
      restarts += static_cast<std::uint64_t>(p->restarts());
    }
    metrics_.counter("proxy/gets_served").set(gets);
    metrics_.counter("proxy/puts_served").set(puts);
    metrics_.counter("proxy/device_cmds_served").set(device_cmds);
    metrics_.counter("proxy/restarts").set(restarts);
  }
  std::size_t host_used = 0, gpu_used = 0, pmem_used = 0;
  for (const PeHeaps& hs : heaps_) {
    host_used += hs.host.used();
    gpu_used += hs.gpu.used();
    pmem_used += hs.pmem.used();
  }
  metrics_.gauge("heap/host_used_bytes").set(host_used);
  metrics_.gauge("heap/gpu_used_bytes").set(gpu_used);
  metrics_.gauge("heap/pmem_used_bytes").set(pmem_used);
  // Engine scale diagnostics: queue/slot-pool high-water marks reveal the
  // peak burst size (O(PE count) on a barrier release); retained_bytes
  // should return to near zero after release-on-quiescence.
  metrics_.gauge("engine/queue_hwm").set(engine_.queue_size_hwm());
  metrics_.gauge("engine/slot_pool_hwm").set(engine_.slot_pool_hwm());
  metrics_.gauge("engine/retained_bytes").set(engine_.retained_bytes());
  metrics_.counter("trace/recorded").set(tracer_.size());
  metrics_.counter("trace/dropped").set(tracer_.dropped());
  if (faults_enabled()) {
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(sim::FaultEvent::kCount_); ++i) {
      auto ev = static_cast<sim::FaultEvent>(i);
      metrics_.counter(std::string("faults/") + sim::to_string(ev))
          .set(injector_.count(ev));
    }
  }
}

OpStats Runtime::stats() const {
  OpStats st;
  const std::string prefix = "op_bytes/";
  const auto& hists = metrics_.histograms();
  for (auto it = hists.lower_bound(prefix);
       it != hists.end() && it->first.starts_with(prefix); ++it) {
    std::string_view proto =
        std::string_view(it->first).substr(it->first.rfind('/') + 1);
    for (std::size_t p = 0; p < st.ops_by_protocol.size(); ++p) {
      if (proto != to_string(static_cast<Protocol>(p))) continue;
      st.ops_by_protocol[p] += it->second.count();
      st.bytes_by_protocol[p] += it->second.sum();
    }
  }
  auto counter = [this](const char* name) -> std::uint64_t {
    auto it = metrics_.counters().find(name);
    return it == metrics_.counters().end() ? 0 : it->second.value();
  };
  st.puts = counter("ops/put");
  st.gets = counter("ops/get");
  st.atomics = counter("ops/atomic");
  st.barriers = counter("ops/barrier");
  return st;
}

void Runtime::check_symmetric_alloc(std::uint64_t seq, std::size_t bytes, Domain d) {
  if (seq < alloc_log_.size()) {
    const AllocRecord& rec = alloc_log_[seq];
    if (rec.bytes != bytes || rec.domain != d) {
      throw ShmemError(
          "shmalloc divergence: PEs disagree on collective allocation #" +
          std::to_string(seq));
    }
  } else if (seq == alloc_log_.size()) {
    alloc_log_.push_back(AllocRecord{bytes, d});
  } else {
    throw ShmemError("shmalloc sequence number out of order");
  }
}

}  // namespace gdrshmem::core
