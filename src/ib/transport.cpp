#include "ib/transport.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "sim/rng.hpp"

namespace gdrshmem::ib {

using sim::CompletionPtr;
using sim::Duration;

QpKind qp_kind_from_env() {
  const char* v = std::getenv("GDRSHMEM_IB_TRANSPORT");
  if (v == nullptr || *v == '\0') return QpKind::kRc;
  std::string s(v);
  if (s == "rc") return QpKind::kRc;
  if (s == "ud") return QpKind::kUd;
  if (s == "dc") return QpKind::kDc;
  if (s == "srd") return QpKind::kSrd;
  throw std::invalid_argument(
      "GDRSHMEM_IB_TRANSPORT: expected 'rc', 'ud', 'dc' or 'srd', got \"" + s +
      "\"");
}

int rails_from_env() {
  const char* v = std::getenv("GDRSHMEM_IB_RAILS");
  if (v == nullptr || *v == '\0') return 1;
  std::string s(v);
  if (s == "1") return 1;
  if (s == "2") return 2;
  throw std::invalid_argument("GDRSHMEM_IB_RAILS: expected '1' or '2', got \"" +
                              s + "\"");
}

// ---------------------------------------------------------------------------
// Transport base: the op path every QP kind shares, and 2-rail striping.

Transport::Transport(Verbs& verbs, const TransportConfig& cfg)
    : verbs_(verbs), cfg_(cfg) {}

bool Transport::two_rails() const {
  return cfg_.rails >= 2 && verbs_.cluster().config().hcas_per_node >= 2;
}

Rail Transport::rail(int src_pe, int dst_pe, int index) const {
  const hw::Cluster& cl = verbs_.cluster();
  int shca = cl.placement(src_pe).hca;
  int dhca = cl.placement(dst_pe).hca;
  if (index == 0) return Rail{shca, dhca};
  const int hcas = cl.config().hcas_per_node;
  return Rail{(shca + 1) % hcas, (dhca + 1) % hcas};
}

CompletionPtr Transport::Rdma::post(Verbs& verbs, sim::Process& proc,
                                    std::size_t off, std::size_t len, Rail rail,
                                    SegmentOpts seg) const {
  if (read) {
    return verbs.rdma_read(proc, src_pe, to + off, dst_pe, from + off, len,
                           rail, std::move(seg));
  }
  return verbs.rdma_write(proc, src_pe, from + off, dst_pe, to + off, len,
                          rail, std::move(seg));
}

CompletionPtr Transport::rdma_write(sim::Process& proc, int src_pe,
                                    const void* lbuf, int dst_pe, void* rbuf,
                                    std::size_t n) {
  return rdma(proc, Rdma{false, src_pe, dst_pe,
                         static_cast<const std::byte*>(lbuf),
                         static_cast<std::byte*>(rbuf), n});
}

CompletionPtr Transport::rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                                   int dst_pe, const void* rbuf, std::size_t n) {
  return rdma(proc, Rdma{true, src_pe, dst_pe,
                         static_cast<const std::byte*>(rbuf),
                         static_cast<std::byte*>(lbuf), n});
}

CompletionPtr Transport::post_send(sim::Process& proc, int src_pe, int dst_pe,
                                   std::size_t n,
                                   std::function<void()> deliver) {
  charge(proc, src_pe, dst_pe, /*striped=*/false);
  return verbs_.post_send(proc, src_pe, dst_pe, n, std::move(deliver));
}

CompletionPtr Transport::atomic(sim::Process& proc, int src_pe, int dst_pe,
                                std::uint64_t* raddr, Amo amo,
                                std::uint64_t* result) {
  charge(proc, src_pe, dst_pe, /*striped=*/false);
  return verbs_.atomic(proc, src_pe, dst_pe, raddr, amo, result);
}

CompletionPtr Transport::rdma(sim::Process& proc, const Rdma& op) {
  const bool striped = two_rails() && op.n >= params().rail_stripe_min_bytes;
  charge(proc, op.src_pe, op.dst_pe, striped);
  if (!striped) return op.post(verbs_, proc, 0, op.n);
  // Split the transfer across both HCAs; one completion for both halves.
  // One registration for the whole local range, so the two stripes don't
  // each pay (and cache) a half-range registration.
  ++striped_ops_;
  verbs_.register_local(proc, op.src_pe, op.local(), op.n);
  const std::size_t half = op.n / 2;
  std::vector<CompletionPtr> parts;
  for (int r = 0; r < 2; ++r) {
    parts.push_back(op.post(verbs_, proc, r == 0 ? 0 : half,
                            r == 0 ? half : op.n - half,
                            rail(op.src_pe, op.dst_pe, r)));
  }
  return sim::aggregate(std::move(parts));
}

namespace {

// ---------------------------------------------------------------------------
// RC: the paper's implicit transport, now with its cost made explicit. Every
// endpoint holds one QP per peer, so the HCA's working set of QP contexts is
// endpoints_per_hca * (N - 1); once that overflows the on-die context cache,
// every op risks a context fetch from host memory. The penalty scales with
// the overflow ratio — deterministic, and exactly zero at the scales the
// original test/bench suite runs, keeping the default event stream
// bit-identical.

class RcTransport final : public Transport {
 public:
  RcTransport(Verbs& verbs, const TransportConfig& cfg) : Transport(verbs, cfg) {
    const hw::ClusterConfig& cc = verbs_.cluster().config();
    const hw::SystemParams& p = params();
    int per_hca = std::max(
        1, (cc.pes_per_node + cc.hcas_per_node - 1) / cc.hcas_per_node);
    double active = static_cast<double>(per_hca) *
                    static_cast<double>(verbs_.cluster().num_pes() - 1);
    double cache = static_cast<double>(p.hca_qp_cache_entries);
    if (active > cache && cache > 0) {
      qp_cache_penalty_us_ = p.hca_qp_cache_miss_us * (1.0 - cache / active);
    }
  }

  const char* name() const override { return "rc"; }

  QpFootprint footprint(int num_endpoints) const override {
    const hw::SystemParams& p = params();
    QpFootprint f;
    f.qps = static_cast<std::uint64_t>(std::max(0, num_endpoints - 1));
    f.context_bytes = f.qps * (p.ib_qp_context_bytes + p.ib_qp_ring_bytes);
    f.recv_bytes = cfg_.srq ? p.ib_srq_bytes : f.qps * p.ib_recv_ring_bytes;
    return f;
  }

 private:
  /// Zero in every sub-cache-capacity configuration: no delay call, no
  /// event, no change to the legacy schedule. A striped op pays it once,
  /// not once per rail.
  void charge(sim::Process& proc, int src_pe, int dst_pe, bool) override {
    if (qp_cache_penalty_us_ <= 0.0) return;
    // Same-node loopback never touches the wire-facing QP working set (the
    // verbs layer likewise special-cases loopback in attempt_fails and
    // ack_latency), so it cannot suffer a context fetch.
    if (verbs_.cluster().same_node(src_pe, dst_pe)) return;
    proc.delay(Duration::us(qp_cache_penalty_us_));
  }

  double qp_cache_penalty_us_ = 0.0;
};

// ---------------------------------------------------------------------------
// UD: one datagram QP per endpoint, receives drawn from the SRQ. No RDMA and
// no HCA atomics — sends are MTU-limited, and RMA is segmented in software
// into MTU-sized datagrams, each paying the per-packet header/posting cost
// (the control/small-message profile: constant memory, poor large-message
// throughput). Atomics stay on a retained RC service QP, the standard
// fallback for transports without native atomics.

class UdTransport final : public Transport {
 public:
  using Transport::Transport;

  const char* name() const override { return "ud"; }

  QpFootprint footprint(int) const override {
    const hw::SystemParams& p = params();
    QpFootprint f;
    f.qps = 1;
    f.context_bytes = p.ib_qp_context_bytes + p.ib_qp_ring_bytes;
    f.recv_bytes = p.ib_srq_bytes;
    return f;
  }

  CompletionPtr post_send(sim::Process& proc, int src_pe, int dst_pe,
                          std::size_t n, std::function<void()> deliver) override {
    if (n > params().ud_mtu_bytes) {
      throw IbError("UD send of " + std::to_string(n) +
                    " bytes exceeds the datagram MTU (" +
                    std::to_string(params().ud_mtu_bytes) +
                    "); segment the payload or use rc/dc");
    }
    charge_packets(proc, 1);
    return Transport::post_send(proc, src_pe, dst_pe, n, std::move(deliver));
  }

  // Atomics: delegated unchanged — modeled as the retained RC service QP.

 private:
  CompletionPtr rdma(sim::Process& proc, const Rdma& op) override {
    // Software segmentation: register the whole local range once, then
    // emulate the op as a train of MTU-sized datagrams. Bytes land
    // identically (per-segment copies at per-segment arrival); only timing
    // differs.
    const std::size_t mtu = params().ud_mtu_bytes;
    const std::size_t nseg = std::max<std::size_t>(1, (op.n + mtu - 1) / mtu);
    if (nseg > 1) verbs_.register_local(proc, op.src_pe, op.local(), op.n);
    std::vector<CompletionPtr> parts;
    for (std::size_t idx = 0; idx < nseg; ++idx) {
      const std::size_t off = idx * mtu;
      charge_packets(proc, 1);
      parts.push_back(op.post(verbs_, proc, off, std::min(mtu, op.n - off)));
    }
    return nseg == 1 ? parts.front() : sim::aggregate(std::move(parts));
  }

  void charge_packets(sim::Process& proc, std::uint64_t count) {
    ud_packets_ += count;
    proc.delay(Duration::us(params().ud_packet_overhead_us *
                            static_cast<double>(count)));
  }
};

// ---------------------------------------------------------------------------
// DC: full RDMA/atomic semantics from a constant-size pool of DC initiators
// per endpoint, each connected on demand to the target's DCT. State is O(pool)
// instead of O(N), so the HCA cache never thrashes — the price is a reconnect
// handshake whenever an op targets a peer none of the DCIs currently holds.

class DcTransport final : public Transport {
 public:
  using Transport::Transport;

  const char* name() const override { return "dc"; }

  QpFootprint footprint(int) const override {
    const hw::SystemParams& p = params();
    QpFootprint f;
    auto pool = static_cast<std::uint64_t>(p.dc_initiator_pool);
    f.qps = pool + 1;  // DCIs + this endpoint's DCT
    f.context_bytes = f.qps * p.ib_qp_context_bytes + pool * p.ib_qp_ring_bytes;
    f.recv_bytes = p.ib_srq_bytes;
    return f;
  }

 private:
  /// An op needs a DCI holding a connection to `dst_pe`'s DCT on each HCA
  /// (rail) it drives, since every adapter keeps its own DCI pool: a
  /// striped op pays rail 1's connection state too, not only rail 0's.
  /// Loopback ops never leave the adapter and need no DCI. LRU over the
  /// pool: the least-recently-used initiator is the one retargeted.
  void charge(sim::Process& proc, int src_pe, int dst_pe,
              bool striped) override {
    if (verbs_.cluster().same_node(src_pe, dst_pe)) return;
    for (int rail = 0; rail < (striped ? 2 : 1); ++rail) {
      std::list<int>& lru = targets_[{src_pe, rail}];
      auto it = std::find(lru.begin(), lru.end(), dst_pe);
      if (it != lru.end()) {
        lru.splice(lru.end(), lru, it);  // still connected: reuse, bump
        continue;
      }
      auto pool = static_cast<std::size_t>(params().dc_initiator_pool);
      if (lru.size() >= pool) lru.pop_front();
      lru.push_back(dst_pe);
      ++dc_reconnects_;
      proc.delay(Duration::us(params().dc_reconnect_us));
    }
  }

  // (src endpoint, rail) -> targets that HCA's DCIs currently hold, LRU order.
  std::map<std::pair<int, int>, std::list<int>> targets_;
};

// ---------------------------------------------------------------------------
// SRD: EFA-style scalable reliable datagram — reliable delivery, relaxed
// ordering. One datagram QP per endpoint; every RMA op is segmented into
// MTU-sized packets that are individually sprayed across the available
// rails, each with a deterministic seeded delivery jitter, so segments of
// one op (and back-to-back ops on one flow) arrive out of issue order. A
// per-op reorder/tracking structure at the receiving side lands each
// segment's payload on arrival but raises the op completion only once every
// segment has landed — the target-side reorder buffer of real SRD NICs.
// The jitter for (seed, op, segment) is a pure splitmix64 function, so the
// whole reordering pattern is bit-identical per GDRSHMEM_IB_SRD_SEED.
//
// Control messages (post_send) and atomics stay on an ordered service
// channel (delegated unchanged), matching how SRD providers funnel
// small/ordered traffic; bulk RMA is what gets sprayed.

class SrdTransport final : public Transport {
 public:
  SrdTransport(Verbs& verbs, const TransportConfig& cfg)
      : Transport(verbs, cfg),
        jitter_window_us_(cfg.srd_jitter_us >= 0.0
                              ? cfg.srd_jitter_us
                              : verbs.cluster().params().srd_jitter_window_us) {}

  const char* name() const override { return "srd"; }
  bool in_order_delivery() const override { return false; }

  QpFootprint footprint(int) const override {
    const hw::SystemParams& p = params();
    QpFootprint f;
    f.qps = 1;
    f.context_bytes =
        p.ib_qp_context_bytes + p.ib_qp_ring_bytes +
        static_cast<std::uint64_t>(p.srd_reorder_entries) *
            p.srd_reorder_entry_bytes;  // the reorder/tracking buffer
    f.recv_bytes = p.ib_srq_bytes;
    return f;
  }

  std::uint64_t srd_reorder_bytes_hwm() const override {
    return reorder_bytes_hwm_;
  }
  std::uint64_t srd_reorder_entries_hwm() const override {
    return reorder_entries_hwm_;
  }

  // post_send and atomics: delegated unchanged — the ordered service channel.

 private:
  /// Every op is a train of MTU-sized segments, each with its own rail and
  /// jitter — a single segment too, so back-to-back small ops on one flow
  /// can land out of order. For a read the response segments are the
  /// sprayed leg, so the reorder/tracking buffer lives at the *initiator*.
  CompletionPtr rdma(sim::Process& proc, const Rdma& op) override {
    const std::size_t mtu = params().srd_mtu_bytes;
    const std::uint64_t id = next_op_id_++;
    const std::size_t nseg = std::max<std::size_t>(1, (op.n + mtu - 1) / mtu);
    if (nseg > 1) {
      verbs_.register_local(proc, op.src_pe, op.local(), op.n);
      if (two_rails()) ++striped_ops_;  // segments alternate HCAs
    }
    auto track = start_op(nseg);
    std::vector<CompletionPtr> parts;
    for (std::size_t idx = 0; idx < nseg; ++idx) {
      const std::size_t off = idx * mtu;
      const std::size_t seg = std::min(mtu, op.n - off);
      charge_segment(proc);
      parts.push_back(op.post(verbs_, proc, off, seg,
                              rail_for(op.src_pe, op.dst_pe, idx),
                              seg_opts(track, id, idx, seg, op.src_pe,
                                       op.dst_pe)));
    }
    return finish_op(track, nseg == 1 ? parts.front()
                                      : sim::aggregate(std::move(parts)));
  }

  /// Per-op segment arrival bookkeeping: which segments have landed, and how
  /// much reorder-buffer state the (still-incomplete) op is holding.
  struct OpTrack {
    std::size_t nseg = 0;
    std::size_t next_contig = 0;  // lowest segment index not yet arrived
    std::vector<bool> arrived;
    std::uint64_t held_bytes = 0;
    std::uint64_t held_entries = 0;
  };

  std::shared_ptr<OpTrack> start_op(std::size_t nseg) {
    auto t = std::make_shared<OpTrack>();
    t->nseg = nseg;
    t->arrived.assign(nseg, false);
    return t;
  }

  void charge_segment(sim::Process& proc) {
    ++srd_segments_;
    proc.delay(Duration::us(params().srd_segment_overhead_us));
  }

  /// Spray segments round-robin across both HCAs when 2-rail.
  Rail rail_for(int src_pe, int dst_pe, std::size_t idx) const {
    if (!two_rails()) return {};
    return rail(src_pe, dst_pe, static_cast<int>(idx % 2));
  }

  /// The delivery jitter for segment `idx` of op `op`: uniform in
  /// [0, jitter window), drawn from a splitmix64 stream keyed purely by
  /// (seed, op, segment) — no global RNG state, so concurrent ops can't
  /// perturb each other's reordering. Loopback never leaves the adapter and
  /// is never jittered.
  Duration segment_jitter(int src_pe, int dst_pe, std::uint64_t op,
                          std::size_t idx) const {
    if (jitter_window_us_ <= 0.0) return {};
    if (verbs_.cluster().same_node(src_pe, dst_pe)) return {};
    sim::Rng rng(cfg_.srd_seed * 0x9e3779b97f4a7c15ULL +
                 op * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint64_t>(idx));
    return Duration::us(rng.next_double() * jitter_window_us_);
  }

  SegmentOpts seg_opts(const std::shared_ptr<OpTrack>& track, std::uint64_t op,
                       std::size_t idx, std::size_t bytes, int src_pe,
                       int dst_pe) {
    SegmentOpts s;
    s.jitter = segment_jitter(src_pe, dst_pe, op, idx);
    s.on_delivered = [this, track, idx, bytes] {
      on_segment_arrival(*track, idx, bytes);
    };
    return s;
  }

  /// Runs in event context when a segment's payload lands at the receiving
  /// side. The payload is already in place (delivered on arrival); the
  /// reorder buffer only tracks sequence state until the op completes.
  void on_segment_arrival(OpTrack& t, std::size_t idx, std::size_t bytes) {
    if (idx != t.next_contig) ++srd_ooo_deliveries_;
    t.arrived[idx] = true;
    while (t.next_contig < t.nseg && t.arrived[t.next_contig]) ++t.next_contig;
    t.held_bytes += bytes;
    ++t.held_entries;
    reorder_bytes_ += bytes;
    ++reorder_entries_;
    reorder_bytes_hwm_ = std::max(reorder_bytes_hwm_, reorder_bytes_);
    reorder_entries_hwm_ = std::max(reorder_entries_hwm_, reorder_entries_);
  }

  /// Release the op's reorder-buffer occupancy when its completion fires —
  /// on the subscribe, not at last arrival, so an op that completes in
  /// *error* (some segments lost for good) still releases exactly what
  /// actually landed and the gauges can't leak under fault plans.
  CompletionPtr finish_op(std::shared_ptr<OpTrack> track, CompletionPtr comp) {
    comp->subscribe([this, track = std::move(track)] {
      reorder_bytes_ -= track->held_bytes;
      reorder_entries_ -= track->held_entries;
      track->held_bytes = 0;
      track->held_entries = 0;
    });
    return comp;
  }

  double jitter_window_us_;
  std::uint64_t next_op_id_ = 0;
  std::uint64_t reorder_bytes_ = 0;
  std::uint64_t reorder_entries_ = 0;
  std::uint64_t reorder_bytes_hwm_ = 0;
  std::uint64_t reorder_entries_hwm_ = 0;
};

}  // namespace

std::unique_ptr<Transport> make_transport(Verbs& verbs,
                                          const TransportConfig& cfg) {
  switch (cfg.kind) {
    case QpKind::kRc: return std::make_unique<RcTransport>(verbs, cfg);
    case QpKind::kUd: return std::make_unique<UdTransport>(verbs, cfg);
    case QpKind::kDc: return std::make_unique<DcTransport>(verbs, cfg);
    case QpKind::kSrd: return std::make_unique<SrdTransport>(verbs, cfg);
  }
  throw IbError("unknown QP transport kind");
}

}  // namespace gdrshmem::ib
