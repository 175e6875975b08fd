// The transport-generic endpoint API over the verbs engine: one
// ib::Transport per job models the queue-pair discipline every endpoint
// uses — RC (connected mesh), UD (datagram), or DC (dynamically connected)
// — plus shared receive queues and optional 2-rail striping across the node
// model's two HCAs. Every op names its source endpoint id (a PE or a node's
// service endpoint) explicitly.
//
// All three transports produce identical application results per seed: data
// lands bytewise the same, only the modeled cost differs. The default
// configuration (rc, 1 rail) is a pure passthrough to Verbs — bit-identical
// to the pre-transport event stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "ib/verbs.hpp"

namespace gdrshmem::ib {

/// Queue-pair discipline behind the endpoint API.
enum class QpKind {
  kRc,   // reliable connected: one QP per peer per endpoint (N^2 mesh)
  kUd,   // unreliable datagram: one QP per endpoint, MTU-limited, no RDMA
  kDc,   // dynamically connected: DCI pool + one DCT per endpoint
  kSrd,  // scalable reliable datagram: reliable, relaxed ordering (EFA-like)
};

inline const char* to_string(QpKind k) {
  switch (k) {
    case QpKind::kRc: return "rc";
    case QpKind::kUd: return "ud";
    case QpKind::kDc: return "dc";
    case QpKind::kSrd: return "srd";
  }
  return "?";
}

/// GDRSHMEM_IB_TRANSPORT (rc | ud | dc | srd; rc when unset). Consulted by
/// RuntimeOptions' defaulted member, mirroring device_backend_from_env, so
/// every runtime honors the variable unless code pins a transport.
QpKind qp_kind_from_env();

/// GDRSHMEM_IB_RAILS (1 | 2; 1 when unset).
int rails_from_env();

struct TransportConfig {
  QpKind kind = QpKind::kRc;
  /// HCAs a large message stripes across (>= SystemParams::
  /// rail_stripe_min_bytes; RC/DC only — UD segments stay on one rail).
  int rails = 1;
  /// Share one receive queue across an RC endpoint's QPs instead of per-QP
  /// recv rings. UD, DC and SRD always use the SRQ; for RC this only changes
  /// the modeled memory footprint, never timing.
  bool srq = false;
  /// Seed for srd's per-segment delivery jitter: the reordering a run sees
  /// is a pure function of (seed, op, segment), so runs are bit-identical
  /// per seed. Ignored by the ordered transports.
  std::uint64_t srd_seed = 1;
  /// srd jitter window override in us; < 0 keeps
  /// SystemParams::srd_jitter_window_us.
  double srd_jitter_us = -1.0;
};

/// Modeled HCA/host memory one endpoint pins under a transport, with every
/// endpoint talking to every other.
struct QpFootprint {
  std::uint64_t qps = 0;            // queue pairs (DC: DCIs + the DCT)
  std::uint64_t context_bytes = 0;  // QP contexts + send rings
  std::uint64_t recv_bytes = 0;     // recv rings, or the shared SRQ
  std::uint64_t total_bytes() const { return context_bytes + recv_bytes; }
};

/// The op surface mirrors Verbs (same signatures, same completion
/// semantics) so the protocol layers above — Ctx, the core transports, the
/// proxy, both device backends — swap in transparently; the fault
/// retransmit machinery runs unchanged underneath every QP kind. A kind
/// differs in two hooks: `charge`, the per-op cost the base op path pays
/// before it posts (RC, DC), and `rdma`, how an RDMA op is segmented — one
/// posting, two rail stripes, or a train of MTU-sized datagrams (UD, SRD).
class Transport {
 public:
  Transport(Verbs& verbs, const TransportConfig& cfg);
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual const char* name() const = 0;
  int rails() const { return cfg_.rails; }

  /// Memory model: what one endpoint pins when `num_endpoints` communicate
  /// all-to-all. Pure arithmetic — usable at any scale without simulating.
  virtual QpFootprint footprint(int num_endpoints) const = 0;

  /// False when the transport may deliver two data transfers (or segments
  /// of one transfer) between the same endpoint pair out of issue order —
  /// srd. Protocol code that sequences a notification behind a data write
  /// must then wait for the data completion explicitly instead of riding
  /// the wire's FIFO.
  virtual bool in_order_delivery() const { return true; }

  sim::CompletionPtr rdma_write(sim::Process& proc, int src_pe,
                                const void* lbuf, int dst_pe, void* rbuf,
                                std::size_t n);
  sim::CompletionPtr rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                               int dst_pe, const void* rbuf, std::size_t n);
  virtual sim::CompletionPtr post_send(sim::Process& proc, int src_pe,
                                       int dst_pe, std::size_t n,
                                       std::function<void()> deliver);
  sim::CompletionPtr atomic(sim::Process& proc, int src_pe, int dst_pe,
                            std::uint64_t* raddr, Amo amo,
                            std::uint64_t* result);

  // ---- diagnostics --------------------------------------------------------
  std::uint64_t dc_reconnects() const { return dc_reconnects_; }
  std::uint64_t ud_packets() const { return ud_packets_; }
  std::uint64_t striped_ops() const { return striped_ops_; }
  std::uint64_t srd_segments() const { return srd_segments_; }
  /// Segment deliveries that arrived while an earlier-offset segment of the
  /// same op was still in flight (a reorder the target had to absorb).
  std::uint64_t srd_ooo_deliveries() const { return srd_ooo_deliveries_; }
  /// Reorder/tracking buffer high-water marks (bytes and entries held for
  /// ops whose completion had not yet been raised). Zero on the ordered
  /// transports.
  virtual std::uint64_t srd_reorder_bytes_hwm() const { return 0; }
  virtual std::uint64_t srd_reorder_entries_hwm() const { return 0; }

 protected:
  /// One RDMA op in either direction, initiated by `src_pe` against
  /// `dst_pe`: `n` bytes move from `from` to `to` — local to remote for a
  /// write, remote to local for a read.
  struct Rdma {
    bool read = false;
    int src_pe = 0;
    int dst_pe = 0;
    const std::byte* from = nullptr;
    std::byte* to = nullptr;
    std::size_t n = 0;

    const void* local() const { return read ? to : from; }
    /// Post bytes [off, off + len) of the op as one verbs op.
    sim::CompletionPtr post(Verbs& verbs, sim::Process& proc, std::size_t off,
                            std::size_t len, Rail rail = {},
                            SegmentOpts seg = {}) const;
  };

  const hw::SystemParams& params() const { return verbs_.cluster().params(); }
  /// Two rails configured and a second HCA to drive?
  bool two_rails() const;
  /// The HCA pair of rail `index` (0: each side's placement HCA, 1: the
  /// other adapter on both sides).
  Rail rail(int src_pe, int dst_pe, int index) const;

  /// This QP kind's per-op cost, charged before any op posts. `striped`:
  /// the op drives both rails. Free by default.
  virtual void charge(sim::Process& /*proc*/, int /*src_pe*/,
                      int /*dst_pe*/, bool /*striped*/) {}
  /// Post an RDMA op. Default: one posting, or — a large message on two
  /// rails — one half per rail under one completion.
  virtual sim::CompletionPtr rdma(sim::Process& proc, const Rdma& op);

  Verbs& verbs_;
  TransportConfig cfg_;
  std::uint64_t dc_reconnects_ = 0;
  std::uint64_t ud_packets_ = 0;
  std::uint64_t striped_ops_ = 0;
  std::uint64_t srd_segments_ = 0;
  std::uint64_t srd_ooo_deliveries_ = 0;
};

/// Build the transport selected by `cfg` over the shared verbs engine.
std::unique_ptr<Transport> make_transport(Verbs& verbs,
                                          const TransportConfig& cfg);

}  // namespace gdrshmem::ib
