// The single source of protocol decisions: which core::Protocol an RMA
// operation takes, given size, buffer domains, socket placement, and P2P
// health. The host transport, the device-initiated backends and the proxy's
// device-command service all consult the same policy.
//
// Selection is pure: no virtual time is charged and no state is mutated, so
// moving a decision between call sites never perturbs the simulation.
#pragma once

#include <cstddef>

#include "core/transport.hpp"

namespace gdrshmem::core {

class Runtime;

class ProtocolSelector {
 public:
  explicit ProtocolSelector(Runtime& rt) : rt_(rt) {}

  /// Protocol for a put issued by `issuer`: intra-node host-shm,
  /// loopback-gdr, ipc-copy or shmem-ptr-copy (Figs 2-3); inter-node
  /// direct-rdma, direct-gdr, pipeline-gdr-write or proxy-put (Figs 4-5).
  /// Throws ShmemError when no protocol can reach the target (device
  /// destination, P2P revoked, proxy disabled).
  Protocol select_put(const RmaOp& op, int issuer) const;

  /// Protocol for a get issued by `issuer`: the intra-node set of
  /// select_put, then direct-rdma, direct-gdr, host-staged-get or
  /// proxy-get; same throwing contract.
  Protocol select_get(const RmaOp& op, int issuer) const;

  /// True when a GPU leg of `op` sits on a node whose P2P capability was
  /// revoked (only a fault plan revokes it). The issuing entry counts each
  /// such op as one gdr-fallback event.
  bool gdr_blocked(const RmaOp& op, int issuer) const;

  /// True when GDR writes into `pe`'s GPU are poor: its HCA sits on the
  /// other socket (Table III's 1,179 MB/s P2P write) or its node's P2P was
  /// revoked. Large transfers into such a GPU stage through host memory.
  bool gdr_poor(int pe) const;

  /// True when `proto`, selected for an inter-node `op` larger than its
  /// direct-GDR window, would register a local range that the registration
  /// cache does not cover: direct-gdr, proxy-put from a host source, or a
  /// proxy-get the proxy writes in place. The transport then runs the
  /// protocol's staged sibling through the bounce buffer while the PE's
  /// registration helper registers the range (DESIGN §5j).
  bool stage_unregistered(const RmaOp& op, Protocol proto, bool is_get,
                          int issuer) const;

  /// Largest message Direct/loopback GDR should carry for this op, given
  /// which legs touch a GPU and the socket placement of each side. Legs on
  /// a node whose P2P capability was revoked get a limit of 0, steering
  /// every size onto the GDR-free protocols.
  std::size_t gdr_limit(const RmaOp& op, bool is_get, bool intra_node,
                        int issuer) const;

  /// Protocol the proxy runs for a device command: a put (or a get when
  /// `is_get`) from `issuer`'s kernel. ipc-copy or host-shm on the same
  /// node; direct-rdma between host buffers; direct-gdr within the
  /// direct-GDR window; past it (a revoked GPU leg's window is 0) proxy-put
  /// or proxy-get, chunked through the proxy's staging. GPU-IB offloads
  /// exactly the ops this sends to proxy-put or proxy-get.
  Protocol select_offload(const RmaOp& op, bool is_get, int issuer) const;

 private:
  bool proxy_usable() const;

  Runtime& rt_;
};

}  // namespace gdrshmem::core
