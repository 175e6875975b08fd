// The single source of protocol decisions: which executable path an RMA
// operation takes, given size, buffer domains, socket placement, and P2P
// health. Extracted from the branches that used to live inside
// EnhancedGdrTransport so the host transport, the device-initiated backends
// and the proxy's device-command service all consult the same policy (and so
// ROADMAP item 5's adaptive tuner has one place to hook).
//
// Selection is pure: no virtual time is charged and no state is mutated, so
// moving a decision between call sites never perturbs the simulation.
#pragma once

#include <cstddef>

#include "core/transport.hpp"

namespace gdrshmem::core {

class Runtime;

/// Executable path for one RMA operation. The first four are intra-node
/// (Figs 2-3), the rest inter-node (Figs 4-5). kStagedProxyPut is the
/// pipeline-GDR-write divert: bounce the whole message to host locally,
/// then run the proxy-put protocol from the bounce buffer.
enum class PathChoice {
  kHostShm,
  kLoopbackGdr,
  kIpcCopy,
  kShmemPtrCopy,
  kDirectRdma,
  kDirectGdr,
  kPipelineGdrWrite,
  kHostStagedGet,
  kProxyPut,
  kStagedProxyPut,
  kProxyGet,
};

class ProtocolSelector {
 public:
  explicit ProtocolSelector(Runtime& rt) : rt_(rt) {}

  /// Path for a put issued by `issuer`. Throws ShmemError when no path can
  /// reach the target (device destination, P2P revoked, proxy disabled).
  PathChoice select_put(const RmaOp& op, int issuer) const;

  /// Path for a get issued by `issuer`; same throwing contract.
  PathChoice select_get(const RmaOp& op, int issuer) const;

  /// Largest message Direct/loopback GDR should carry for this op, given
  /// which legs touch a GPU and the socket placement of each side. Legs on
  /// a node whose P2P capability was revoked get a limit of 0, steering
  /// every size onto the GDR-free protocols.
  std::size_t gdr_limit(const RmaOp& op, bool is_get, bool intra_node,
                        int issuer) const;

  /// For the host-side progress engine serving a device-offloaded op: true
  /// when the op is too large for a single direct posting and must be
  /// chunked through the proxy's staging buffer.
  bool offload_staged(const RmaOp& op, bool is_get, int issuer) const;

 private:
  bool proxy_usable() const;

  Runtime& rt_;
};

}  // namespace gdrshmem::core
