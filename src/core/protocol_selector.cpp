#include "core/protocol_selector.hpp"

#include <algorithm>
#include <climits>

#include "core/runtime.hpp"

namespace gdrshmem::core {

bool ProtocolSelector::proxy_usable() const {
  return rt_.tuning().use_proxy && rt_.proxies_enabled();
}

std::size_t ProtocolSelector::gdr_limit(const RmaOp& op, bool is_get,
                                        bool intra_node, int issuer) const {
  const Tuning& t = rt_.tuning();
  const std::size_t wl =
      intra_node ? t.loopback_gdr_write_limit : t.direct_gdr_write_limit;
  const std::size_t rl =
      intra_node ? t.loopback_gdr_read_limit : t.direct_gdr_read_limit;
  auto adj = [&](int pe, std::size_t base) -> std::size_t {
    if (!rt_.gdr_available(pe)) return 0;  // P2P revoked: no GDR on this leg
    return rt_.gdr_inter_socket(pe) ? base / t.inter_socket_gdr_divisor : base;
  };
  std::size_t limit = SIZE_MAX;
  // The local GDR leg belongs to the issuing PE, the remote leg to
  // op.target_pe. For limits we only need socket placement, identical for
  // all PEs sharing a GPU/HCA pair, so this is exact.
  if (!is_get) {
    if (op.local_is_device) limit = std::min(limit, adj(issuer, rl));
    if (op.remote_domain == Domain::kGpu) {
      limit = std::min(limit, adj(op.target_pe, wl));
    }
  } else {
    if (op.remote_domain == Domain::kGpu) {
      limit = std::min(limit, adj(op.target_pe, rl));
    }
    if (op.local_is_device) limit = std::min(limit, adj(issuer, wl));
  }
  return limit;
}

bool ProtocolSelector::gdr_poor(int pe) const {
  return rt_.gdr_inter_socket(pe) || !rt_.gdr_available(pe);
}

bool ProtocolSelector::stage_unregistered(const RmaOp& op, Protocol proto,
                                          bool is_get, int issuer) const {
  const bool registers =
      proto == Protocol::kDirectGdr ||
      (proto == Protocol::kProxyPut && !op.local_is_device) ||
      (proto == Protocol::kProxyGet &&
       !(op.local_is_device && gdr_poor(issuer)));
  if (!registers || op.same_node ||
      op.bytes <= gdr_limit(op, is_get, /*intra_node=*/false, issuer)) {
    return false;
  }
  // A host range of at most ib::kInlineBytes never registers.
  if (!op.local_is_device && op.bytes <= ib::kInlineBytes) return false;
  return !rt_.verbs().reg_cache().covered(issuer, op.local, op.bytes);
}

bool ProtocolSelector::gdr_blocked(const RmaOp& op, int issuer) const {
  return (op.local_is_device && !rt_.gdr_available(issuer)) ||
         (op.remote_domain == Domain::kGpu && !rt_.gdr_available(op.target_pe));
}

Protocol ProtocolSelector::select_put(const RmaOp& op, int issuer) const {
  const bool src_dev = op.local_is_device;
  const bool dst_dev = op.remote_domain == Domain::kGpu;
  if (op.same_node) {
    if (!src_dev && !dst_dev) return Protocol::kHostShm;
    if (op.bytes <= gdr_limit(op, /*is_get=*/false, /*intra=*/true, issuer)) {
      return Protocol::kLoopbackGdr;
    }
    // One IPC copy into the mapped destination (H-D / D-D), or a D->H
    // cudaMemcpy straight into the peer's host heap: the shmem_ptr design of
    // Fig 3. One copy, no target involvement.
    return dst_dev ? Protocol::kIpcCopy : Protocol::kShmemPtrCopy;
  }
  if (!src_dev && !dst_dev) return Protocol::kDirectRdma;
  if (op.bytes <= gdr_limit(op, /*is_get=*/false, /*intra=*/false, issuer)) {
    return Protocol::kDirectGdr;
  }
  // GDR writes are near wire speed intra-socket; inter-socket they collapse
  // (Table III), and with P2P revoked on the target node they are
  // unavailable outright. Stage through the target-side proxy in both cases
  // (its final hop is a plain IPC H->D copy, no GDR needed); a device source
  // is bounced to host chunk by chunk on the way.
  if (dst_dev && gdr_poor(op.target_pe) && proxy_usable()) {
    return Protocol::kProxyPut;
  }
  if (dst_dev && !rt_.gdr_available(op.target_pe)) {
    throw ShmemError(
        "enhanced-gdr: target GPU lost P2P and no proxy is available");
  }
  return src_dev ? Protocol::kPipelineGdrWrite : Protocol::kDirectGdr;
}

Protocol ProtocolSelector::select_get(const RmaOp& op, int issuer) const {
  const bool loc_dev = op.local_is_device;
  const bool rem_dev = op.remote_domain == Domain::kGpu;
  if (op.same_node) {
    if (!loc_dev && !rem_dev) return Protocol::kHostShm;
    if (op.bytes <= gdr_limit(op, /*is_get=*/true, /*intra=*/true, issuer)) {
      return Protocol::kLoopbackGdr;
    }
    // H-D / D-D: one IPC copy out of the mapped source. For H-D this single
    // D->H copy is the 40% win over the baseline's staged path. D-H: one
    // H->D copy from the peer's host heap (shmem_ptr).
    return rem_dev ? Protocol::kIpcCopy : Protocol::kShmemPtrCopy;
  }
  if (!loc_dev && !rem_dev) return Protocol::kDirectRdma;
  if (op.bytes <= gdr_limit(op, /*is_get=*/true, /*intra=*/false, issuer)) {
    return Protocol::kDirectGdr;
  }
  if (rem_dev && proxy_usable()) {
    // Large read from remote GPU memory would bottleneck on the target's
    // P2P read path: the remote proxy runs the reverse pipeline instead.
    return Protocol::kProxyGet;
  }
  if (rem_dev && !rt_.gdr_available(op.target_pe)) {
    throw ShmemError(
        "enhanced-gdr: target GPU lost P2P and no proxy is available");
  }
  if (rem_dev) return Protocol::kDirectGdr;
  // Remote host, local device, large: RDMA-read + local staging when our
  // own GDR write is poor; otherwise read straight into the GPU.
  if (loc_dev && gdr_poor(issuer)) return Protocol::kHostStagedGet;
  return Protocol::kDirectGdr;
}

Protocol ProtocolSelector::select_offload(const RmaOp& op, bool is_get,
                                          int issuer) const {
  const bool dev_leg = op.local_is_device || op.remote_domain == Domain::kGpu;
  if (op.same_node) return dev_leg ? Protocol::kIpcCopy : Protocol::kHostShm;
  if (!dev_leg) return Protocol::kDirectRdma;
  if (op.bytes <= gdr_limit(op, is_get, /*intra_node=*/false, issuer)) {
    return Protocol::kDirectGdr;
  }
  return is_get ? Protocol::kProxyGet : Protocol::kProxyPut;
}

}  // namespace gdrshmem::core
