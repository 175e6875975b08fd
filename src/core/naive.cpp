// The "Naive" design of Table I: the runtime only understands host memory.
// Users must stage GPU data with explicit cudaMemcpy calls before/after
// every communication — the productivity problem motivating the paper.
#include "core/transport_util.hpp"
#include "core/transports.hpp"

namespace gdrshmem::core {

namespace {

/// Host-shm inside a node, direct RDMA across; any GPU buffer throws.
Protocol host_only(const RmaOp& op) {
  if (op.local_is_device || op.remote_domain == Domain::kGpu) {
    throw UnsupportedError(
        "naive transport cannot touch GPU memory: stage through the host "
        "with cudaMemcpy first");
  }
  return op.same_node ? Protocol::kHostShm : Protocol::kDirectRdma;
}

}  // namespace

void NaiveTransport::put(Ctx& ctx, const RmaOp& op) {
  detail::run_unstaged(ctx, op, host_only(op), /*is_get=*/false);
}

void NaiveTransport::get(Ctx& ctx, const RmaOp& op) {
  detail::run_unstaged(ctx, op, host_only(op), /*is_get=*/true);
}

void NaiveTransport::handle_ctrl(Ctx&, CtrlMsg&, sim::Process&) {
  throw ShmemError("naive transport uses no control messages");
}

}  // namespace gdrshmem::core
