// Device-initiated OpenSHMEM backends (see device_api.hpp for the model).
#include "core/device_api.hpp"

#include "core/protocol_selector.hpp"
#include "core/proxy.hpp"
#include "core/transport_util.hpp"

namespace gdrshmem::core {

using sim::Duration;
using detail::resolve_word;

namespace {

/// Warp/block-scope contexts amortize WQE assembly across the cooperating
/// threads (one thread builds while the others run); the doorbell and the
/// descriptor write stay a single MMIO transaction regardless of scope.
double wqe_divisor(DeviceScope scope, const hw::SystemParams& p) {
  switch (scope) {
    case DeviceScope::kThread: return 1.0;
    case DeviceScope::kWarp: return p.wqe_warp_divisor;
    case DeviceScope::kBlock: return p.wqe_block_divisor;
  }
  return 1.0;
}

/// Bytes of a reverse-offload transfer that each Tuning::proxy_timeout_us of
/// its deadline covers under a fault plan. A fixed unit, not the pipeline
/// chunk, so the deadline, and the recovery it gates when the proxy dies
/// holding the command, scales with the transfer's size alone; 128 KiB is
/// the chunk the timeout was sized for (a 4 MiB command waits out 34).
constexpr std::size_t kOffloadTimeoutBytes = 128 * 1024;

}  // namespace

// ---------------------------------------------------------------------------
// DeviceBackend shared machinery (reverse ring + fault-hardened submission)

void DeviceBackend::post_cmd(DeviceCtx& dctx,
                             const std::shared_ptr<DeviceCmd>& cmd) {
  // The descriptor lands in the host ring via one PCIe write the kernel has
  // already been charged for; the proxy daemon polls the ring, so no network
  // send is involved in the hand-off.
  (void)dctx;
  ProxyDaemon& proxy =
      rt_.proxy(rt_.cluster().placement(cmd->requester).node);
  CtrlMsg m;
  m.kind = CtrlMsg::Kind::kDeviceCmd;
  m.from = cmd->requester;
  m.bytes = cmd->rma.bytes;
  m.state = cmd;
  proxy.mailbox().post(m);
}

void DeviceBackend::offload(DeviceCtx& dctx, std::shared_ptr<DeviceCmd> cmd) {
  Ctx& ctx = dctx.host_ctx();
  const int me = cmd->requester;
  if (!rt_.tuning().use_proxy || !rt_.proxies_enabled()) {
    throw ShmemError(
        "device offload requires the per-node proxy daemon "
        "(enhanced-gdr transport with tuning.use_proxy)");
  }
  // Bounded command ring: the kernel blocks on a free slot once
  // device_queue_depth descriptors are outstanding.
  auto& ring = inflight_[me];
  const std::size_t depth = rt_.options().device_queue_depth;
  auto reap = [&ring] {
    while (!ring.empty() && ring.front()->done()) ring.pop_front();
  };
  reap();
  if (ring.size() >= depth) {
    ctx.wait_for([&] {
      reap();
      return ring.size() < depth;
    });
  }
  // The proxy may crash holding our descriptor under a fault plan. Each
  // attempt posts fresh completion state (a restarted daemon can never
  // complete a command we already gave up on) under a deadline scaled to
  // the transfer size; timed-out attempts are reissued from scratch.
  // Puts and gets rewrite the same bytes on reissue (idempotent); atomics
  // may double-apply if the proxy crashes after executing the RMW but
  // before the completion notification — see DESIGN.md.
  const Duration timeout = Duration::us(
      rt_.tuning().proxy_timeout_us *
      (2.0 + static_cast<double>(cmd->rma.bytes) /
                 static_cast<double>(kOffloadTimeoutBytes)));
  std::shared_ptr<DeviceCmd> attempt;
  detail::reissue_until_done(ctx, "device offload", [&] {
    if (attempt == nullptr) {
      attempt = cmd;
    } else {
      attempt = std::make_shared<DeviceCmd>(*cmd);
      attempt->done = std::make_shared<sim::Completion>();
    }
    post_cmd(dctx, attempt);
    if (!ctx.finish_attempt(attempt->done, cmd->rma.blocking,
                            rt_.deadline_after(timeout))) {
      return false;
    }
    ring.push_back(attempt->done);
    return true;
  });
}

// ---------------------------------------------------------------------------
// GPU-IB backend

class GpuIbBackend final : public DeviceBackend {
 public:
  using DeviceBackend::DeviceBackend;

  void rma(DeviceCtx& dctx, const RmaOp& op, bool is_get) override {
    Ctx& ctx = dctx.host_ctx();
    const int me = ctx.my_pe();
    const auto& p = rt_.cluster().params();
    dctx.kernel().charge_us(p.gpu_wqe_build_us / wqe_divisor(dctx.scope(), p) +
                            p.gpu_doorbell_us);
    const ProtocolSelector& sel = rt_.selector();
    const bool blocked = sel.gdr_blocked(op, me);
    if (blocked) rt_.faults().on_event(sim::FaultEvent::kGdrFallback, me);
    const Protocol offloaded = sel.select_offload(op, is_get, me);
    if (offloaded == Protocol::kProxyPut || offloaded == Protocol::kProxyGet) {
      // The message is too large for one direct GDR posting, or the HCA can
      // no longer DMA a GPU leg (P2P revoked): hand the op to the host
      // proxy, which runs the staged protocols on our behalf.
      if (rt_.tuning().use_proxy && rt_.proxies_enabled()) {
        auto cmd = std::make_shared<DeviceCmd>();
        cmd->op = is_get ? DeviceCmd::Op::kGet : DeviceCmd::Op::kPut;
        cmd->rma = op;
        cmd->requester = me;
        return offload(dctx, cmd);
      }
      if (blocked) {
        throw ShmemError(
            "gpu-ib: GPU leg unreachable (P2P revoked) and no proxy to fall "
            "back to");
      }
      // Oversized but no proxy configured: a single direct posting still
      // works, just at the degraded large-message GDR rate.
      return detail::run_unstaged(ctx, op, Protocol::kDirectGdr, is_get);
    }
    // Intra-node and small inter-node ops take the protocol a host call of
    // the same shape would, just issued (and the doorbell charged) from the
    // kernel.
    detail::run_unstaged(
        ctx, op, is_get ? sel.select_get(op, me) : sel.select_put(op, me),
        is_get);
  }

  std::int64_t amo(DeviceCtx& dctx, std::int64_t* sym, ib::Amo amo,
                   int pe) override {
    Ctx& ctx = dctx.host_ctx();
    const auto& p = rt_.cluster().params();
    dctx.kernel().charge_us(p.gpu_wqe_build_us / wqe_divisor(dctx.scope(), p) +
                            p.gpu_doorbell_us);
    std::uint64_t* word = resolve_word(rt_, ctx.my_pe(), pe, sym);
    return static_cast<std::int64_t>(ctx.hw_atomic(pe, word, amo));
  }
};

// ---------------------------------------------------------------------------
// Reverse-offload backend

class ReverseOffloadBackend final : public DeviceBackend {
 public:
  using DeviceBackend::DeviceBackend;

  void rma(DeviceCtx& dctx, const RmaOp& op, bool is_get) override {
    dctx.kernel().charge_us(rt_.cluster().params().device_cmd_write_us);
    auto cmd = std::make_shared<DeviceCmd>();
    cmd->op = is_get ? DeviceCmd::Op::kGet : DeviceCmd::Op::kPut;
    cmd->rma = op;
    cmd->requester = dctx.my_pe();
    offload(dctx, cmd);
  }

  std::int64_t amo(DeviceCtx& dctx, std::int64_t* sym, ib::Amo amo,
                   int pe) override {
    dctx.kernel().charge_us(rt_.cluster().params().device_cmd_write_us);
    auto cmd = std::make_shared<DeviceCmd>();
    cmd->op = DeviceCmd::Op::kAmo;
    cmd->requester = dctx.my_pe();
    cmd->rma.target_pe = pe;
    cmd->rma.bytes = sizeof(std::uint64_t);
    cmd->rma.blocking = true;  // a fetch must return the prior value
    cmd->amo_word = resolve_word(rt_, dctx.my_pe(), pe, sym);
    cmd->amo = amo;
    cmd->amo_result = std::make_shared<std::uint64_t>(0);
    offload(dctx, cmd);
    return static_cast<std::int64_t>(*cmd->amo_result);
  }
};

// ---------------------------------------------------------------------------
// Quiet + factory

void DeviceBackend::quiet(DeviceCtx& dctx) {
  // The kernel polls its completion flags (CQ for gpu-ib, host-written ring
  // status for reverse), then the host-visible pending set drains — which
  // covers tracked nbi offload completions too.
  dctx.kernel().charge_us(rt_.cluster().params().gpu_cq_poll_us);
  dctx.host_ctx().quiet();
  auto it = inflight_.find(dctx.my_pe());
  if (it != inflight_.end()) {
    auto& ring = it->second;
    while (!ring.empty() && ring.front()->done()) ring.pop_front();
  }
}

std::unique_ptr<DeviceBackend> make_device_backend(Runtime& rt,
                                                   DeviceBackendKind kind) {
  switch (kind) {
    case DeviceBackendKind::kGpuIb:
      return std::make_unique<GpuIbBackend>(rt);
    case DeviceBackendKind::kReverseOffload:
      return std::make_unique<ReverseOffloadBackend>(rt);
  }
  throw ShmemError("unknown device backend");
}

// ---------------------------------------------------------------------------
// DeviceCtx

void DeviceCtx::rma_entry(void* remote_sym, void* local, std::size_t n, int pe,
                          bool is_get, bool blocking) {
  if (n == 0) return;
  const TraceEvent::Kind kind =
      is_get ? TraceEvent::Kind::kGet : TraceEvent::Kind::kPut;
  sim::Time t0 = ctx_.begin_op(kind);
  // No host software overhead here — the device-side issue costs (WQE +
  // doorbell, or descriptor write) are charged by the backend instead.
  RmaOp op = ctx_.make_op(remote_sym, local, n, pe, blocking);
  backend_.rma(*this, op, is_get);
  if (blocking) ctx_.finish_op(kind, pe, n, t0);
}

void DeviceCtx::putmem(void* dst_sym, const void* src, std::size_t n, int pe) {
  rma_entry(dst_sym, const_cast<void*>(src), n, pe, /*is_get=*/false,
            /*blocking=*/true);
}

void DeviceCtx::putmem_nbi(void* dst_sym, const void* src, std::size_t n,
                           int pe) {
  rma_entry(dst_sym, const_cast<void*>(src), n, pe, /*is_get=*/false,
            /*blocking=*/false);
}

void DeviceCtx::getmem(void* dst, const void* src_sym, std::size_t n, int pe) {
  rma_entry(const_cast<void*>(src_sym), dst, n, pe, /*is_get=*/true,
            /*blocking=*/true);
}

void DeviceCtx::getmem_nbi(void* dst, const void* src_sym, std::size_t n,
                           int pe) {
  rma_entry(const_cast<void*>(src_sym), dst, n, pe, /*is_get=*/true,
            /*blocking=*/false);
}

std::int64_t DeviceCtx::amo_entry(std::int64_t* sym, ib::Amo amo, int pe) {
  sim::Time t0 = ctx_.begin_op(TraceEvent::Kind::kAtomic);
  std::int64_t old = backend_.amo(*this, sym, amo, pe);
  ctx_.finish_op(TraceEvent::Kind::kAtomic, pe, 8, t0);
  return old;
}

std::int64_t DeviceCtx::atomic_fetch_add(std::int64_t* sym, std::int64_t value,
                                         int pe) {
  return amo_entry(sym, ib::Amo::fetch_add(static_cast<std::uint64_t>(value)),
                   pe);
}

std::int64_t DeviceCtx::atomic_compare_swap(std::int64_t* sym,
                                            std::int64_t cond,
                                            std::int64_t value, int pe) {
  return amo_entry(sym,
                   ib::Amo::compare_swap(static_cast<std::uint64_t>(cond),
                                         static_cast<std::uint64_t>(value)),
                   pe);
}

void* DeviceCtx::ptr(const void* sym, int pe) {
  // Classic shmem_ptr: the peer's host heap, same node.
  if (void* p = ctx_.shmem_ptr(sym, pe)) return p;
  Runtime& rt = ctx_.runtime();
  if (!rt.cluster().same_node(my_pe(), pe)) return nullptr;
  Domain dom;
  void* remote = rt.translate(sym, my_pe(), pe, 1, &dom);
  if (dom != Domain::kGpu) return nullptr;
  if (!rt.gdr_available(pe)) return nullptr;  // P2P revoked: no peer mapping
  rt.map_peer_gpu_heap(ctx_.proc(), my_pe(), pe);
  return remote;
}

// ---------------------------------------------------------------------------
// Ctx entry point

void Ctx::launch_kernel_device(double per_cell_ns, DeviceScope scope,
                               const std::function<void(DeviceCtx&)>& body) {
  rt_->cuda().launch_kernel_resident(
      proc(), per_cell_ns, [&](cudart::KernelContext& kc) {
        DeviceCtx dctx(*this, kc, scope);
        body(dctx);
      });
}

}  // namespace gdrshmem::core
