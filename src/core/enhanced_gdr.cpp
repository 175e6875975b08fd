// The proposed GDR-aware design (Section III): hybrid protocol selection
// that keeps every configuration truly one-sided.
//
//   intra-node   small  -> loopback RDMA with GDR legs (Fig 2)
//   intra-node   large  -> one CUDA IPC copy, or one cudaMemcpy straight
//                          into the peer's host heap (shmem_ptr, Fig 3)
//   inter-node   small  -> Direct GDR RDMA (Fig 4, solid)
//   inter-node   large  -> pipeline-GDR-write for device sources (Fig 4,
//                          dotted); per-node proxy for gets from a remote
//                          GPU and puts into a GDR-poor one (Fig 5); a
//                          proxy-get into our own GDR-poor GPU streams
//                          through our staging ring
//   inter-node   large, local buffer not registered
//                       -> the staged sibling through the staging ring,
//                          while a helper registers the buffer (§5j)
//
// Thresholds are Tuning runtime parameters, shrunk when the HCA and GPU sit
// on different sockets (Table III).
#include "core/protocol_selector.hpp"
#include "core/proxy.hpp"
#include "core/transport_util.hpp"
#include "core/transports.hpp"

namespace gdrshmem::core {

// ---------------------------------------------------------------------------
// dispatch
//
// Protocol selection lives in core::ProtocolSelector (shared with the
// device-initiated backends); this transport only executes the choice. The
// one-step protocols run through detail::run_unstaged, as for every other
// transport; the staged ones are below. A large transfer whose local buffer
// the registration cache does not cover runs its protocol's staged sibling
// instead of registering the buffer first: direct-gdr becomes
// pipeline-gdr-write or host-staged-get, and proxy-put and proxy-get stage
// a buffer they would post in place. The PE's registration helper
// registers the buffer meanwhile, so its next transfer goes zero-copy.

void EnhancedGdrTransport::put(Ctx& ctx, const RmaOp& op) {
  run(ctx, op, /*is_get=*/false);
}

void EnhancedGdrTransport::get(Ctx& ctx, const RmaOp& op) {
  run(ctx, op, /*is_get=*/true);
}

void EnhancedGdrTransport::run(Ctx& ctx, const RmaOp& op, bool is_get) {
  const int me = ctx.my_pe();
  const ProtocolSelector& sel = rt_.selector();
  if (sel.gdr_blocked(op, me)) {
    rt_.faults().on_event(sim::FaultEvent::kGdrFallback, me);
  }
  const Protocol proto =
      is_get ? sel.select_get(op, me) : sel.select_put(op, me);
  const bool stage = sel.stage_unregistered(op, proto, is_get, me);
  if (stage) rt_.verbs().reg_cache().register_async(me, op.local, op.bytes);
  switch (proto) {
    case Protocol::kDirectGdr:
      if (!stage) break;
      return is_get ? host_staged_get(ctx, op) : pipeline_gdr_write(ctx, op);
    case Protocol::kPipelineGdrWrite: return pipeline_gdr_write(ctx, op);
    case Protocol::kHostStagedGet: return host_staged_get(ctx, op);
    case Protocol::kProxyPut: return proxy_put(ctx, op, stage);
    case Protocol::kProxyGet: return proxy_get(ctx, op, stage);
    default: break;
  }
  detail::run_unstaged(ctx, op, proto, is_get);
}

void EnhancedGdrTransport::handle_ctrl(Ctx&, CtrlMsg&, sim::Process&) {
  // The whole point of the design: no target-PE work, ever.
  throw ShmemError("enhanced-gdr transport sends no PE-level control messages");
}

// ---------------------------------------------------------------------------
// inter-node protocols

void EnhancedGdrTransport::pipeline_gdr_write(Ctx& ctx, const RmaOp& op) {
  // Device source, large put. Avoid the P2P *read* bottleneck by IPC-copying
  // D->H into registered host staging, then RDMA (GDR-)writing each chunk;
  // an unregistered host source is copied into the staging H->H.
  // (GDR-poor targets never reach here: the selector diverts them to
  // proxy-put or throws.)
  ctx.count_protocol(Protocol::kPipelineGdrWrite, op.bytes);
  const int me = ctx.my_pe();
  detail::StagedPipeline pipe(ctx, ctx.proc(), ctx.staging_ring());
  auto* remote_bytes = static_cast<std::byte*>(op.remote);
  pipe.push(static_cast<const std::byte*>(op.local), op.bytes,
            [&](std::size_t off, std::size_t c, std::size_t s) {
    pipe.post(s, [this, &ctx, me, slot = pipe.slot(s), target = op.target_pe,
                  dst = remote_bytes + off, c] {
      return rt_.ib().rdma_write(ctx.proc(), me, slot, target, dst, c);
    });
    return true;
  });
  // Paper semantics: the put returns once the last IPC cudaMemcpy completes
  // and the RDMA is posted — the source buffer is already copied out.
  pipe.finish_async();
}

void EnhancedGdrTransport::host_staged_get(Ctx& ctx, const RmaOp& op) {
  // RDMA-read chunks into the staging ring, then H->D copy them locally —
  // avoids an inter-socket GDR write into our own GPU, or registering a
  // destination the cache does not cover (which may be host memory: H->H).
  ctx.count_protocol(Protocol::kHostStagedGet, op.bytes);
  detail::StagedPipeline(ctx, ctx.proc(), ctx.staging_ring())
      .pull(ctx.my_pe(), op.target_pe, static_cast<const std::byte*>(op.remote),
            static_cast<std::byte*>(op.local), op.bytes);
}

void EnhancedGdrTransport::proxy_put(Ctx& ctx, const RmaOp& op,
                                     bool stage_source) {
  // The target's GDR write is slow (inter-socket) or gone (P2P revoked):
  // stream the message through the target-side proxy's staging ring, and
  // let the proxy do the last hop with an IPC copy. Chunk k uses proxy
  // staging slot k % kStagingSlots, and a device source (or, with
  // `stage_source`, an unregistered host one) is first pushed through our
  // staging ring, so the copies of later chunks, the RDMA of chunk k and the
  // proxy's H->D copy of an earlier chunk overlap. Both rings hold slots of
  // Tuning::pipeline_chunk bytes.
  ctx.count_protocol(Protocol::kProxyPut, op.bytes);
  const int me = ctx.my_pe();
  ProxyDaemon& proxy = rt_.proxy(rt_.cluster().placement(op.target_pe).node);
  const std::size_t chunk = rt_.tuning().pipeline_chunk;
  const sim::Duration timeout =
      sim::Duration::us(rt_.tuning().proxy_timeout_us);
  auto* src_bytes = static_cast<const std::byte*>(op.local);
  const bool bounced = op.local_is_device || stage_source;
  // The proxy may crash mid-transfer under a fault plan. Each attempt uses
  // fresh transfer state (so a restarted proxy never consumes a stale chunk
  // notification into the new transfer) and per-stage deadlines; a timed-out
  // attempt is reissued from scratch.
  detail::reissue_until_done(ctx, "proxy put", [&] {
    auto st = std::make_shared<ProxyPutState>();
    // A slot of our ring is reused once the RDMA that read it completed.
    detail::StagedPipeline bounce(ctx, ctx.proc(), ctx.staging_ring());
    // Send the chunk at `off` from `from` into proxy staging slot `s`.
    auto send = [&](std::size_t off, std::size_t c, const std::byte* from) {
      const std::size_t k = off / chunk;
      const std::size_t s = k % kStagingSlots;
      if (k == 0) {
        // Chunk 0 waits for the grant of the whole staging ring.
        proxy.post_request(ctx, 32,
                           {.kind = CtrlMsg::Kind::kProxyPutReq,
                            .remote = op.remote,
                            .bytes = op.bytes,
                            .state = st});
        if (!ctx.wait_for_deadline([&] { return st->cts.done(); },
                                   rt_.deadline_after(timeout))) {
          return false;
        }
        // A host source is posted in place: register it whole once, so
        // every chunk's post hits that registration.
        if (!bounced) {
          rt_.verbs().register_local(ctx.proc(), me, op.local, op.bytes);
        }
      } else if (k >= kStagingSlots) {
        // Staging slot s is free once the proxy drained the chunk
        // kStagingSlots before this one.
        if (!ctx.wait_for_deadline(
                [&] { return st->windows_done + kStagingSlots - 1 >= k; },
                rt_.deadline_after(timeout))) {
          return false;
        }
      }
      // The proxy drains a chunk on its fin's receipt, so the chunk's bytes
      // must be there first: a replayed or unordered (srd) data write could
      // otherwise land after the drain.
      auto post = [this, &ctx, me, from, &proxy,
                   to = st->staging + s * chunk, c] {
        return rt_.ib().rdma_write(ctx.proc(), me, from, proxy.endpoint(), to,
                                   c);
      };
      sim::CompletionPtr comp = ctx.issue(ctx.proc(), post);
      if (bounced) bounce.record(s, std::move(comp), post);
      proxy.post_request(ctx, 0,
                         {.kind = CtrlMsg::Kind::kProxyPutFin,
                          .remote = op.remote,
                          .bytes = c,
                          .offset = off,
                          .state = st});
      return true;
    };
    if (bounced) {
      if (!bounce.push(src_bytes, op.bytes,
                       [&](std::size_t off, std::size_t c, std::size_t s) {
                         return send(off, c, bounce.slot(s));
                       })) {
        return false;
      }
    } else {
      for (std::size_t off = 0; off < op.bytes; off += chunk) {
        if (!send(off, std::min(chunk, op.bytes - off), src_bytes + off)) {
          return false;
        }
      }
    }
    return ctx.finish_attempt(st->done, op.blocking,
                              rt_.deadline_after(timeout));
  });
}

void EnhancedGdrTransport::proxy_get(Ctx& ctx, const RmaOp& op,
                                     bool stage_dest) {
  // The target's proxy copies the source D->H out of the GPU heap, chunk by
  // chunk through its staging (Fig 5), and sends it to us. A reissued
  // attempt rewrites the same bytes — idempotent.
  ctx.count_protocol(Protocol::kProxyGet, op.bytes);
  const int me = ctx.my_pe();
  ProxyDaemon& proxy = rt_.proxy(rt_.cluster().placement(op.target_pe).node);
  const sim::Duration timeout =
      sim::Duration::us(rt_.tuning().proxy_timeout_us);
  if (!stage_dest && (!op.local_is_device || !rt_.selector().gdr_poor(me))) {
    // The proxy writes straight into our buffer, which registers by the
    // Verbs rule; a host buffer too small to register gets its bytes in the
    // proxy's completion send instead.
    detail::reissue_until_done(ctx, "proxy get", [&] {
      auto st = std::make_shared<ProxyGetState>();
      if (!op.local_is_device && op.bytes <= ib::kInlineBytes) {
        st->mode = ProxyGetState::Mode::kInline;
      } else {
        rt_.verbs().register_local(ctx.proc(), me, op.local, op.bytes);
      }
      proxy.post_request(ctx, 32,
                         {.kind = CtrlMsg::Kind::kProxyGet,
                          .local = op.local,    // our destination buffer
                          .remote = op.remote,  // device range on its node
                          .bytes = op.bytes,
                          .state = st});
      return ctx.finish_attempt(st->done, op.blocking,
                                rt_.deadline_after(timeout));
    });
    return;
  }
  // Our own GDR write is poor, or our buffer is not registered: the proxy
  // writes chunk k into slot k % kStagingSlots of our staging ring and
  // sends a landed notice, we copy the chunk out (H->D on the slot's
  // stream, or H->H into a host buffer) and, when chunk k + kStagingSlots
  // exists, credit the slot back once that copy landed. Our buffer is never
  // registered, and the call returns once the last chunk is copied out (nbi
  // too), so the ring is free again.
  const std::size_t chunk = rt_.tuning().pipeline_chunk;
  auto* dst = static_cast<std::byte*>(op.local);
  detail::reissue_until_done(ctx, "proxy get", [&] {
    // The proxy writes the ring outside the slot rule, so first wait until
    // every chunk an earlier call left in flight from it has landed.
    detail::StagedPipeline pipe(ctx, ctx.proc(), ctx.staging_ring());
    pipe.drain();
    auto st = std::make_shared<ProxyGetState>();
    st->mode = ProxyGetState::Mode::kStaged;
    proxy.post_request(ctx, 32,
                       {.kind = CtrlMsg::Kind::kProxyGet,
                        .local = pipe.slot(0),
                        .remote = op.remote,
                        .bytes = op.bytes,
                        .state = st});
    // Chunk j's slot is free once its copy landed; the proxy needs it back
    // only for chunk j + kStagingSlots.
    auto credit = [&](std::size_t j) {
      if ((j + kStagingSlots) * chunk >= op.bytes) return;
      proxy.post_request(ctx, 0,
                         {.kind = CtrlMsg::Kind::kProxyGetCredit,
                          .offset = j * chunk,
                          .state = st});
    };
    std::size_t k = 0;
    for (; k * chunk < op.bytes; ++k) {
      if (!ctx.wait_for_deadline([&] { return st->landed > k; },
                                 rt_.deadline_after(timeout))) {
        return false;
      }
      pipe.copy_out(k, dst + k * chunk, std::min(chunk, op.bytes - k * chunk),
                    credit);
    }
    pipe.copied_out(k, dst, credit);
    return true;
  });
}

}  // namespace gdrshmem::core
