// The CUDA-aware baseline of [15] ("Host-based Pipeline" in Table I).
//
// Intra-node: CUDA IPC copies. One copy when the destination can be mapped
// (H-D, D-D put; D-H, D-D get), two copies through a host bounce otherwise
// (D-H put, H-D get) — the paths the paper's shmem_ptr design beats by 40%.
//
// Inter-node: only same-domain configurations (H-H, D-D). Device transfers
// stage through host memory and the *target PE performs the final copy*
// inside its progress engine — the implicit synchronization that destroys
// the overlap in Fig 10. Small messages use an eager protocol, large ones a
// rendezvous pipeline (Fig 1).
#include "core/transport_util.hpp"
#include "core/transports.hpp"

namespace gdrshmem::core {

namespace {

/// Shared state of one rendezvous transfer (put: staging at the target;
/// get: staging at the requester).
struct RndvState {
  sim::Completion cts;
  std::byte* staging = nullptr;
  std::size_t total = 0;
  std::size_t copied = 0;  // bytes whose copy out of staging is queued
  /// Per slot stream of the copying PE's ring, the last copy out of staging
  /// queued on it: once each has landed, so has every earlier one.
  sim::CompletionPtr copy_out[kStagingSlots];
  int requester = -1;
  std::shared_ptr<sim::Completion> done = std::make_shared<sim::Completion>();
};

}  // namespace

// ---------------------------------------------------------------------------
// dispatch
//
// These two functions are the guard for everything below: H-H goes to
// host-shm or direct RDMA and inter-node mixed domains throw, so the eager
// and rendezvous paths only ever move device buffers on both ends.

void HostPipelineTransport::put(Ctx& ctx, const RmaOp& op) {
  const bool src_dev = op.local_is_device;
  const bool dst_dev = op.remote_domain == Domain::kGpu;
  if (!src_dev && !dst_dev) {
    return detail::run_unstaged(
        ctx, op, op.same_node ? Protocol::kHostShm : Protocol::kDirectRdma,
        /*is_get=*/false);
  }
  if (op.same_node) return put_intra(ctx, op);
  if (src_dev != dst_dev) {
    throw UnsupportedError(
        "host-based pipeline does not support inter-node H-D/D-H "
        "configurations (see paper Section V-B)");
  }
  if (op.bytes <= rt_.tuning().eager_limit) return eager_put(ctx, op);
  return rendezvous_put(ctx, op);
}

void HostPipelineTransport::get(Ctx& ctx, const RmaOp& op) {
  const bool loc_dev = op.local_is_device;
  const bool rem_dev = op.remote_domain == Domain::kGpu;
  if (!loc_dev && !rem_dev) {
    return detail::run_unstaged(
        ctx, op, op.same_node ? Protocol::kHostShm : Protocol::kDirectRdma,
        /*is_get=*/true);
  }
  if (op.same_node) return get_intra(ctx, op);
  if (loc_dev != rem_dev) {
    throw UnsupportedError(
        "host-based pipeline does not support inter-node H-D/D-H "
        "configurations (see paper Section V-B)");
  }
  return remote_request_get(ctx, op);
}

void HostPipelineTransport::handle_ctrl(Ctx& ctx, CtrlMsg& msg,
                                        sim::Process& worker) {
  switch (msg.kind) {
    case CtrlMsg::Kind::kEagerData: return on_eager_data(ctx, msg, worker);
    case CtrlMsg::Kind::kEagerGetReq: return on_eager_get_req(ctx, msg, worker);
    case CtrlMsg::Kind::kRendezvousRts: return on_rts(ctx, msg, worker);
    case CtrlMsg::Kind::kRendezvousChunk: return on_chunk(ctx, msg, worker);
    case CtrlMsg::Kind::kRendezvousGetReq: return on_get_req(ctx, msg, worker);
    default:
      throw ShmemError("host-pipeline: unexpected control message");
  }
}

// ---------------------------------------------------------------------------
// intra-node (CUDA IPC designs of [15])

void HostPipelineTransport::put_intra(Ctx& ctx, const RmaOp& op) {
  if (op.remote_domain == Domain::kGpu) {
    // H-D or D-D put: map the destination, one IPC copy.
    return detail::run_unstaged(ctx, op, Protocol::kIpcCopy, /*is_get=*/false);
  }
  // D-H put: IPC cannot map a host buffer — bounce D->H, then shm copy.
  ctx.count_protocol(Protocol::kIpcStaged, op.bytes);
  std::byte* b = ctx.bounce(op.bytes);
  rt_.cuda().memcpy_sync(ctx.proc(), ctx.node(), b, op.local, op.bytes);
  rt_.cuda().memcpy_sync(ctx.proc(), ctx.node(), op.remote, b, op.bytes);
  rt_.notify_pe(op.target_pe);
}

void HostPipelineTransport::get_intra(Ctx& ctx, const RmaOp& op) {
  const bool loc_dev = op.local_is_device;
  const bool rem_dev = op.remote_domain == Domain::kGpu;
  if (rem_dev && loc_dev) {
    // D-D get: one IPC copy.
    return detail::run_unstaged(ctx, op, Protocol::kIpcCopy, /*is_get=*/true);
  }
  if (rem_dev) {
    // H-D get: IPC D->H into a bounce, then shm copy into the user buffer.
    ctx.count_protocol(Protocol::kIpcStaged, op.bytes);
    rt_.map_peer_gpu_heap(ctx.proc(), ctx.my_pe(), op.target_pe);
    std::byte* b = ctx.bounce(op.bytes);
    rt_.cuda().memcpy_sync(ctx.proc(), ctx.node(), b, op.remote, op.bytes);
    rt_.cuda().memcpy_sync(ctx.proc(), ctx.node(), op.local, b, op.bytes);
    return;
  }
  // D-H get: one H->D copy from the peer's host heap ("on par", Fig 7d).
  // The baseline's protocol table counts it as an IPC copy.
  detail::peer_cuda_copy(ctx, op.local, op.remote, op.bytes, op.target_pe,
                         Protocol::kIpcCopy, false, op.blocking);
}

// ---------------------------------------------------------------------------
// inter-node eager

void HostPipelineTransport::eager_put(Ctx& ctx, const RmaOp& op) {
  ctx.count_protocol(Protocol::kEager, op.bytes);
  const int me = ctx.my_pe();
  const int dst = op.target_pe;

  // Flow control: one eager message in flight per peer (one slot each).
  auto& out = ctx.eager_outstanding();
  ctx.wait_for([&] {
    auto it = out.find(dst);
    return it == out.end() || it->second->done();
  });

  // Source staging: D->H bounce, so the user buffer is immediately reusable.
  std::byte* slot_src = ctx.eager_src_slot(dst);
  rt_.cuda().memcpy_sync(ctx.proc(), ctx.node(), slot_src, op.local, op.bytes);

  void* remote_slot = rt_.eager_slot(dst, me);
  auto data_post = [this, &ctx, me, slot_src, dst, remote_slot,
                    bytes = op.bytes] {
    return rt_.ib().rdma_write(ctx.proc(), me, slot_src, dst, remote_slot,
                                  bytes);
  };
  // The payload must be in the remote eager slot before the notification
  // where completions need ordering: a tier-2 replay of the data write, or
  // an unordered (srd) delivery, could otherwise land after the target's
  // final copy read the slot. slot_src stays valid (one eager in flight per
  // peer), so a replay is exact.
  ctx.issue(ctx.proc(), data_post);

  auto done = std::make_shared<sim::Completion>();
  detail::send_ctrl(ctx, ctx.proc(), dst, 32,
                    {.kind = CtrlMsg::Kind::kEagerData,
                     .remote = op.remote,
                     .bytes = op.bytes,
                     .state = done});
  out[dst] = done;
  ctx.track(std::move(done));
}

void HostPipelineTransport::on_eager_data(Ctx& ctx, CtrlMsg& msg,
                                          sim::Process& worker) {
  // Last pipeline hop, executed by the TARGET: eager slot -> final buffer.
  rt_.cuda().memcpy_sync(worker, ctx.node(), msg.remote,
                         rt_.eager_slot(ctx.my_pe(), msg.from), msg.bytes);
  auto done = std::static_pointer_cast<sim::Completion>(msg.state);
  if (msg.is_reply) {
    // We are the get requester: data is local, complete in place.
    done->fire();
    ctx.notify_progress();
    return;
  }
  // ACK back to the source so its quiet() can retire the put.
  detail::send_done(rt_, worker, ctx.my_pe(), msg.from, std::move(done));
}

void HostPipelineTransport::on_eager_get_req(Ctx& ctx, CtrlMsg& msg,
                                             sim::Process& worker) {
  // The TARGET of a small get eager-sends the data back.
  const int requester = msg.from;
  const int me = ctx.my_pe();
  std::byte* slot_src = ctx.eager_src_slot(requester);
  rt_.cuda().memcpy_sync(worker, ctx.node(), slot_src, msg.remote, msg.bytes);
  auto data_post = [this, &worker, me, slot_src, requester,
                    remote_slot = rt_.eager_slot(requester, me),
                    bytes = msg.bytes] {
    return rt_.ib().rdma_write(worker, me, slot_src, requester, remote_slot,
                                  bytes);
  };
  // Same data-before-notification requirement as eager_put. The requester
  // awaits the reply, so the write stays out of our pending set.
  ctx.issue(worker, data_post, /*tracked=*/false);
  detail::send_ctrl(ctx, worker, requester, 32,
                    {.kind = CtrlMsg::Kind::kEagerData,
                     .remote = msg.local,  // requester's final destination
                     .bytes = msg.bytes,
                     .is_reply = true,
                     .state = msg.state});
}

// ---------------------------------------------------------------------------
// inter-node rendezvous (Fig 1 pipeline, target-side final hop)

void HostPipelineTransport::grant_cts(Ctx& ctx, CtrlMsg& rts,
                                      sim::Process& worker) {
  auto st = std::static_pointer_cast<RndvState>(rts.state);
  std::byte* staging = ctx.rendezvous_staging(rts.bytes, worker);
  ctx.set_staging_busy(true);
  Runtime& rt = rt_;
  const int requester = rts.from;
  rt_.ib().post_send(worker, ctx.my_pe(), requester, 16,
                        [st, staging, &rt, requester] {
                          st->staging = staging;
                          st->cts.fire();
                          rt.notify_pe(requester);
                        });
}

void HostPipelineTransport::on_rts(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) {
  if (ctx.staging_busy()) {
    ctx.deferred_rts().push_back(msg);
    return;
  }
  grant_cts(ctx, msg, worker);
}

void HostPipelineTransport::rendezvous_put(Ctx& ctx, const RmaOp& op) {
  ctx.count_protocol(Protocol::kRendezvous, op.bytes);
  const int me = ctx.my_pe();
  const int dst = op.target_pe;

  auto st = std::make_shared<RndvState>();
  st->total = op.bytes;
  st->requester = me;

  detail::send_ctrl(ctx, ctx.proc(), dst, 32,
                    {.kind = CtrlMsg::Kind::kRendezvousRts,
                     .remote = op.remote,
                     .bytes = op.bytes,
                     .state = st});
  ctx.wait_for([&] { return st->cts.done(); });

  // Inter-node rendezvous is D-D only (see put()), so every chunk stages
  // D->H through our staging ring.
  detail::StagedPipeline pipe(ctx, ctx.proc(), ctx.staging_ring());
  pipe.push(static_cast<const std::byte*>(op.local), op.bytes,
            [&](std::size_t off, std::size_t c, std::size_t s) {
    auto data_post = [this, &ctx, me, slot = pipe.slot(s), dst,
                      staging = st->staging + off, c] {
      return rt_.ib().rdma_write(ctx.proc(), me, slot, dst, staging, c);
    };
    // Chunk bytes must be in target staging before the chunk notification
    // (the target copies out of staging on receipt) wherever the wire's FIFO
    // can't sequence write vs. notify.
    pipe.record(s, ctx.issue(ctx.proc(), data_post), data_post);
    detail::send_ctrl(ctx, ctx.proc(), dst, 0,
                      {.kind = CtrlMsg::Kind::kRendezvousChunk,
                       .remote = op.remote,
                       .bytes = c,
                       .offset = off,
                       .state = st});
    return true;
  });
  ctx.track(st->done);
}

void HostPipelineTransport::on_chunk(Ctx& ctx, CtrlMsg& msg,
                                     sim::Process& worker) {
  // Queue the chunk's copy out of staging on the stream of the ring slot it
  // would stage through, so the copies of consecutive chunks overlap their
  // launches; the last chunk waits for every copy.
  auto st = std::static_pointer_cast<RndvState>(msg.state);
  StagingRing& ring = ctx.staging_ring();
  const std::size_t s = msg.offset / ring.chunk() % kStagingSlots;
  st->copy_out[s] = rt_.cuda()
                        .memcpy_async(
                            static_cast<std::byte*>(msg.remote) + msg.offset,
                            st->staging + msg.offset, msg.bytes, ring.stream(s))
                        ->completion();
  st->copied += msg.bytes;
  if (st->copied < st->total) return;
  for (const sim::CompletionPtr& copy : st->copy_out) {
    if (copy) copy->wait(worker);
  }

  // Transfer complete: release staging, service a deferred RTS, notify.
  ctx.set_staging_busy(false);
  if (!ctx.deferred_rts().empty()) {
    CtrlMsg next = ctx.deferred_rts().front();
    ctx.deferred_rts().pop_front();
    grant_cts(ctx, next, worker);
  }
  if (msg.is_reply) {
    // We are the get requester: done locally.
    st->done->fire();
    ctx.notify_progress();
    return;
  }
  detail::send_done(rt_, worker, ctx.my_pe(), st->requester, st->done);
}

// ---------------------------------------------------------------------------
// inter-node get (request/response — target involved on both protocols)

void HostPipelineTransport::remote_request_get(Ctx& ctx, const RmaOp& op) {
  const int me = ctx.my_pe();
  const int target = op.target_pe;

  if (op.bytes <= rt_.tuning().eager_limit) {
    ctx.count_protocol(Protocol::kEager, op.bytes);
    auto done = std::make_shared<sim::Completion>();
    detail::send_ctrl(ctx, ctx.proc(), target, 32,
                      {.kind = CtrlMsg::Kind::kEagerGetReq,
                       .local = op.local,
                       .remote = op.remote,
                       .bytes = op.bytes,
                       .state = done});
    if (op.blocking) {
      ctx.wait_for([&] { return done->done(); });
    } else {
      ctx.track(std::move(done));
    }
    return;
  }

  ctx.count_protocol(Protocol::kRendezvous, op.bytes);
  // Requester-side staging for the reverse pipeline.
  ctx.wait_for([&] { return !ctx.staging_busy(); });
  auto st = std::make_shared<RndvState>();
  st->total = op.bytes;
  st->requester = me;
  st->staging = ctx.rendezvous_staging(op.bytes, ctx.proc());
  ctx.set_staging_busy(true);

  detail::send_ctrl(ctx, ctx.proc(), target, 32,
                    {.kind = CtrlMsg::Kind::kRendezvousGetReq,
                     .local = op.local,    // final destination at the requester
                     .remote = op.remote,  // source range at the target
                     .bytes = op.bytes,
                     .state = st});
  if (op.blocking) {
    ctx.wait_for([&] { return st->done->done(); });
  } else {
    ctx.track(st->done);
  }
}

void HostPipelineTransport::on_get_req(Ctx& ctx, CtrlMsg& msg,
                                       sim::Process& worker) {
  // TARGET side of a large get: pipeline D->H then RDMA into the
  // requester's staging, flagging each chunk.
  auto st = std::static_pointer_cast<RndvState>(msg.state);
  const int me = ctx.my_pe();
  const int requester = msg.from;
  // The source is GPU-resident (inter-node gets are D-D only, see get()),
  // so every chunk stages D->H through our staging ring.
  detail::StagedPipeline pipe(ctx, worker, ctx.staging_ring());
  pipe.push(static_cast<const std::byte*>(msg.remote), msg.bytes,
            [&](std::size_t off, std::size_t c, std::size_t s) {
    auto data_post = [this, &worker, me, slot = pipe.slot(s), requester,
                      staging = st->staging + off, c] {
      return rt_.ib().rdma_write(worker, me, slot, requester, staging, c);
    };
    pipe.record(s, ctx.issue(worker, data_post), data_post);
    detail::send_ctrl(ctx, worker, requester, 0,
                      {.kind = CtrlMsg::Kind::kRendezvousChunk,
                       .remote = msg.local,  // requester's final destination
                       .bytes = c,
                       .offset = off,
                       .is_reply = true,
                       .state = st});
    return true;
  });
}

}  // namespace gdrshmem::core
