#include "core/proxy.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/ctx.hpp"
#include "core/device_api.hpp"
#include "core/protocol_selector.hpp"
#include "core/runtime.hpp"
#include "core/transport_util.hpp"

namespace gdrshmem::core {

using sim::Duration;

// The staging ring registers under the node's service endpoint, so PEs can
// RDMA-write into it.
ProxyDaemon::ProxyDaemon(Runtime& rt, int node)
    : rt_(rt), node_(node), ring_(rt, rt.cluster().service_endpoint(node)) {}

int ProxyDaemon::endpoint() const { return rt_.cluster().service_endpoint(node_); }

void ProxyDaemon::claim_staging(std::size_t bytes) {
  rt_.metrics()
      .gauge("proxy/staging_used_bytes")
      .set(std::min(ring_.bytes(), bytes));
}

void ProxyDaemon::post_request(Ctx& ctx, std::size_t n, CtrlMsg msg) {
  msg.from = ctx.my_pe();
  rt_.ib().post_send(ctx.proc(), msg.from, endpoint(), n,
                     [this, msg] { mb_.post(msg); });
}

void ProxyDaemon::start() {
  proc_ = &rt_.engine().spawn(
      "proxy-node" + std::to_string(node_),
      [this](sim::Process& self) {
        // A killed predecessor's chunks may still be copied into, read into
        // or sent from the ring; the requesters reissue them, so they are
        // awaited, not replayed, before any transfer is served.
        ring_.settle(self);
        // Map every local PE's GPU heap once, at startup (III-C: "the IPC
        // mapping is performed only during the heap creation").
        for (int pe = 0; pe < rt_.num_pes(); ++pe) {
          if (rt_.cluster().placement(pe).node == node_) {
            rt_.map_peer_gpu_heap(self, endpoint(), pe);
          }
        }
        serve(self);
      },
      /*daemon=*/true);
}

void ProxyDaemon::crash() {
  if (proc_ == nullptr) return;  // already down
  rt_.faults().on_event(sim::FaultEvent::kProxyCrash, node_);
  rt_.engine().kill(*proc_);
  proc_ = nullptr;
  rt_.engine().schedule_after(
      Duration::us(rt_.faults().plan().proxy_restart_us),
      [this] { restart(); });
}

void ProxyDaemon::restart() {
  // Everything queued or half-served at crash time is lost: requesters hold
  // per-stage deadlines and reissue with fresh transfer state. The GPU heap
  // IPC mappings are re-established by start() (cached, so effectively
  // free the second time), which first lets the killed transfer's chunks
  // still in flight in the ring land.
  mb_.clear();
  stash_.clear();
  ++restarts_;
  rt_.faults().on_event(sim::FaultEvent::kProxyRestart, node_);
  start();
}

void ProxyDaemon::serve(sim::Process& self) {
  while (true) {
    CtrlMsg msg;
    if (!stash_.empty()) {
      msg = stash_.front();
      stash_.pop_front();
    } else {
      msg = mb_.receive(self);
    }
    self.delay(Duration::us(rt_.cluster().params().progress_wakeup_us));
    // Requests still waiting behind the one we just picked up (the gauge
    // keeps the peak, so bursts are visible in the report).
    rt_.metrics()
        .gauge("proxy/queue_depth")
        .set(mb_.size() + stash_.size());
    switch (msg.kind) {
      case CtrlMsg::Kind::kProxyGet:
        do_get(self, msg);
        break;
      case CtrlMsg::Kind::kProxyPutReq:
        do_put(self, msg);
        break;
      case CtrlMsg::Kind::kDeviceCmd:
        do_device_cmd(self, msg);
        break;
      case CtrlMsg::Kind::kProxyPutFin:
      case CtrlMsg::Kind::kProxyGetCredit:
        if (rt_.faults_enabled()) {
          // A chunk fin or credit for a transfer this (restarted) daemon no
          // longer knows about — the requester has already timed out and
          // reissued. Drop it.
          rt_.faults().on_event(sim::FaultEvent::kStaleCtrlDrop, node_);
          break;
        }
        [[fallthrough]];
      default:
        throw ShmemError("proxy: unexpected control message");
    }
  }
}

void ProxyDaemon::do_get(sim::Process& self, CtrlMsg& msg) {
  // Reverse pipeline GDR write (Fig 5): IPC-copy D->H out of the local PE's
  // GPU heap into proxy staging, send the chunks to the requester. The
  // owning PE never participates.
  ++gets_served_;
  const int requester = msg.from;
  auto st = std::static_pointer_cast<ProxyGetState>(msg.state);
  auto* src = static_cast<const std::byte*>(msg.remote);
  auto* dst = static_cast<std::byte*>(msg.local);
  if (st->mode == ProxyGetState::Mode::kInline) {
    // The bytes ride in the completion send, so the requester's buffer is
    // never registered.
    std::vector<std::byte> bytes(msg.bytes);
    rt_.cuda().memcpy_sync(self, node_, bytes.data(), src, msg.bytes);
    rt_.ib().post_send(
        self, endpoint(), requester, msg.bytes,
        [&rt = rt_, requester, dst, st, bytes = std::move(bytes)] {
          std::memcpy(dst, bytes.data(), bytes.size());
          st->done->fire();
          rt.notify_pe(requester);
        });
    return;
  }
  const bool staged = st->mode == ProxyGetState::Mode::kStaged;
  if (!stream_out(self, rt_.ctx(requester), src, requester, dst, msg.bytes,
                  staged ? st : nullptr)) {
    return;  // orphaned transfer: drop it, serve the next
  }
  // A staged requester is done once it copied the last chunk out.
  if (!staged) detail::send_done(rt_, self, endpoint(), requester, st->done);
}

void ProxyDaemon::do_put(sim::Process& self, CtrlMsg& req) {
  // Staged put: grant the whole staging ring to the requester, then
  // IPC-copy each chunk H->D out of its slot, chunk k out of slot
  // k % kStagingSlots, in chunk order whatever order the fins arrive in. A
  // chunk counts as drained (its slot free) once its copy landed, so
  // windows_done counts a prefix of chunks.
  ++puts_served_;
  auto st = std::static_pointer_cast<ProxyPutState>(req.state);
  const int requester = req.from;
  Runtime& rt = rt_;
  claim_staging(req.bytes);
  const std::size_t chunk = ring_.chunk();
  // The requester writes the ring outside the slot rule, so first wait
  // until every chunk an orphaned transfer left in flight in it has landed.
  detail::StagedPipeline pipe(rt_.ctx(requester), self, ring_);
  pipe.drain();
  rt_.ib().post_send(self, endpoint(), requester, 16,
                        [st, this, &rt, requester] {
                          st->staging = ring_.data();
                          st->cts.fire();
                          rt.notify_pe(requester);
                        });

  auto drained = [&](std::size_t) {
    ++st->windows_done;
    rt_.notify_pe(requester);
  };
  auto* dst = static_cast<std::byte*>(req.remote);
  std::size_t k = 0;
  for (; k * chunk < req.bytes; ++k) {
    auto m = next_of(self, CtrlMsg::Kind::kProxyPutFin, req.state, k * chunk);
    if (!m) return;  // orphaned transfer: drop it, serve the next
    pipe.copy_out(k, dst + m->offset, m->bytes, drained);
  }
  pipe.copied_out(k, dst, drained);
  detail::send_done(rt_, self, endpoint(), requester, st->done);
}

std::optional<CtrlMsg> ProxyDaemon::next_of(sim::Process& self,
                                            CtrlMsg::Kind kind,
                                            const std::shared_ptr<void>& state,
                                            std::size_t offset) {
  auto is_next = [&](const CtrlMsg& m) {
    return m.kind == kind && m.state == state && m.offset == offset;
  };
  if (auto it = std::find_if(stash_.begin(), stash_.end(), is_next);
      it != stash_.end()) {
    CtrlMsg m = *it;
    stash_.erase(it);
    return m;
  }
  while (true) {
    // Under a fault plan, a timed receive at twice the requester's per-stage
    // timeout: if the requester gave up on this transfer (it saw us crash
    // and reissued, or died itself) its messages stop coming and we must
    // not serve this orphan forever. Requesters always time out first, so
    // giving up here can never strand a live requester.
    auto m = mb_.receive_until(
        self,
        rt_.deadline_after(Duration::us(2 * rt_.tuning().proxy_timeout_us)));
    if (!m || is_next(*m)) return m;
    // Another transfer's message, or one a retransmit let overtake the one
    // before it: serve it later.
    stash_.push_back(*m);
  }
}

void ProxyDaemon::do_device_cmd(sim::Process& self, CtrlMsg& msg) {
  // Reverse offload: a local PE's kernel wrote this command descriptor into
  // our ring; execute it on the kernel's behalf. Protocol accounting runs on
  // the requester's Ctx under the kind the command names — the kernel may
  // have issued other ops since — so device-initiated ops land in the same
  // tables as host-initiated ones.
  ++device_cmds_served_;
  auto cmd = std::static_pointer_cast<DeviceCmd>(msg.state);
  const int requester = cmd->requester;
  Ctx& rctx = rt_.ctx(requester);
  const RmaOp& op = cmd->rma;
  if (cmd->op == DeviceCmd::Op::kAmo) {
    rctx.count_protocol(cmd->kind(), Protocol::kAtomicHw,
                        sizeof(std::uint64_t));
    rctx.await_reliable(self, [this, &self, &cmd] {
      return rt_.ib().atomic(self, endpoint(), cmd->rma.target_pe,
                             cmd->amo_word, cmd->amo, cmd->amo_result.get());
    });
  } else {
    const bool is_get = cmd->op == DeviceCmd::Op::kGet;
    const Protocol proto =
        rt_.selector().select_offload(op, is_get, requester);
    rctx.count_protocol(cmd->kind(), proto, op.bytes);
    auto* local = static_cast<std::byte*>(op.local);
    auto* remote = static_cast<std::byte*>(op.remote);
    switch (proto) {
      case Protocol::kIpcCopy:
      case Protocol::kHostShm:
        // Peer copy through our IPC mappings — one hop, no network.
        rt_.cuda().memcpy_sync(self, node_, is_get ? local : remote,
                               is_get ? remote : local, op.bytes);
        rt_.notify_pe(op.target_pe);
        break;
      case Protocol::kProxyPut:
        // The reverse pipeline run at the source node; the final write
        // lands directly in the target heap.
        stream_out(self, rctx, local, op.target_pe, remote, op.bytes);
        break;
      case Protocol::kProxyGet:
        // host-staged-get's pull through our staging, copied out on its
        // slots' streams.
        claim_staging(op.bytes);
        detail::StagedPipeline(rctx, self, ring_)
            .pull(endpoint(), op.target_pe, remote, local, op.bytes);
        break;
      default:
        // direct-gdr or direct-rdma: one posting from this node's HCA,
        // issued under the requester's endpoint, so the Verbs registration
        // rule and delivery match a host-initiated call.
        rctx.await_reliable(self, [this, &self, requester, &op, is_get] {
          if (is_get) {
            return rt_.ib().rdma_read(self, requester, op.local,
                                      op.target_pe, op.remote, op.bytes);
          }
          return rt_.ib().rdma_write(self, requester, op.local,
                                     op.target_pe, op.remote, op.bytes);
        });
    }
  }
  // Completion notification: the CQ entry (or ring status word) the kernel
  // polls. Fires even for commands the requester already reissued — the
  // stale `done` is simply never looked at again.
  detail::send_done(rt_, self, endpoint(), requester, cmd->done);
}

bool ProxyDaemon::stream_out(sim::Process& self, Ctx& owner,
                             const std::byte* src, int target, std::byte* dst,
                             std::size_t bytes,
                             const std::shared_ptr<ProxyGetState>& staged) {
  claim_staging(bytes);
  const std::size_t chunk = ring_.chunk();
  detail::StagedPipeline pipe(owner, self, ring_);
  const bool sent = pipe.push(src, bytes, [&](std::size_t off, std::size_t c,
                                              std::size_t s) {
    auto post = [this, &self, slot = pipe.slot(s), target,
                 to = staged ? dst + s * chunk : dst + off, c] {
      return rt_.ib().rdma_write(self, endpoint(), slot, target, to, c);
    };
    if (!staged) {
      pipe.post(s, post);
      return true;
    }
    // The requester's slot s is free once it credited chunk
    // k - kStagingSlots back, and the landed notice must not overtake the
    // chunk (srd, a replay).
    const std::size_t ring = kStagingSlots * chunk;
    if (off >= ring &&
        !next_of(self, CtrlMsg::Kind::kProxyGetCredit, staged, off - ring)) {
      return false;
    }
    pipe.record(s, owner.issue(self, post, /*tracked=*/false), post);
    rt_.ib().post_send(self, endpoint(), target, 0,
                       [&rt = rt_, target, staged] {
                         ++staged->landed;
                         rt.notify_pe(target);
                       });
    return true;
  });
  if (!sent) return false;
  // The caller's completion must not fire before every chunk landed at its
  // final destination, whatever order the wire completes them in.
  pipe.drain();
  return true;
}

}  // namespace gdrshmem::core
