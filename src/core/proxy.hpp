// Per-node proxy daemon (Section III-C, Fig 5): progresses large-message
// transfers on behalf of every PE on its node, so the *target* PE is never
// involved — preserving true one-sidedness while working around the PCIe
// P2P bottlenecks.
//
// At startup the proxy IPC-maps the GPU heaps of all local PEs (done once,
// at heap creation, avoiding context-switch overheads — III-C). It then
// serves requests FIFO:
//   * kProxyGet: reverse pipeline — IPC cudaMemcpy D->H from the local PE's
//     GPU heap into proxy staging, then send each chunk to the requester: an
//     RDMA write into its buffer (completion fired once every chunk landed),
//     the bytes of a small host buffer in the completion send, or, for a
//     GDR-poor requester's GPU, an RDMA write into slot k % kStagingSlots of
//     its staging ring, a landed notice, and a wait for kProxyGetCredit
//     before the slot is written again.
//   * kProxyPutReq/kProxyPutFin: the requester streams chunks over RDMA
//     into the slots of the proxy's staging ring, one fin per chunk; the
//     proxy performs each chunk's final H->D IPC copy while later chunks
//     are on the wire.
//   * kDeviceCmd: a local kernel's reverse-offload command, run under the
//     protocol ProtocolSelector::select_offload names: a peer copy through
//     the IPC mappings, one posting, the reverse pipeline for a proxy-put,
//     or host-staged-get's detail::StagedPipeline::pull through the proxy
//     staging, copied out on its slots' streams, for a proxy-get. The
//     copy and the posting run here rather than through
//     detail::run_unstaged, because they run on the proxy's process and IPC
//     mappings and every posting is awaited before the kernel's completion
//     fires.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>

#include "core/ctrl.hpp"
#include "core/ctx.hpp"
#include "cudart/cudart.hpp"
#include "sim/engine.hpp"
#include "sim/future.hpp"
#include "sim/mailbox.hpp"

namespace gdrshmem::core {

/// Shared state of one proxy-put transfer, carried in the control messages.
struct ProxyPutState {
  sim::Completion cts;           // fired when the proxy grants staging
  std::byte* staging = nullptr;  // the granted staging ring
  std::uint64_t windows_done = 0;  // chunks the proxy has drained to the GPU
  std::shared_ptr<sim::Completion> done =
      std::make_shared<sim::Completion>();  // all bytes at final destination
};

/// Shared state of one proxy-get attempt, carried in the control messages.
struct ProxyGetState {
  /// How the bytes reach the requester's buffer: RDMA-written in place; in
  /// the completion send (a host buffer of at most ib::kInlineBytes, which
  /// never registers); or through the slots of its staging ring.
  enum class Mode { kDirect, kInline, kStaged } mode = Mode::kDirect;
  std::uint64_t landed = 0;  // staged: chunks the proxy announced landed
  std::shared_ptr<sim::Completion> done =
      std::make_shared<sim::Completion>();  // direct, inline: bytes delivered
};

class ProxyDaemon {
 public:
  ProxyDaemon(Runtime& rt, int node);

  /// Spawn the daemon process (call before Runtime::run starts PEs).
  void start();

  /// Fault injection: kill the daemon mid-service and schedule a restart
  /// after the fault plan's restart delay. In-flight transfers are lost;
  /// requesters detect the stall via their per-stage deadlines and reissue.
  void crash();

  int node() const { return node_; }
  int endpoint() const;
  sim::Mailbox<CtrlMsg>& mailbox() { return mb_; }
  /// Send request `msg` from `ctx`'s PE into this daemon's mailbox (an
  /// `n`-byte IB send to the service endpoint).
  void post_request(Ctx& ctx, std::size_t n, CtrlMsg msg);
  /// The staging ring every transfer served here streams through,
  /// registered under the service endpoint.
  const StagingRing& staging_ring() const { return ring_; }

  // Diagnostics.
  std::uint64_t gets_served() const { return gets_served_; }
  std::uint64_t puts_served() const { return puts_served_; }
  std::uint64_t device_cmds_served() const { return device_cmds_served_; }
  int restarts() const { return restarts_; }

 private:
  void serve(sim::Process& self);
  void do_get(sim::Process& self, CtrlMsg& msg);
  void do_put(sim::Process& self, CtrlMsg& req);
  /// Execute one reverse-offload command descriptor (device-initiated op)
  /// on behalf of a local PE's kernel, under the protocol
  /// ProtocolSelector::select_offload names (hardware atomics aside). Fires
  /// the command's completion through a send back to the requester (the CQ
  /// entry the kernel polls).
  void do_device_cmd(sim::Process& self, CtrlMsg& msg);
  /// The reverse pipeline (Fig 5) behind do_get and a device proxy-put:
  /// IPC-copy each chunk of `src` into the staging ring and RDMA-write it
  /// to `target`'s `dst`; returns once every chunk landed. `owner`'s replay
  /// budget covers the chunks. With `staged`, `dst` is the requester's
  /// staging ring: chunk k goes to its slot k % kStagingSlots, after the
  /// credit of chunk k - kStagingSlots, and is followed by a landed notice.
  /// False when a credit never came (the requester gave up on the
  /// transfer).
  bool stream_out(sim::Process& self, Ctx& owner, const std::byte* src,
                  int target, std::byte* dst, std::size_t bytes,
                  const std::shared_ptr<ProxyGetState>& staged = nullptr);
  /// The next in-order message of a transfer: the `kind` message with the
  /// transfer's `state` and `offset`, from the stash or else the mailbox;
  /// every other message waits in the stash. Under a fault plan, nullopt
  /// once nothing came for twice the requester's per-stage timeout.
  std::optional<CtrlMsg> next_of(sim::Process& self, CtrlMsg::Kind kind,
                                 const std::shared_ptr<void>& state,
                                 std::size_t offset);
  void restart();
  /// Record the staging a transfer of `bytes` served here occupies in the
  /// proxy/staging_used_bytes gauge.
  void claim_staging(std::size_t bytes);

  Runtime& rt_;
  int node_;
  StagingRing ring_;
  sim::Mailbox<CtrlMsg> mb_;
  std::deque<CtrlMsg> stash_;  // messages deferred while a transfer is active
  sim::Process* proc_ = nullptr;  // live daemon process (null while crashed)
  int restarts_ = 0;
  std::uint64_t gets_served_ = 0;
  std::uint64_t puts_served_ = 0;
  std::uint64_t device_cmds_served_ = 0;
};

}  // namespace gdrshmem::core
