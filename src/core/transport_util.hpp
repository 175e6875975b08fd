// Internal helpers shared by the transport implementations.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "core/ctx.hpp"

namespace gdrshmem::core::detail {

/// Resolve a symmetric 64-bit word for hardware atomics.
inline std::uint64_t* resolve_word(Runtime& rt, int owner_pe, int target_pe,
                                   const void* sym) {
  Domain dom;
  void* remote =
      rt.translate(sym, owner_pe, target_pe, sizeof(std::uint64_t), &dom);
  if (reinterpret_cast<std::uintptr_t>(remote) % 8 != 0) {
    throw ShmemError("atomic target must be 8-byte aligned");
  }
  return static_cast<std::uint64_t*>(remote);
}

/// Send `msg` from `ctx`'s PE to PE `to` as an `n`-byte IB send posted by
/// `worker`. On delivery it lands in the target's rx() mailbox and wakes the
/// target's progress engine, which does the work the message asks for.
inline void send_ctrl(Ctx& ctx, sim::Process& worker, int to, std::size_t n,
                      CtrlMsg msg) {
  Runtime& rt = ctx.runtime();
  msg.from = ctx.my_pe();
  rt.ib().post_send(worker, msg.from, to, n, [&rt, to, msg] {
    rt.ctx(to).rx().post(msg);
    rt.ctx(to).notify_progress();
  });
}

/// Fire `done` at requester PE `to` through a zero-byte send from endpoint
/// `from` posted by `worker` — the ACK or CQ entry the requester waits on.
inline void send_done(Runtime& rt, sim::Process& worker, int from, int to,
                      std::shared_ptr<sim::Completion> done) {
  rt.ib().post_send(worker, from, to, 0, [&rt, to, done = std::move(done)] {
    done->fire();
    rt.notify_pe(to);
  });
}

/// Post an RDMA op that reads or writes the user buffer in place: a
/// blocking op waits for it reliably, an nbi op hands `post` to quiet() as
/// its repost closure (the spec pins the buffer until then). Either way an
/// error completion under a fault plan replays the same descriptor.
inline void post_rma(Ctx& ctx, bool blocking,
                     std::function<sim::CompletionPtr()> post) {
  sim::CompletionPtr comp = post();
  if (blocking) {
    ctx.await_reliable(ctx.proc(), std::move(comp), post);
  } else {
    ctx.track_reliable(std::move(comp), std::move(post));
  }
}

/// Put over (possibly loopback) RDMA. A host source of at most
/// ib::kInlineBytes is sent inline: the post closure keeps its own copy of
/// the payload, so even a blocking put returns right after the post and a
/// replay resends the bytes the caller passed. Everything else goes through
/// post_rma.
inline void rdma_put(Ctx& ctx, const RmaOp& op, Protocol proto) {
  Runtime& rt = ctx.runtime();
  ctx.count_protocol(proto, op.bytes);
  if (!op.local_is_device && op.bytes <= ib::kInlineBytes) {
    auto payload = std::make_shared<std::byte[]>(op.bytes);
    std::memcpy(payload.get(), op.local, op.bytes);
    auto post = [&ctx, &rt, op, payload] {
      return rt.ib().rdma_write(ctx.proc(), ctx.my_pe(), payload.get(),
                                op.target_pe, op.remote, op.bytes);
    };
    ctx.track_reliable(post(), post);
    return;
  }
  post_rma(ctx, op.blocking, [&ctx, &rt, op] {
    return rt.ib().rdma_write(ctx.proc(), ctx.my_pe(), op.local, op.target_pe,
                              op.remote, op.bytes);
  });
}

/// Get over (possibly loopback) RDMA read. Reads are idempotent, so a
/// replay simply re-posts the same descriptor.
inline void rdma_get(Ctx& ctx, const RmaOp& op, Protocol proto) {
  Runtime& rt = ctx.runtime();
  ctx.count_protocol(proto, op.bytes);
  post_rma(ctx, op.blocking, [&ctx, &rt, op] {
    return rt.ib().rdma_read(ctx.proc(), ctx.my_pe(), op.local, op.target_pe,
                             op.remote, op.bytes);
  });
}

/// A staged protocol's use of a staging ring (StagingRing): the host
/// rendezvous (Fig 1), pipeline-GDR-write (Fig 4), the proxy's reverse
/// pipeline (Fig 5) and proxy-put's bounce push chunks out (push());
/// host-staged-get and the proxy's staged device get pull them in (pull());
/// the staged proxy-get has the proxy write into it. Chunk k stages through
/// slot k % kStagingSlots while up to kStagingSlots - 1 earlier chunks are
/// on the wire, and every copy between a slot and a GPU runs on that slot's
/// stream. The ring keeps each slot's last chunk in flight, so an error
/// completion is replayed while the slot still holds the chunk's bytes, and
/// a later call waits for a chunk this one left in flight. Without a fault
/// plan every wait here is a plain wait.
class StagedPipeline {
 public:
  using Post = std::function<sim::CompletionPtr()>;

  /// `owner` is the PE whose replay budget covers the chunks; `worker` is
  /// the process that stages and posts them (the PE itself or a proxy
  /// daemon); `ring` is the staging ring of that PE or daemon.
  StagedPipeline(Ctx& owner, sim::Process& worker, StagingRing& ring)
      : owner_(owner), worker_(worker), ring_(ring), chunk_(ring.chunk()) {}

  StagedPipeline(const StagedPipeline&) = delete;
  StagedPipeline& operator=(const StagedPipeline&) = delete;

  std::byte* slot(std::size_t s) const { return ring_.slot(s); }

  /// Wait until the chunk last posted from slot `s` (or copied into or out
  /// of it) has landed, so the slot can be overwritten.
  void acquire(std::size_t s) { ring_.acquire(owner_, worker_, s); }

  /// Remember `comp` as slot `s`'s outstanding chunk, re-posted by `repost`.
  void record(std::size_t s, sim::CompletionPtr comp, Post repost) {
    ring_.record(s, std::move(comp), std::move(repost));
  }

  /// Post the chunk staged in slot `s` and remember it.
  void post(std::size_t s, Post post) {
    sim::CompletionPtr comp = post();
    record(s, std::move(comp), std::move(post));
  }

  /// Copy `n` bytes from `src` to `dst` into or out of slot `s`. A copy to
  /// or from a GPU is queued on the slot's stream and remembered as the
  /// slot's outstanding chunk; a host-to-host one is a CPU copy that blocks
  /// the worker, as a cudaMemcpyAsync between pageable host buffers does.
  void copy(std::size_t s, std::byte* dst, const std::byte* src,
            std::size_t n) {
    cudart::CudaRuntime& cuda = owner_.runtime().cuda();
    if (!on_gpu(dst) && !on_gpu(src)) {
      cuda.memcpy_sync(worker_, ring_.stream(s).node(), dst, src, n);
      return;
    }
    record(s, cuda.memcpy_async(dst, src, n, ring_.stream(s))->completion(),
           nullptr);
  }

  /// Push `bytes` from `src` through the ring: chunk k is copied into slot
  /// k % kStagingSlots, and once the copy of chunk k + lag is queued (or the
  /// last one is), chunk k's copy is awaited and `send(offset, length,
  /// slot)` sends the chunk from the slot and records what it posted. The
  /// lag is kCopyAhead - 1 for copies on the slots' streams, so each copy's
  /// launch overlaps the copies and the wire of the chunks before it, and 0
  /// for CPU copies, which run just before their chunk is sent. Returns
  /// false as soon as `send` does (its transfer gave up), true once every
  /// chunk was sent.
  template <typename Send>
  bool push(const std::byte* src, std::size_t bytes, Send&& send) {
    const std::size_t lag = on_gpu(src) ? kCopyAhead - 1 : 0;
    const std::size_t chunks = (bytes + chunk_ - 1) / chunk_;
    for (std::size_t k = 0; k < chunks + lag; ++k) {
      if (k < chunks) {
        const std::size_t s = k % kStagingSlots;
        acquire(s);
        copy(s, slot(s), src + k * chunk_, length(k, bytes));
      }
      if (k < lag) continue;
      const std::size_t s = (k - lag) % kStagingSlots;
      acquire(s);
      if (!send((k - lag) * chunk_, length(k - lag, bytes), s)) return false;
    }
    return true;
  }

  /// Copy chunk `k` (`n` bytes) out of its slot into `dst`, then, once the
  /// copy-out of chunk k - lag has landed, call `landed(k - lag)`, so the
  /// caller credits or counts each chunk's slot in chunk order (out_lag).
  /// copied_out() awaits the chunks still lagging behind the last one.
  template <typename Landed>
  void copy_out(std::size_t k, std::byte* dst, std::size_t n,
                Landed&& landed) {
    const std::size_t lag = out_lag(dst);
    copy(k % kStagingSlots, dst, slot(k % kStagingSlots), n);
    if (k < lag) return;
    acquire((k - lag) % kStagingSlots);
    landed(k - lag);
  }

  /// After copy_out() of chunks [0, chunks) into `dst`: await the copy-outs
  /// still lagging and call `landed` for each, in chunk order.
  template <typename Landed>
  void copied_out(std::size_t chunks, const std::byte* dst, Landed&& landed) {
    const std::size_t lag = out_lag(dst);
    for (std::size_t k = chunks - std::min(chunks, lag); k < chunks; ++k) {
      acquire(k % kStagingSlots);
      landed(k);
    }
  }

  /// Pull `bytes` from `target`'s `src` into `dst`: each RDMA read from
  /// endpoint `ep` fills two adjacent slots (a read replays in place), so
  /// the half-duplex port pays its per-read gap once per two chunks, except
  /// that the last two chunks are read one by one, so one copy-out follows
  /// the last read. A read guards its first slot. Each chunk is then copied
  /// out (copy()), and a copy on its slot's stream guards the slot. Each
  /// read is posted before the one before it is awaited and copied out, so
  /// consecutive reads overlap their round trips and the copies of one read
  /// overlap the next. Returns once every chunk is in `dst`.
  void pull(int ep, int target, const std::byte* src, std::byte* dst,
            std::size_t bytes) {
    static_assert(kStagingSlots % 2 == 0);
    Runtime& rt = owner_.runtime();
    // Await the read of [off, off + len), then copy its chunks out.
    auto copy_read = [&](std::size_t off, std::size_t len) {
      acquire(off / chunk_ % kStagingSlots);
      for (std::size_t at = off; at < off + len; at += chunk_) {
        const std::size_t s = at / chunk_ % kStagingSlots;
        copy(s, dst + at, slot(s), std::min(chunk_, off + len - at));
      }
    };
    std::size_t prev = 0;
    std::size_t prev_len = 0;
    for (std::size_t off = 0, len = 0; off < bytes; off += len) {
      // Pairs start at even chunks, so a pair never wraps the ring.
      len = std::min(bytes - off > 2 * chunk_ ? 2 * chunk_ : chunk_,
                     bytes - off);
      const std::size_t s = off / chunk_ % kStagingSlots;
      acquire(s);
      if (len > chunk_) acquire(s + 1);
      post(s, [this, &rt, ep, to = slot(s), target, from = src + off, len] {
        return rt.ib().rdma_read(worker_, ep, to, target, from, len);
      });
      if (prev_len > 0) copy_read(prev, prev_len);
      prev = off;
      prev_len = len;
    }
    if (prev_len > 0) copy_read(prev, prev_len);
    drain();
  }

  /// Wait for every slot's outstanding chunk, in slot order.
  void drain() { ring_.drain(owner_, worker_); }

  /// Let the operation return before remote completion: the outstanding
  /// chunks join the owner's quiet() set. Under a fault plan they are
  /// drained first: quiet() cannot replay them, because a later call may
  /// have reused their slots by then.
  void finish_async() {
    if (owner_.runtime().faults_enabled()) drain();
    for (std::size_t s = 0; s < kStagingSlots; ++s) {
      if (const sim::CompletionPtr& comp = ring_.comp(s)) owner_.track(comp);
    }
  }

 private:
  bool on_gpu(const void* p) const {
    return owner_.runtime().cuda().attributes(p).space ==
           cudart::MemSpace::kDevice;
  }

  /// Chunks a copy-out into `dst` keeps in flight past the one it awaits:
  /// kCopyAhead on the slots' streams, none for CPU copies.
  std::size_t out_lag(const void* dst) const {
    return on_gpu(dst) ? kCopyAhead : 0;
  }

  /// Bytes of chunk `k` of a `bytes`-long message.
  std::size_t length(std::size_t k, std::size_t bytes) const {
    return std::min(chunk_, bytes - k * chunk_);
  }

  Ctx& owner_;
  sim::Process& worker_;
  StagingRing& ring_;
  const std::size_t chunk_;
};

/// Run `attempt` until it reports success, reissuing an attempt that timed
/// out (the proxy crashed holding it) up to the tuned budget. Without a
/// fault plan attempts wait against Time::never() and cannot time out, so
/// `attempt` runs exactly once.
template <typename Attempt>
void reissue_until_done(Ctx& ctx, const char* what, Attempt&& attempt) {
  Runtime& rt = ctx.runtime();
  for (int reissues = 0; !attempt();) {
    if (++reissues > rt.tuning().proxy_max_reissues) {
      throw ShmemError(std::string(what) + ": reissue budget exhausted");
    }
    rt.faults().on_event(sim::FaultEvent::kProxyReissue, ctx.my_pe());
  }
}

/// One-copy cudaMemcpy touching a peer's memory: CUDA IPC when the peer
/// buffer is on a GPU (one-time mapping cost), plain access to the peer's
/// host heap otherwise (the Fig 3 shmem_ptr design). Executed and charged
/// entirely on the calling PE — true one-sided. An nbi copy whose
/// serialization outlasts a copy launch is queued on the PE's stream and
/// joins quiet()'s set: the call returns at once, and the bytes move when
/// the copy ends, which wakes the issuer and the peer. A shorter nbi copy
/// stays synchronous (DESIGN §5i).
inline void peer_cuda_copy(Ctx& ctx, void* dst, const void* src, std::size_t n,
                           int peer, Protocol proto, bool peer_mem_is_device,
                           bool blocking) {
  Runtime& rt = ctx.runtime();
  cudart::CudaRuntime& cuda = rt.cuda();
  ctx.count_protocol(proto, n);
  if (peer_mem_is_device) rt.map_peer_gpu_heap(ctx.proc(), ctx.my_pe(), peer);
  const sim::Duration launch =
      sim::Duration::us(rt.cluster().params().cuda_copy_launch_us);
  if (!blocking &&
      cuda.copy_path(cuda.attributes(dst), cuda.attributes(src), ctx.node())
              .serialization(n) > launch) {
    sim::CompletionPtr done =
        cuda.memcpy_async(dst, src, n, ctx.stream())->completion();
    done->subscribe([&rt, me = ctx.my_pe(), peer] {
      rt.notify_pe(me);
      rt.notify_pe(peer);
    });
    ctx.track(std::move(done));
    return;
  }
  cuda.memcpy_sync(ctx.proc(), ctx.node(), dst, src, n);
  rt.notify_pe(peer);
}

/// Run a one-step protocol: a put (`is_get` false) or get that the issuing
/// PE completes on its own process with one host copy (host-shm), one
/// possibly-loopback RDMA op (loopback-gdr, direct-rdma, direct-gdr) or one
/// cudaMemcpy touching the peer's memory (ipc-copy into or out of its GPU
/// heap, shmem-ptr-copy into or out of its host heap; a long nbi one on
/// its stream). The host transports and the GPU-IB device backend run
/// every such op through here.
inline void run_unstaged(Ctx& ctx, const RmaOp& op, Protocol proto,
                         bool is_get) {
  void* dst = is_get ? op.local : op.remote;
  const void* src = is_get ? op.remote : op.local;
  switch (proto) {
    case Protocol::kHostShm:
      ctx.count_protocol(proto, op.bytes);
      ctx.runtime().cuda().memcpy_sync(ctx.proc(), ctx.node(), dst, src,
                                       op.bytes);
      if (!is_get) ctx.runtime().notify_pe(op.target_pe);
      return;
    case Protocol::kLoopbackGdr:
    case Protocol::kDirectRdma:
    case Protocol::kDirectGdr:
      return is_get ? rdma_get(ctx, op, proto) : rdma_put(ctx, op, proto);
    case Protocol::kIpcCopy:
    case Protocol::kShmemPtrCopy:
      return peer_cuda_copy(ctx, dst, src, op.bytes, op.target_pe, proto,
                            proto == Protocol::kIpcCopy, op.blocking);
    default:
      throw ShmemError(std::string("not a one-step protocol: ") +
                       to_string(proto));
  }
}

}  // namespace gdrshmem::core::detail
