// Per-PE OpenSHMEM context: the public API a processing element programs
// against. Mirrors the OpenSHMEM 1.x surface the paper exercises —
// symmetric allocation with the GPU-domain extension, one-sided put/get
// (blocking and non-blocking-implicit), fence/quiet, point-to-point
// synchronization, atomics (IB hardware 64-bit, masked <64-bit), and the
// collectives the applications need — plus the CUDA helpers a GPU
// application uses next to OpenSHMEM.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/collectives.hpp"
#include "core/ctrl.hpp"
#include "core/runtime.hpp"
#include "core/team.hpp"
#include "core/transport.hpp"
#include "sim/future.hpp"
#include "sim/mailbox.hpp"
#include "sim/zero_pages.hpp"

namespace gdrshmem::core {

class DeviceCtx;

/// Comparison operators for wait_until (SHMEM_CMP_*).
enum class Cmp { kEq, kNe, kGt, kGe, kLt, kLe };

class Ctx;

/// Slots in every staging ring (StagingRing), so up to kStagingSlots - 1
/// chunks are in flight while the next one is staged. The chunk
/// (Tuning::pipeline_chunk) sets how long a pipeline takes to fill and
/// drain; the ring sets the bytes in flight. Eight slots of the default
/// 64 KiB chunk hold 512 KiB, what a get whose copy-outs queue behind a
/// same-node copy needs in flight to keep the wire busy.
inline constexpr std::size_t kStagingSlots = 8;

/// How many chunks ahead of its consumer a staged pipeline keeps the copies
/// on its slots' streams: it queues the copy of chunk k + kCopyAhead once it
/// has sent chunk k, and it waits for the copy-out of chunk k (to credit or
/// drain the slot) once it has queued the copy-out of chunk k + kCopyAhead.
/// A copy (launch, hop and serialization) takes at most two chunks' wire
/// time when a chunk's wire time covers one copy launch (the chunk rule of
/// Tuning::pipeline_chunk) and PCIe outruns the wire, so in a wire-bound
/// pipeline the copy it waits for has landed. More copies ahead would only
/// hold the GPU's PCIe slot longer before they are needed.
inline constexpr std::size_t kCopyAhead = 2;
static_assert(kCopyAhead < kStagingSlots);

/// The staging ring of the staged protocols (detail::StagedPipeline):
/// kStagingSlots slots of Tuning::pipeline_chunk bytes of host memory,
/// mapped once and registered by its owner at init, never regrown, and per
/// slot a CUDA stream, the completion of the last chunk posted from it (or
/// copied into or out of it) and the closure that re-posts that chunk. The
/// records outlive the call that staged a chunk, so a later call waits for a
/// chunk an earlier one still sends. Each PE (Ctx::staging_ring) and each
/// proxy daemon owns one. Its pages are committed on first touch, so an
/// owner that never stages holds none.
class StagingRing {
 public:
  /// Map the ring and register it under endpoint `ep` (a PE, or a node's
  /// service endpoint).
  StagingRing(Runtime& rt, int ep);

  std::size_t chunk() const { return chunk_; }
  std::size_t bytes() const { return mem_.size(); }
  std::byte* data() const { return mem_.data(); }
  std::byte* slot(std::size_t s) const { return mem_.data() + s * chunk_; }
  /// The stream of every copy into or out of slot `s`: copies of different
  /// slots overlap their launches, and copies of one slot land in order.
  cudart::Stream& stream(std::size_t s) { return streams_[s]; }
  /// The completion of slot `s`'s chunk in flight (the last post from it or
  /// copy into or out of it), or null.
  const sim::CompletionPtr& comp(std::size_t s) const { return comp_[s]; }

  /// Block `worker` until slot `s` has no chunk in flight, replaying an
  /// error completion (fault plans only) under `owner`'s budget.
  void acquire(Ctx& owner, sim::Process& worker, std::size_t s);
  /// acquire() every slot, in slot order.
  void drain(Ctx& owner, sim::Process& worker);
  /// Remember `comp` as slot `s`'s chunk in flight, re-posted by `repost`.
  void record(std::size_t s, sim::CompletionPtr comp,
              std::function<sim::CompletionPtr()> repost) {
    comp_[s] = std::move(comp);
    repost_[s] = std::move(repost);
  }
  /// Block `worker` until every slot's chunk in flight has landed, never
  /// replaying one, then forget them all: a restarted proxy's first
  /// transfer must neither share a slot with nor replay the chunks of the
  /// one its killed process was serving.
  void settle(sim::Process& worker);

 private:
  sim::ZeroPages mem_;
  std::size_t chunk_;
  std::vector<cudart::Stream> streams_;
  sim::CompletionPtr comp_[kStagingSlots];
  std::function<sim::CompletionPtr()> repost_[kStagingSlots];
};

class Ctx {
 public:
  Ctx(Runtime& rt, int pe);
  ~Ctx();
  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  // ---- identity -----------------------------------------------------------
  int my_pe() const { return pe_; }
  /// The node this PE runs on.
  int node() const { return stream_.node(); }
  int n_pes() const { return rt_->num_pes(); }
  Runtime& runtime() { return *rt_; }
  sim::Process& proc();

  // ---- symmetric memory (III-A) -------------------------------------------
  /// shmalloc with the paper's Domain extension. Collective: every PE must
  /// make the same call sequence; includes an implicit barrier.
  void* shmalloc(std::size_t bytes, Domain domain = Domain::kHost);
  /// shmalloc of `count * size` zeroed bytes. Each PE zeroes its copy before
  /// the allocation's barrier, so no peer can put into the block until every
  /// copy is zero. Throws ShmemError when `count * size` overflows.
  void* shcalloc(std::size_t count, std::size_t size,
                 Domain domain = Domain::kHost);
  void shfree(void* p);
  /// Pointer to `pe`'s copy of a host-domain symmetric object, valid when
  /// `pe` is on the same node (classic shmem_ptr); nullptr otherwise.
  void* shmem_ptr(const void* sym, int pe);

  // ---- RMA ------------------------------------------------------------------
  /// Blocking put: returns when the source buffer is reusable. Remote
  /// completion is guaranteed only after quiet()/barrier_all().
  void putmem(void* dst_sym, const void* src, std::size_t n, int pe);
  /// Blocking get: returns with the data in `dst`.
  void getmem(void* dst, const void* src_sym, std::size_t n, int pe);
  /// Non-blocking-implicit variants: complete at quiet().
  void putmem_nbi(void* dst_sym, const void* src, std::size_t n, int pe);
  void getmem_nbi(void* dst, const void* src_sym, std::size_t n, int pe);

  template <typename T>
  void put(T* dst_sym, const T* src, std::size_t nelems, int pe) {
    putmem(dst_sym, src, nelems * sizeof(T), pe);
  }
  template <typename T>
  void get(T* dst, const T* src_sym, std::size_t nelems, int pe) {
    getmem(dst, src_sym, nelems * sizeof(T), pe);
  }
  template <typename T>
  void put_nbi(T* dst_sym, const T* src, std::size_t nelems, int pe) {
    putmem_nbi(dst_sym, src, nelems * sizeof(T), pe);
  }
  template <typename T>
  void get_nbi(T* dst, const T* src_sym, std::size_t nelems, int pe) {
    getmem_nbi(dst, src_sym, nelems * sizeof(T), pe);
  }
  /// Single-element transfer (shmem_p / shmem_g).
  template <typename T>
  void p(T* dst_sym, T value, int pe) {
    putmem(dst_sym, &value, sizeof(T), pe);
  }
  template <typename T>
  T g(const T* src_sym, int pe) {
    T v{};
    getmem(&v, src_sym, sizeof(T), pe);
    return v;
  }

  /// Strided put (shmem_iput): element i of `src` at stride `src_stride`
  /// lands at element i * dst_stride of the symmetric destination. Elements
  /// travel as individual transfers, as the OpenSHMEM spec implies.
  template <typename T>
  void iput(T* dst_sym, const T* src, std::ptrdiff_t dst_stride,
            std::ptrdiff_t src_stride, std::size_t nelems, int pe) {
    for (std::size_t i = 0; i < nelems; ++i) {
      putmem_nbi(dst_sym + static_cast<std::ptrdiff_t>(i) * dst_stride,
                 src + static_cast<std::ptrdiff_t>(i) * src_stride, sizeof(T), pe);
    }
  }
  /// Strided get (shmem_iget); returns with the data in place.
  template <typename T>
  void iget(T* dst, const T* src_sym, std::ptrdiff_t dst_stride,
            std::ptrdiff_t src_stride, std::size_t nelems, int pe) {
    for (std::size_t i = 0; i < nelems; ++i) {
      getmem_nbi(dst + static_cast<std::ptrdiff_t>(i) * dst_stride,
                 src_sym + static_cast<std::ptrdiff_t>(i) * src_stride, sizeof(T),
                 pe);
    }
    quiet();
  }

  /// Put-with-signal (OpenSHMEM 1.5 shmem_put_signal): deliver the payload,
  /// then set the 64-bit signal word at the target — the signal never
  /// overtakes the data, on any protocol path.
  void put_signal(void* dst_sym, const void* src, std::size_t n,
                  std::uint64_t* sig_sym, std::uint64_t signal, int pe) {
    put_sync(dst_sym, src, n, pe);
    putmem(sig_sym, &signal, sizeof(signal), pe);
  }
  /// Companion wait (shmem_signal_wait_until).
  void signal_wait_until(const std::uint64_t* sig_sym, Cmp op, std::uint64_t v) {
    wait_until(sig_sym, op, v);
  }

  /// Non-blocking probe: one progress pass, then evaluate the comparison.
  template <typename T>
  bool test(const T* sym_addr, Cmp op, T value) {
    progress();
    T cur;
    std::memcpy(&cur, sym_addr, sizeof(T));
    switch (op) {
      case Cmp::kEq: return cur == value;
      case Cmp::kNe: return cur != value;
      case Cmp::kGt: return cur > value;
      case Cmp::kGe: return cur >= value;
      case Cmp::kLt: return cur < value;
      case Cmp::kLe: return cur <= value;
    }
    return false;
  }

  /// Internal strict put: like putmem but always waits for the remote ACK,
  /// so a subsequent op on *any* path is ordered after it. The collectives
  /// use it to sequence data before flags.
  void put_sync(void* dst_sym, const void* src, std::size_t n, int pe);

  // ---- ordering ---------------------------------------------------------------
  /// Wait for remote completion of all pending ops issued by this PE. On a
  /// relaxed-ordering transport (srd) an op's completion fires only once
  /// every sprayed segment has landed, so quiet still guarantees full
  /// visibility of all prior puts at their targets.
  void quiet();
  /// Ordering fence; implemented as quiet (a legal strengthening). On rc/
  /// ud/dc the wire's FIFO would order same-target ops anyway; on srd this
  /// wait is a real ordering point — nothing else sequences two ops whose
  /// segments are independently jittered.
  void fence() { quiet(); }

  // ---- point-to-point synchronization ------------------------------------------
  template <typename T>
  void wait_until(const T* sym_addr, Cmp op, T value) {
    wait_for([&] {
      T cur;
      std::memcpy(&cur, sym_addr, sizeof(T));  // re-read delivered memory
      switch (op) {
        case Cmp::kEq: return cur == value;
        case Cmp::kNe: return cur != value;
        case Cmp::kGt: return cur > value;
        case Cmp::kGe: return cur >= value;
        case Cmp::kLt: return cur < value;
        case Cmp::kLe: return cur <= value;
      }
      return false;
    });
  }

  // ---- atomics (III-D) -----------------------------------------------------------
  /// 64-bit ops map 1:1 onto IB hardware atomics (works on host and GPU
  /// symmetric memory via GDR).
  std::int64_t atomic_fetch_add(std::int64_t* sym, std::int64_t value, int pe);
  void atomic_add(std::int64_t* sym, std::int64_t value, int pe);
  std::int64_t atomic_fetch_inc(std::int64_t* sym, int pe) {
    return atomic_fetch_add(sym, 1, pe);
  }
  void atomic_inc(std::int64_t* sym, int pe) { atomic_add(sym, 1, pe); }
  std::int64_t atomic_compare_swap(std::int64_t* sym, std::int64_t cond,
                                   std::int64_t value, int pe);
  std::int64_t atomic_swap(std::int64_t* sym, std::int64_t value, int pe);
  std::int64_t atomic_fetch(const std::int64_t* sym, int pe);
  /// 32-bit ops use the paper's mask technique on the containing 64-bit
  /// word (retry loop around hardware compare-and-swap).
  std::int32_t atomic_fetch_add32(std::int32_t* sym, std::int32_t value, int pe);
  std::int32_t atomic_compare_swap32(std::int32_t* sym, std::int32_t cond,
                                     std::int32_t value, int pe);

  // ---- collectives ----------------------------------------------------------
  /// quiet() then a sync of the world team.
  void barrier_all();

  // ---- teams (OpenSHMEM 1.5 shapes; see core/team.hpp) ----------------------
  // The collectives take the team explicitly; pass team_world() for the
  // OpenSHMEM 1.4 all-PE forms.
  /// The predefined world team (every PE, slot 0 of the sync pool).
  Team& team_world() { return world_team_; }
  /// Collective over `parent`: members with parent index start + i * stride
  /// (0 <= i < size) form a new team. Returns the new team, or nullptr on
  /// PEs that are not members. Throws when the triplet is invalid or all
  /// sync-pool slots are taken (deterministically on every member).
  Team* team_split_strided(Team& parent, int start, int stride, int size);
  /// Collective over the team; releases its sync-pool slot for reuse.
  void team_destroy(Team* team);
  /// Team-wide sync (no implicit quiet, unlike barrier_all).
  void team_sync(Team& team) { coll::sync(*this, team); }
  /// Broadcast `nbytes` from root's `src_sym` into every other member's
  /// `dst_sym` (root's dst untouched, per OpenSHMEM).
  void team_broadcast(Team& team, void* dst_sym, const void* src_sym,
                      std::size_t nbytes, int root) {
    coll::broadcast(*this, team, dst_sym, src_sym, nbytes, root);
  }
  /// Allreduce on symmetric buffers (dst may alias src).
  template <typename T>
  void team_reduce(Team& team, T* dst_sym, const T* src_sym,
                   std::size_t nreduce, ReduceOp op) {
    coll::allreduce(*this, team, dst_sym, src_sym, nreduce, op,
                    scalar_tag<T>());
  }
  /// Concatenate every member's `nbytes` block into each member's dst.
  void team_fcollect(Team& team, void* dst_sym, const void* src_sym,
                     std::size_t nbytes) {
    coll::fcollect(*this, team, dst_sym, src_sym, nbytes);
  }
  /// All-to-all personalized exchange: block j of my src lands at block
  /// my team index of member j's dst (both symmetric, n_pes * nbytes long).
  void team_alltoall(Team& team, void* dst_sym, const void* src_sym,
                     std::size_t nbytes) {
    coll::alltoall(*this, team, dst_sym, src_sym, nbytes);
  }

  // ---- collectives-engine support (used by core::coll) ----------------------
  const coll::SyncLayout& coll_layout() const { return coll_layout_; }
  /// This PE's copy of the sync pool (head of its host heap).
  std::byte* coll_pool() { return coll_pool_; }
  /// Account one finished collective: coll_bytes / coll_latency_ns
  /// histograms keyed kind x algo, plus a trace slice when tracing.
  void record_collective(CollKind kind, CollAlgo algo, std::size_t bytes,
                         sim::Time t0);

  // ---- locks (shmem_set_lock family, on IB hardware atomics) --------------
  /// Acquire a global lock (the lock word lives on PE 0's heap copy).
  void set_lock(std::int64_t* lock_sym);
  /// Release; throws if this PE does not hold it.
  void clear_lock(std::int64_t* lock_sym);
  /// Try-acquire; true on success.
  bool test_lock(std::int64_t* lock_sym);

  // ---- CUDA-side helpers ------------------------------------------------------------
  /// cudaMalloc on this PE's GPU (non-symmetric local device memory).
  void* cuda_malloc(std::size_t bytes);
  void cuda_free(void* p) { rt_->cuda().free_device(p); }
  /// cudaMemcpy (any direction) charged to this PE.
  void cuda_memcpy(void* dst, const void* src, std::size_t n);
  /// Launch a GPU kernel over `cells` with the functional update `body`.
  void launch_kernel(std::size_t cells, double per_cell_ns,
                     const std::function<void()>& body);
  /// Launch a *resident* kernel that issues OpenSHMEM operations from the
  /// device through the DeviceCtx handle (the shmemx_* surface). The kernel
  /// keeps running across communication — no kernel-split round trips. The
  /// scope models which thread group cooperates on each operation's WQE.
  void launch_kernel_device(double per_cell_ns, DeviceScope scope,
                            const std::function<void(DeviceCtx&)>& body);
  /// Busy CPU compute (no progress — the Fig 10 overlap victim).
  void compute(sim::Duration d);

  sim::Time now();

  // ---- runtime internals (used by transports / proxy) ----------------------------
  /// Run the progress engine until `pred()` holds.
  template <typename Pred>
  void wait_for(Pred&& pred) {
    while (true) {
      progress();
      if (pred()) return;
      if (!rx_.empty()) continue;  // more target-side work already queued
      proc().await(progress_note_);
    }
  }
  /// wait_for with a give-up instant: returns false if `pred` still does not
  /// hold at `deadline`. A finite deadline schedules one wake event at the
  /// deadline; Time::never() schedules nothing and is exactly wait_for.
  template <typename Pred>
  bool wait_for_deadline(Pred&& pred, sim::Time deadline) {
    if (deadline != sim::Time::never()) {
      rt_->engine().schedule_at(sim::max(deadline, now()),
                                [this] { notify_progress(); });
    }
    while (true) {
      progress();
      if (pred()) return true;
      if (now() >= deadline) return false;
      if (!rx_.empty()) continue;
      proc().await(progress_note_);
    }
  }
  void progress();
  void notify_progress() { progress_note_.notify(); }
  /// Account one protocol execution in the op_bytes/<kind>/<protocol>
  /// histogram, under the kind of the op this PE is issuing, and note the
  /// protocol for the tracer. Runtime::stats() derives the protocol table
  /// from these histograms.
  void count_protocol(Protocol proto, std::size_t bytes) {
    count_protocol(op_kind_, proto, bytes);
  }
  /// The same under an explicit kind, for work another process (the proxy
  /// serving a device command) does on this PE's behalf.
  void count_protocol(TraceEvent::Kind kind, Protocol proto, std::size_t bytes);
  Protocol last_protocol() const { return last_protocol_; }
  sim::Mailbox<CtrlMsg>& rx() { return rx_; }
  void track(sim::CompletionPtr c) {
    pending_.push_back(PendingOp{std::move(c), nullptr, 0});
  }
  /// Track a non-blocking op together with a closure that re-posts it. When
  /// fault injection surfaces the completion in error state, the next
  /// progress pass (any wait, quiet() included) calls `repost` (with capped
  /// exponential backoff) until the op lands or the replay budget is
  /// exhausted. Re-posted ops must be idempotent — every caller replays from
  /// still-valid source data.
  void track_reliable(sim::CompletionPtr c,
                      std::function<sim::CompletionPtr()> repost) {
    pending_.push_back(PendingOp{std::move(c), std::move(repost), 0});
  }
  /// Block `worker` until `comp` fires successfully; error completions
  /// (fault plans only) are re-posted via `repost` with capped exponential
  /// backoff. Returns the completion that finally succeeded. Without a
  /// fault plan this is a plain wait.
  sim::CompletionPtr await_reliable(
      sim::Process& worker, sim::CompletionPtr comp,
      const std::function<sim::CompletionPtr()>& repost);
  /// Post through `post` and await the result reliably.
  sim::CompletionPtr await_reliable(
      sim::Process& worker, const std::function<sim::CompletionPtr()>& post) {
    return await_reliable(worker, post(), post);
  }
  /// Post one hardware atomic on `pe`'s resolved 64-bit `word` and await it
  /// reliably (an error completion means the request never executed, so
  /// the identical descriptor is re-posted), counted as one atomic-hw
  /// execution. Returns the word's prior value.
  std::uint64_t hw_atomic(int pe, std::uint64_t* word, ib::Amo amo);
  /// Post a data op that a notification will follow. When the runtime
  /// needs completion ordering, `worker` blocks until the op landed
  /// (replaying errors); otherwise the wire's FIFO orders the notification
  /// behind it and the completion joins quiet()'s pending set — unless
  /// `tracked` is false. Returns the op's completion.
  sim::CompletionPtr issue(sim::Process& worker,
                           const std::function<sim::CompletionPtr()>& post,
                           bool tracked = true);
  /// Finish one attempt of an op that another process completes by firing
  /// `done`. Without a deadline (no fault plan) the attempt cannot be lost:
  /// an nbi op is tracked for quiet() and a blocking one waits. With one,
  /// every op waits — a legal strengthening of nbi — and false means the
  /// deadline passed, so the caller reissues with fresh state.
  bool finish_attempt(const sim::CompletionPtr& done, bool blocking,
                      sim::Time deadline);
  /// Backoff before software replay number `replays` (1-based).
  sim::Duration replay_backoff(int replays) const;
  /// This PE's staging ring, registered under its id at init: every staged
  /// protocol this PE runs or serves streams its chunks through it.
  StagingRing& staging_ring() { return staging_ring_; }
  /// The host pipeline's whole-message bounce (ipc-staged), at least
  /// `min_bytes` long. Mapped at first use, at least ring-sized, and free
  /// while it stays that size; a grown bounce registers pinned, at the
  /// registration cost, charged to this PE.
  std::byte* bounce(std::size_t min_bytes);
  cudart::Stream& stream() { return stream_; }
  /// Rendezvous staging (baseline), at least `bytes` long: serialized by a
  /// busy flag. A grown buffer registers pinned, at the registration cost,
  /// charged to `worker`.
  std::byte* rendezvous_staging(std::size_t bytes, sim::Process& worker);
  bool staging_busy() const { return staging_busy_; }
  void set_staging_busy(bool b) { staging_busy_ = b; }
  std::deque<CtrlMsg>& deferred_rts() { return deferred_rts_; }
  /// Eager flow control: at most one outstanding eager message per peer.
  std::map<int, sim::CompletionPtr>& eager_outstanding() {
    return eager_outstanding_;
  }
  /// Registered source-side bounce slot for eager sends to `peer`
  /// (safe to reuse once the previous eager to that peer is ACKed).
  std::byte* eager_src_slot(int peer);

 private:
  friend class Runtime;
  /// The device-initiated surface mirrors this Ctx's accounting brackets
  /// (begin_op, make_op, finish_op) so host- and device-issued operations
  /// land in the same counters, histograms, and traces.
  friend class DeviceCtx;

  /// One tracked non-blocking operation. `repost` is null for ops whose
  /// completion can only fire successfully: protocol completions fired by
  /// another process, and RDMA posted without a fault plan.
  struct PendingOp {
    sim::CompletionPtr comp;
    std::function<sim::CompletionPtr()> repost;
    int replays = 0;
  };

  /// Replay every pending op whose completion surfaced in error state
  /// (called on every progress pass; a no-op unless a completion failed).
  void recover_pending();

  RmaOp make_op(void* remote_sym, void* local, std::size_t n, int pe,
                bool blocking);

  /// The 64-bit atomic entry: `amo` maps 1:1 onto one hardware atomic.
  std::int64_t atomic64(std::int64_t* sym, ib::Amo amo, int pe);
  /// The 32-bit entry (mask technique): `amo` applies to the lane, its
  /// operands zero-extended.
  std::int32_t atomic32(std::int32_t* sym, ib::Amo amo, int pe);

  /// Grow `buf` to at least `bytes`: drop its registration, map a fresh
  /// buffer and register it pinned, charging `worker`. Returns its data.
  std::byte* grow_registered(sim::ZeroPages& buf, std::size_t bytes,
                             sim::Process& worker);

  Runtime* rt_;
  int pe_;
  sim::Process* proc_ = nullptr;  // bound by Runtime::run

  std::vector<PendingOp> pending_;
  sim::Mailbox<CtrlMsg> rx_;
  sim::Notification progress_note_;

  StagingRing staging_ring_;
  sim::ZeroPages bounce_;
  cudart::Stream stream_;
  sim::ZeroPages rendezvous_staging_;
  bool staging_busy_ = false;
  std::deque<CtrlMsg> deferred_rts_;
  std::map<int, sim::CompletionPtr> eager_outstanding_;
  std::map<int, std::vector<std::byte>> eager_src_slots_;

  /// Open a user-level put, get or atomic: key this PE's following
  /// count_protocol calls by `kind`, bump the ops/<kind> counter, and return
  /// the start instant for finish_op.
  sim::Time begin_op(TraceEvent::Kind kind);
  /// Record the just-finished blocking op's latency in the metrics registry
  /// (keyed kind x protocol) and, when enabled, the tracer.
  void finish_op(TraceEvent::Kind kind, int target_pe, std::size_t bytes,
                 sim::Time t0);

  Protocol last_protocol_ = Protocol::kCount_;
  /// Kind of the operation this PE is issuing (set by begin_op); keys the
  /// count_protocol calls made inside the op's entry point.
  TraceEvent::Kind op_kind_ = TraceEvent::Kind::kPut;
  /// ops/<kind> counters, indexed by put/get/atomic.
  std::array<Counter*, 3> op_counts_{};
  /// Cache of histogram slots so the hot path does one map lookup per
  /// (kind, protocol) pair per Ctx lifetime, not per operation.
  struct OpHists {
    Histogram* bytes = nullptr;
    Histogram* latency = nullptr;
  };
  std::array<std::array<OpHists, static_cast<std::size_t>(Protocol::kCount_)>, 3>
      op_hists_{};
  OpHists& op_hists(TraceEvent::Kind kind, Protocol proto);
  /// Histogram-slot cache for record_collective, keyed (kind, algo).
  std::map<std::pair<int, int>, OpHists> coll_hists_;

  std::uint64_t alloc_seq_ = 0;

  // ---- collectives / teams state -------------------------------------------
  coll::SyncLayout coll_layout_;
  std::byte* coll_pool_ = nullptr;  // first allocation of this PE's host heap
  Team world_team_;
  std::vector<std::unique_ptr<Team>> teams_;
  /// Sync-pool slots this PE currently uses (bit 0 = TEAM_WORLD). Per-PE
  /// state: disjoint teams may share a slot, the split allreduce over the
  /// parent guarantees no member double-books one.
  std::uint32_t team_slots_used_ = 1;
};

}  // namespace gdrshmem::core
