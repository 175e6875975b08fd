// InfiniBand verbs model: memory registration (with a registration cache, as
// in MVAPICH2-X), one-sided RDMA read/write — including the GPUDirect RDMA
// legs when a buffer lives in GPU memory — send-style control messages, and
// 64-bit hardware atomics (fetch-and-add, compare-and-swap).
//
// Functional semantics: bytes land in the destination buffer exactly at the
// simulated completion instant; a local completion (CQ entry) fires after
// the hardware ACK returns. Remote buffers must be registered by their
// owning PE or the operation faults, mirroring rkey protection.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <stdexcept>

#include "cudart/cudart.hpp"
#include "hw/topology.hpp"
#include "sim/fault.hpp"
#include "sim/future.hpp"

namespace gdrshmem::ib {

class IbError : public std::runtime_error {
 public:
  explicit IbError(const std::string& what) : std::runtime_error(what) {}
};

/// A local host range of at most this size never touches the registration
/// cache: a write is posted inline, a read lands in the HCA's bounce buffer.
inline constexpr std::size_t kInlineBytes = 128;

/// Tracks, per PE, which address ranges are registered with the HCA, and
/// makes re-registration free (MVAPICH2-X registration cache). Bounded:
/// dynamically registered ranges are kept in per-PE LRU order and evicted
/// beyond SystemParams::mr_cache_capacity; init-time registrations (heaps,
/// eager slots, staging pools — anything a remote rkey check must always
/// pass for) are pinned and never counted against the bound.
class RegistrationCache {
 public:
  RegistrationCache(sim::Engine& eng, const hw::SystemParams& params)
      : eng_(eng), params_(params), capacity_(params.mr_cache_capacity) {}

  /// Ensure [addr, addr+len) is registered for `pe`, charging the calling
  /// process the registration cost on a miss (a re-registration after an
  /// LRU eviction pays it again). A `pinned` range is never evicted: a
  /// runtime-owned staging buffer regrown after init registers this way.
  void get_or_register(sim::Process& proc, int pe, const void* addr,
                       std::size_t len, bool pinned = false);
  /// Register [addr, addr+len) for `pe` on the PE's registration helper
  /// instead of the calling process: the helper registers one range at a
  /// time, in issue order, at the cost get_or_register charges, and the
  /// range enters the cache (LRU, grow and eviction as a miss there) when
  /// its registration ends. Counts a miss when issued; a range inside one
  /// already on the helper is not registered twice.
  void register_async(int pe, const void* addr, std::size_t len);
  /// Register without a calling process, charging nothing: init-time
  /// buffers (whose registration cost the caller charges) and buffers the
  /// caller prices like them, such as a PE's first ring-sized bounce.
  /// Pinned: never evicted.
  void register_at_init(int pe, const void* addr, std::size_t len);
  /// Deregister the range that starts at `addr` (pinned or dynamic), as a
  /// free hook does before its owner reallocates it. No-op if none does.
  void release(int pe, const void* addr);
  bool covered(int pe, const void* addr, std::size_t len) const;

  /// Dynamic (unpinned) ranges retained per PE; 0 = unbounded.
  void set_capacity(std::size_t cap) { capacity_ = cap; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Misses that extended an existing registration at the same base address
  /// in place (the entry keeps its pinned status and its single LRU node).
  std::uint64_t grows() const { return grows_; }

 private:
  struct Entry {
    std::size_t len = 0;
    bool pinned = false;
    // Position in the owning PE's LRU list (dynamic entries only).
    std::list<std::uintptr_t>::iterator lru_pos;
  };
  struct PeRanges {
    // range start -> entry. Ranges may nest: a miss registers its whole
    // range even when a shorter entry inside it exists.
    std::map<std::uintptr_t, Entry> ranges;
    // Longest range ever entered; bounds find()'s walk below the nearest
    // base.
    std::size_t max_len = 0;
    // Dynamic entries, least recently used first.
    std::list<std::uintptr_t> lru;
    // Ranges on the registration helper, in issue order (so completion
    // order), and when the helper is free again.
    std::deque<std::pair<std::uintptr_t, std::size_t>> registering;
    sim::Time helper_free;
  };

  /// A registered range containing [addr, addr+len), or nullptr: the
  /// nearest one at or below addr if it covers, else any enclosing one.
  Entry* find(int pe, const void* addr, std::size_t len);
  const Entry* find(int pe, const void* addr, std::size_t len) const;
  /// A use of `e`: a dynamic entry moves to the most-recent end of the LRU
  /// order, or leaves it when `pin` pins it.
  void touch(PeRanges& pr, Entry& e, bool pin);
  /// What registering `len` bytes costs (SystemParams::mr_register_*).
  sim::Duration registration_cost(std::size_t len) const;
  /// Enter a registered range that `find` does not cover: extend an entry
  /// at the same base in place (a grow), else add one, evicting the least
  /// recently used dynamic entries beyond the capacity.
  void insert(PeRanges& pr, const void* addr, std::size_t len, bool pinned);

  sim::Engine& eng_;
  const hw::SystemParams& params_;
  std::size_t capacity_;
  std::map<int, PeRanges> ranges_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t grows_ = 0;
};

/// Rail override for multi-HCA striping: which HCA index each side's leg
/// uses. -1 keeps the PE's placement default.
struct Rail {
  int src_hca = -1;
  int dst_hca = -1;
};

/// One 64-bit hardware read-modify-write, as the HCA executes it: a
/// fetch-and-add of `operand`, or a compare-and-swap that stores `swap` when
/// the word equals `operand`.
struct Amo {
  enum class Kind { kFetchAdd, kCompareSwap };
  Kind kind = Kind::kFetchAdd;
  std::uint64_t operand = 0;
  std::uint64_t swap = 0;

  static Amo fetch_add(std::uint64_t add) { return {Kind::kFetchAdd, add, 0}; }
  static Amo compare_swap(std::uint64_t compare, std::uint64_t desired) {
    return {Kind::kCompareSwap, compare, desired};
  }
  /// Apply to `word`; returns its prior value.
  std::uint64_t apply(std::uint64_t& word) const {
    std::uint64_t old = word;
    if (kind == Kind::kFetchAdd) {
      word += operand;
    } else if (word == operand) {
      word = swap;
    }
    return old;
  }
};

/// Per-segment scheduling extras for relaxed-ordering transports. `jitter`
/// defers the segment's data arrival past the path's deterministic schedule
/// (the ACK tracks the jittered instant); `on_delivered` runs in event
/// context immediately after the segment's bytes land, before the generic
/// delivery hook fires. The defaults are inert — the legacy schedule runs
/// verbatim, event for event.
struct SegmentOpts {
  sim::Duration jitter{};
  std::function<void()> on_delivered;
};

/// The verbs provider shared by all PEs of a simulated job.
class Verbs {
 public:
  Verbs(sim::Engine& eng, hw::Cluster& cluster, cudart::CudaRuntime& cuda);
  Verbs(const Verbs&) = delete;
  Verbs& operator=(const Verbs&) = delete;

  RegistrationCache& reg_cache() { return reg_cache_; }
  hw::Cluster& cluster() { return cluster_; }

  /// Invoked (in event context) with the destination endpoint id whenever
  /// data or an atomic lands in that endpoint's memory. The runtime uses it
  /// to wake PEs blocked in shmem_wait_until / progress loops.
  void set_delivery_hook(std::function<void(int endpoint)> hook) {
    delivery_hook_ = std::move(hook);
  }

  /// Attach a fault injector (owned by the runtime). When the injector's
  /// plan is non-empty, every inter-node attempt consults it and failed
  /// attempts are retransmitted transparently up to SystemParams::
  /// ib_retry_count times (exponentially spaced, the RC-QP retry envelope)
  /// before the returned completion fires in *error* state. With no
  /// injector — or an empty plan — the legacy single-shot scheduling runs
  /// verbatim, preserving bit-identical event order.
  void set_fault_injector(sim::FaultInjector* inj) { faults_ = inj; }

  /// One-sided RDMA write of `n` bytes from `src_pe`-local `lbuf` into
  /// `dst_pe`'s `rbuf`. The caller is charged the post overhead; the
  /// returned completion fires when the hardware ACK lands (the source
  /// buffer is then reusable and the data is visible at the target).
  /// Works for any host/GPU buffer combination; GPU legs go through GDR.
  /// `rail` pins each side's HCA for multi-rail striping (placement default
  /// otherwise); `seg` adds relaxed-ordering per-segment scheduling.
  sim::CompletionPtr rdma_write(sim::Process& proc, int src_pe,
                                const void* lbuf, int dst_pe, void* rbuf,
                                std::size_t n, Rail rail = {},
                                SegmentOpts seg = {});

  /// One-sided RDMA read of `n` bytes from `dst_pe`'s `rbuf` into
  /// `src_pe`-local `lbuf`. Completion fires when the data is in `lbuf`.
  sim::CompletionPtr rdma_read(sim::Process& proc, int src_pe, void* lbuf,
                               int dst_pe, const void* rbuf, std::size_t n,
                               Rail rail = {}, SegmentOpts seg = {});

  /// Two-sided send of a control message: `deliver` runs at the target at
  /// arrival time (the caller wires it to a mailbox). `n` models payload
  /// size (headers are free).
  sim::CompletionPtr post_send(sim::Process& proc, int src_pe, int dst_pe,
                               std::size_t n, std::function<void()> deliver);

  /// IB hardware atomic `amo` on a remote 64-bit word. `*result` receives
  /// the prior value when the completion fires. GDR path if the word is in
  /// GPU memory.
  sim::CompletionPtr atomic(sim::Process& proc, int src_pe, int dst_pe,
                            std::uint64_t* raddr, Amo amo,
                            std::uint64_t* result);

  /// Register an op's local range unless it is host memory of at most
  /// kInlineBytes — the one registration rule for every op that posts.
  void register_local(sim::Process& proc, int pe, const void* buf, std::size_t n);

  // Diagnostics.
  std::uint64_t ops_posted() const { return ops_posted_; }

 private:
  /// The HCA-side DMA leg for a buffer: host DMA or a GDR P2P access.
  /// `hca` = -1 uses the PE's placement HCA; a rail override selects the
  /// node's other adapter.
  sim::Path local_leg(int pe, const void* buf, hw::P2pDir dir, int hca = -1);
  /// Charge post overhead + validate remote registration.
  void pre_post(sim::Process& proc, int dst_pe, const void* raddr, std::size_t n);
  sim::Duration ack_latency(int src_pe, int dst_pe) const;

  /// Transmit one op: `transmit(comp)` performs its successful scheduling
  /// from the instant it runs. With no fault plan it runs now (nothing is
  /// allocated for it); under a plan every attempt goes through
  /// run_attempts. Returns the op's completion.
  template <typename Transmit>
  sim::CompletionPtr submit(int src_pe, int dst_pe, bool atomic, bool unlimited,
                            Transmit transmit);

  // ---- tier-1 retransmit machinery (fault plans only) ---------------------
  bool fault_active() const { return faults_ && faults_->enabled(); }
  /// Retransmit timeout before attempt `attempt + 1` (IB-style doubling,
  /// capped).
  sim::Duration retry_delay(int attempt) const;
  /// True if this attempt between the endpoints' nodes fails (flap window or
  /// random completion error). Loopback never consults the injector.
  bool attempt_fails(int src_pe, int dst_pe, bool atomic);
  /// Drive one attempt of `transmit`; on failure, reschedule after the
  /// retransmit timeout, and after ib_retry_count retries (unless
  /// `unlimited`) surface an error completion at the source.
  void run_attempts(int src_pe, int dst_pe, bool atomic, bool unlimited,
                    int attempt, sim::CompletionPtr comp,
                    std::shared_ptr<std::function<void()>> transmit);

  void delivered(int endpoint) {
    if (delivery_hook_) delivery_hook_(endpoint);
  }

  sim::Engine& eng_;
  hw::Cluster& cluster_;
  cudart::CudaRuntime& cuda_;
  RegistrationCache reg_cache_;
  std::function<void(int)> delivery_hook_;
  sim::FaultInjector* faults_ = nullptr;
  std::uint64_t ops_posted_ = 0;
};

}  // namespace gdrshmem::ib
