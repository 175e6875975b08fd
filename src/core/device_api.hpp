// Device-initiated OpenSHMEM: the GPU-side API surface (DeviceCtx) plus the
// two engines that can carry an in-kernel operation to the network.
//
//   * GPU-IB: the device thread builds the work-queue entry in GPU memory
//     and rings the HCA doorbell over BAR1 itself (NVSHMEM/IBGDA style).
//     Cheapest critical path; needs a healthy GPUDirect P2P mapping for any
//     GPU-resident leg, falling back to reverse offload when P2P is revoked.
//   * Reverse offload: the device thread writes a command descriptor over
//     PCIe into a host ring that the node's proxy daemon polls; the proxy
//     issues the operation on the GPU's behalf. Higher per-op latency, but
//     works in every P2P regime and reuses the proxy's staged pipelines for
//     large messages.
//
// Both backends consult the same core::ProtocolSelector as the host API, so
// a device-initiated operation takes the same wire protocol a host call of
// the same shape would — the two backends (and the host path) are therefore
// bit-identical in application results per seed and differ only in modeled
// cost.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "core/ctx.hpp"

namespace gdrshmem::core {

class DeviceCtx;

/// One reverse-offload command descriptor: what the GPU writes into the host
/// ring and the proxy daemon executes. Carried through the proxy mailbox as
/// CtrlMsg::state (the pointer models the descriptor's ring slot).
struct DeviceCmd {
  enum class Op { kPut, kGet, kAmo };

  Op op = Op::kPut;
  RmaOp rma;  // fully resolved, like every transport-level operation
  /// kAmo: the resolved remote 64-bit word and the read-modify-write; the
  /// prior value is written into *amo_result before `done` fires.
  std::uint64_t* amo_word = nullptr;
  ib::Amo amo;
  std::shared_ptr<std::uint64_t> amo_result;
  /// Fired by the proxy's completion notification (the CQ entry the kernel
  /// polls). Fresh per attempt — a restarted proxy can never complete a
  /// command the requester has already reissued.
  std::shared_ptr<sim::Completion> done = std::make_shared<sim::Completion>();
  int requester = -1;

  /// The op kind the command is accounted under.
  TraceEvent::Kind kind() const {
    if (op == Op::kPut) return TraceEvent::Kind::kPut;
    return op == Op::kGet ? TraceEvent::Kind::kGet : TraceEvent::Kind::kAtomic;
  }
};

/// Engine behind DeviceCtx operations. One instance per Runtime, selected by
/// RuntimeOptions::device_backend; stateless across kernels except for the
/// reverse ring occupancy.
class DeviceBackend {
 public:
  explicit DeviceBackend(Runtime& rt) : rt_(rt) {}
  virtual ~DeviceBackend() = default;
  DeviceBackend(const DeviceBackend&) = delete;
  DeviceBackend& operator=(const DeviceBackend&) = delete;

  /// Carry one put (`is_get` false) or get (`is_get` true). Accounting
  /// (stats, op kind, latency) is done by DeviceCtx; this runs the protocol.
  virtual void rma(DeviceCtx& dctx, const RmaOp& op, bool is_get) = 0;

  /// One 64-bit hardware atomic issued from the kernel; returns the word's
  /// prior value. Accounting is done by DeviceCtx, as for rma.
  virtual std::int64_t amo(DeviceCtx& dctx, std::int64_t* sym, ib::Amo amo,
                           int pe) = 0;

  /// In-kernel quiet: drain everything this PE has in flight (device ring
  /// and host-visible pending set), charging the device-side poll cost.
  void quiet(DeviceCtx& dctx);

 protected:
  /// Submit `cmd` to the local node's proxy and honor its blocking flag.
  /// Shared by the reverse backend (every op) and the GPU-IB backend (its
  /// P2P-revoked / oversized-message fallback). Applies the bounded ring
  /// (options().device_queue_depth) and, under a fault plan, per-attempt
  /// deadlines with fresh-state reissue like the host proxy protocols.
  void offload(DeviceCtx& dctx, std::shared_ptr<DeviceCmd> cmd);

  /// The descriptor write itself (PCIe MMIO into the host ring).
  void post_cmd(DeviceCtx& dctx, const std::shared_ptr<DeviceCmd>& cmd);

  Runtime& rt_;
  /// Outstanding reverse commands per PE (the ring occupancy model).
  std::map<int, std::deque<std::shared_ptr<sim::Completion>>> inflight_;
};

std::unique_ptr<DeviceBackend> make_device_backend(Runtime& rt,
                                                   DeviceBackendKind kind);

/// The GPU-side OpenSHMEM context: what a resident kernel programs against.
/// Mirrors the host Ctx RMA/atomic/sync surface; every operation charges
/// device-side issue costs (WQE build + doorbell, or descriptor write)
/// instead of the host software overhead, and runs without terminating the
/// kernel. Created by Ctx::launch_kernel_device; one per kernel invocation.
class DeviceCtx {
 public:
  DeviceCtx(Ctx& ctx, cudart::KernelContext& kernel, DeviceScope scope)
      : ctx_(ctx),
        kernel_(kernel),
        scope_(scope),
        backend_(ctx.runtime().device_backend()) {}
  DeviceCtx(const DeviceCtx&) = delete;
  DeviceCtx& operator=(const DeviceCtx&) = delete;

  // ---- identity -----------------------------------------------------------
  int my_pe() const { return ctx_.my_pe(); }
  int n_pes() const { return ctx_.n_pes(); }
  DeviceScope scope() const { return scope_; }
  Ctx& host_ctx() { return ctx_; }
  cudart::KernelContext& kernel() { return kernel_; }

  // ---- RMA ----------------------------------------------------------------
  void putmem(void* dst_sym, const void* src, std::size_t n, int pe);
  void getmem(void* dst, const void* src_sym, std::size_t n, int pe);
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
  void p(T* dst_sym, T value, int pe) {
    putmem(dst_sym, &value, sizeof(T), pe);
  }
  template <typename T>
  T g(const T* src_sym, int pe) {
    T v{};
    getmem(&v, src_sym, sizeof(T), pe);
    return v;
  }

  /// In-kernel put-with-signal: the signal word is issued only after the
  /// payload is remotely complete, so it can never overtake the data.
  void put_signal(void* dst_sym, const void* src, std::size_t n,
                  std::uint64_t* sig_sym, std::uint64_t signal, int pe) {
    putmem(dst_sym, src, n, pe);
    quiet();
    putmem(sig_sym, &signal, sizeof(signal), pe);
  }

  // ---- ordering / synchronization ----------------------------------------
  void quiet() { backend_.quiet(*this); }
  void fence() { quiet(); }
  template <typename T>
  void wait_until(const T* sym_addr, Cmp op, T value) {
    // The kernel spins on delivered memory; progress runs on this PE's
    // simulated process exactly as for a host-side wait.
    ctx_.wait_until(sym_addr, op, value);
  }
  void signal_wait_until(const std::uint64_t* sig_sym, Cmp op, std::uint64_t v) {
    wait_until(sig_sym, op, v);
  }

  // ---- atomics ------------------------------------------------------------
  std::int64_t atomic_fetch_add(std::int64_t* sym, std::int64_t value, int pe);
  void atomic_add(std::int64_t* sym, std::int64_t value, int pe) {
    (void)atomic_fetch_add(sym, value, pe);
  }
  std::int64_t atomic_compare_swap(std::int64_t* sym, std::int64_t cond,
                                   std::int64_t value, int pe);

  // ---- shmem_ptr load/store -----------------------------------------------
  /// Direct pointer to `pe`'s copy of a symmetric object, when the GPU can
  /// load/store it: the peer's host heap on the same node (classic
  /// shmem_ptr), or the peer's GPU heap on the same node while P2P is
  /// healthy (IPC mapping, opened once). nullptr otherwise.
  void* ptr(const void* sym, int pe);
  /// Register-grade store/load through a ptr()-mapped location; the access
  /// cost is part of the kernel's compute model.
  template <typename T>
  void ptr_store(T* mapped, T value, int owner_pe) {
    std::memcpy(mapped, &value, sizeof(T));
    ctx_.runtime().notify_pe(owner_pe);
  }
  template <typename T>
  T ptr_load(const T* mapped) {
    T v{};
    std::memcpy(&v, mapped, sizeof(T));
    return v;
  }

  // ---- device compute -----------------------------------------------------
  void compute(std::size_t cells) { kernel_.compute(cells); }

 private:
  friend class DeviceBackend;

  /// Shared entry: accounting bracket around backend_.rma.
  void rma_entry(void* remote_sym, void* local, std::size_t n, int pe,
                 bool is_get, bool blocking);
  /// The same around backend_.amo.
  std::int64_t amo_entry(std::int64_t* sym, ib::Amo amo, int pe);

  Ctx& ctx_;
  cudart::KernelContext& kernel_;
  DeviceScope scope_;
  DeviceBackend& backend_;
};

}  // namespace gdrshmem::core
