// CUDA-like runtime over the simulated cluster.
//
// Mirrors the slice of CUDA the paper's runtime depends on:
//   * device allocations with real backing store (bytes actually move),
//   * UVA: any pointer can be classified host vs device (PointerRegistry),
//   * cudaMemcpy in all directions with copy-engine timing and PCIe
//     contention, sync and stream-ordered async,
//   * CUDA IPC: a process can map another process's device allocation on the
//     same node and copy to/from it,
//   * a kernel-launch cost hook used by the application kernels.
//
// All simulated PEs live in one OS process, so an "IPC mapping" is just the
// original pointer — but the open cost is charged and cross-node opens are
// rejected, preserving the semantics the runtime designs depend on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "hw/topology.hpp"
#include "sim/engine.hpp"
#include "sim/future.hpp"
#include "sim/zero_pages.hpp"

namespace gdrshmem::cudart {

class CudaError : public std::runtime_error {
 public:
  explicit CudaError(const std::string& what) : std::runtime_error(what) {}
};

enum class MemSpace { kHost, kDevice };

/// What UVA knows about a pointer.
struct PtrAttr {
  MemSpace space = MemSpace::kHost;
  int node = -1;    // valid when space == kDevice
  int device = -1;  // GPU index within the node
  void* alloc_base = nullptr;
  std::size_t alloc_size = 0;
};

/// Interval map from device-allocation ranges to their attributes.
class PointerRegistry {
 public:
  void insert(void* base, std::size_t len, int node, int device);
  void erase(void* base);
  /// nullopt => not a registered device range, i.e. a host pointer.
  std::optional<PtrAttr> query(const void* p) const;
  std::size_t size() const { return ranges_.size(); }

 private:
  struct Range {
    std::size_t len;
    int node;
    int device;
  };
  std::map<std::uintptr_t, Range> ranges_;
};

/// Opaque IPC handle for a device allocation (cudaIpcGetMemHandle analog).
struct IpcHandle {
  void* base = nullptr;
  std::size_t len = 0;
  int node = -1;
  int device = -1;
};

/// Stream-ordered async work marker.
class CudaEvent {
 public:
  bool done(const sim::Engine& eng) const { return eng.now() >= ready_; }
  void synchronize(sim::Process& proc) { completion_->wait(proc); }
  /// Fires (in event context) when the work ends, after its effect: the
  /// handle a caller tracks or subscribes to instead of blocking.
  const sim::CompletionPtr& completion() const { return completion_; }

 private:
  friend class CudaRuntime;
  sim::Time ready_;
  sim::CompletionPtr completion_ = std::make_shared<sim::Completion>();
};

/// A CUDA stream: serializes the async operations enqueued on it.
class Stream {
 public:
  explicit Stream(int node, int gpu) : node_(node), gpu_(gpu) {}
  int node() const { return node_; }
  int gpu() const { return gpu_; }

 private:
  friend class CudaRuntime;
  int node_;
  int gpu_;
  sim::Time busy_until_;
};

class CudaRuntime;

/// Execution context of a *resident* "kernel": a kernel body that keeps
/// running on the GPU while issuing further work, instead of terminating so
/// the host can act. The body charges device compute incrementally through
/// `compute()`; the device-initiated OpenSHMEM surface (core::DeviceCtx)
/// charges its WQE-build/doorbell/descriptor costs through `charge_us()`.
class KernelContext {
 public:
  KernelContext(CudaRuntime& rt, sim::Process& proc, double per_cell_ns)
      : rt_(rt), proc_(proc), per_cell_ns_(per_cell_ns) {}
  KernelContext(const KernelContext&) = delete;
  KernelContext& operator=(const KernelContext&) = delete;

  /// Charge `cells` of device compute at the kernel's per-cell rate.
  void compute(std::size_t cells);
  /// Charge an explicit device-side cost in microseconds.
  void charge_us(double us);

  sim::Process& proc() { return proc_; }
  double per_cell_ns() const { return per_cell_ns_; }
  CudaRuntime& runtime() { return rt_; }

 private:
  CudaRuntime& rt_;
  sim::Process& proc_;
  double per_cell_ns_;
};

class CudaRuntime {
 public:
  CudaRuntime(sim::Engine& eng, hw::Cluster& cluster)
      : eng_(eng), cluster_(cluster) {}
  CudaRuntime(const CudaRuntime&) = delete;
  CudaRuntime& operator=(const CudaRuntime&) = delete;

  hw::Cluster& cluster() { return cluster_; }

  // ---- memory -------------------------------------------------------------
  /// cudaMalloc on a specific GPU. Backing store is real host memory: a
  /// sim::ZeroPages mapping that reads zero and commits pages on first
  /// touch, with a guard page past its page-rounded end.
  void* malloc_device(int node, int gpu, std::size_t bytes);
  void free_device(void* p);
  /// UVA classification (cudaPointerGetAttributes analog). Never fails:
  /// unknown pointers are host pointers.
  PtrAttr attributes(const void* p) const;

  // ---- copies ---------------------------------------------------------------
  /// Synchronous cudaMemcpy: direction inferred via UVA; charges the full
  /// hardware cost to the calling process, then moves the bytes. `node` is
  /// where that process runs: a host-to-host copy is a CPU copy there.
  void memcpy_sync(sim::Process& proc, int node, void* dst, const void* src,
                   std::size_t n);
  /// Stream-ordered async copy; bytes move at simulated completion.
  std::shared_ptr<CudaEvent> memcpy_async(void* dst, const void* src,
                                          std::size_t n, Stream& stream);

  // ---- IPC ------------------------------------------------------------------
  IpcHandle ipc_get_handle(void* dev_ptr) const;
  /// Map a peer allocation. Charges the (one-time per opener PE) open cost.
  /// `opener_node` must equal the allocation's node, as in real CUDA IPC.
  void* ipc_open_handle(sim::Process& proc, const IpcHandle& h, int opener_node,
                        int opener_pe);

  // ---- kernels ----------------------------------------------------------------
  /// Launch a "kernel": charge launch overhead + per-cell cost, then run the
  /// functional update `body` at completion. Synchronous variant.
  void launch_kernel_sync(sim::Process& proc, std::size_t cells,
                          double per_cell_ns, const std::function<void()>& body);
  /// Stream-ordered async kernel.
  std::shared_ptr<CudaEvent> launch_kernel_async(std::size_t cells,
                                                 double per_cell_ns,
                                                 std::function<void()> body,
                                                 Stream& stream);
  /// Launch a resident kernel: charge the launch overhead once, then run
  /// `body` inline on the calling process. The body charges its own compute
  /// through the KernelContext and may block (waits, communication) without
  /// terminating the kernel — the persistent-kernel model device-initiated
  /// communication requires.
  void launch_kernel_resident(sim::Process& proc, double per_cell_ns,
                              const std::function<void(KernelContext&)>& body);

  // Exposed for the transports: the raw copy path between two locations on
  // one node (used to price pipeline stages without issuing them); a
  // host-to-host copy runs on `node`.
  sim::Path copy_path(const PtrAttr& dst, const PtrAttr& src, int node);

 private:
  std::shared_ptr<CudaEvent> enqueue(Stream& stream, sim::Duration cost,
                                     std::function<void()> body);

  sim::Engine& eng_;
  hw::Cluster& cluster_;
  PointerRegistry registry_;
  std::vector<sim::ZeroPages> allocations_;
  std::map<void*, std::size_t> allocation_index_;
  std::set<std::pair<int, const void*>> ipc_opened_;  // (opener_pe, base)
};

}  // namespace gdrshmem::cudart
