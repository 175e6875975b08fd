#include "cudart/cudart.hpp"

#include <cstring>

namespace gdrshmem::cudart {

using sim::Duration;
using sim::Path;
using sim::Time;

// ---------------------------------------------------------------------------
// PointerRegistry

void PointerRegistry::insert(void* base, std::size_t len, int node, int device) {
  auto key = reinterpret_cast<std::uintptr_t>(base);
  // Reject overlap with an existing range: that would corrupt UVA lookups.
  auto it = ranges_.upper_bound(key);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > key) {
      throw CudaError("device range overlaps an existing registration");
    }
  }
  if (it != ranges_.end() && key + len > it->first) {
    throw CudaError("device range overlaps an existing registration");
  }
  ranges_.emplace(key, Range{len, node, device});
}

void PointerRegistry::erase(void* base) {
  if (ranges_.erase(reinterpret_cast<std::uintptr_t>(base)) == 0) {
    throw CudaError("unregistering unknown device range");
  }
}

std::optional<PtrAttr> PointerRegistry::query(const void* p) const {
  auto key = reinterpret_cast<std::uintptr_t>(p);
  auto it = ranges_.upper_bound(key);
  if (it == ranges_.begin()) return std::nullopt;
  --it;
  if (key >= it->first + it->second.len) return std::nullopt;
  PtrAttr a;
  a.space = MemSpace::kDevice;
  a.node = it->second.node;
  a.device = it->second.device;
  a.alloc_base = reinterpret_cast<void*>(it->first);
  a.alloc_size = it->second.len;
  return a;
}

// ---------------------------------------------------------------------------
// CudaRuntime: memory

void* CudaRuntime::malloc_device(int node, int gpu, std::size_t bytes) {
  if (node < 0 || node >= cluster_.num_nodes()) throw CudaError("bad node id");
  if (gpu < 0 || gpu >= cluster_.config().gpus_per_node) throw CudaError("bad GPU id");
  if (bytes == 0) throw CudaError("cudaMalloc of zero bytes");
  sim::ZeroPages buf(bytes);
  void* p = buf.data();
  registry_.insert(p, bytes, node, gpu);
  allocation_index_.emplace(p, bytes);
  allocations_.push_back(std::move(buf));
  return p;
}

void CudaRuntime::free_device(void* p) {
  auto it = allocation_index_.find(p);
  if (it == allocation_index_.end()) throw CudaError("cudaFree of unknown pointer");
  registry_.erase(p);
  allocation_index_.erase(it);
  // Backing store is intentionally retained until runtime destruction so
  // stale simulated DMA completions can never touch freed memory.
}

PtrAttr CudaRuntime::attributes(const void* p) const {
  if (auto a = registry_.query(p)) return *a;
  return PtrAttr{};  // host
}

// ---------------------------------------------------------------------------
// CudaRuntime: copies

Path CudaRuntime::copy_path(const PtrAttr& dst, const PtrAttr& src, int node) {
  const bool src_dev = src.space == MemSpace::kDevice;
  const bool dst_dev = dst.space == MemSpace::kDevice;
  if (src_dev && dst_dev) {
    if (src.node != dst.node) {
      throw CudaError("cudaMemcpy between GPUs on different nodes");
    }
    return cluster_.cuda_d2d(src.node, src.device, dst.device);
  }
  if (src_dev) return cluster_.cuda_d2h(src.node, src.device);
  if (dst_dev) return cluster_.cuda_h2d(dst.node, dst.device);
  // Host to host: a plain CPU copy on the caller's node.
  return cluster_.host_copy(node);
}

void CudaRuntime::memcpy_sync(sim::Process& proc, int node, void* dst,
                              const void* src, std::size_t n) {
  if (n == 0) return;
  Path path = copy_path(attributes(dst), attributes(src), node);
  Time done = path.schedule(eng_.now(), n);
  proc.delay(done - eng_.now());
  std::memcpy(dst, src, n);
}

std::shared_ptr<CudaEvent> CudaRuntime::enqueue(Stream& stream, Duration cost,
                                                std::function<void()> body) {
  Time start = sim::max(eng_.now(), stream.busy_until_);
  Time done = start + cost;
  stream.busy_until_ = done;
  auto ev = std::make_shared<CudaEvent>();
  ev->ready_ = done;
  eng_.schedule_at(done, [ev, body = std::move(body)] {
    body();
    ev->completion_->fire();
  });
  return ev;
}

std::shared_ptr<CudaEvent> CudaRuntime::memcpy_async(void* dst, const void* src,
                                                     std::size_t n, Stream& stream) {
  Path path = copy_path(attributes(dst), attributes(src), stream.node());
  // Stream ordering: the copy cannot start before earlier stream work ends.
  Time start = sim::max(eng_.now(), stream.busy_until_);
  Time done = path.schedule(start, n);
  stream.busy_until_ = done;
  auto ev = std::make_shared<CudaEvent>();
  ev->ready_ = done;
  eng_.schedule_at(done, [ev, dst, src, n] {
    std::memcpy(dst, src, n);
    ev->completion_->fire();
  });
  return ev;
}

// ---------------------------------------------------------------------------
// CudaRuntime: IPC

IpcHandle CudaRuntime::ipc_get_handle(void* dev_ptr) const {
  auto a = registry_.query(dev_ptr);
  if (!a) throw CudaError("cudaIpcGetMemHandle on a non-device pointer");
  if (a->alloc_base != dev_ptr) {
    throw CudaError("cudaIpcGetMemHandle must receive the allocation base");
  }
  return IpcHandle{a->alloc_base, a->alloc_size, a->node, a->device};
}

void* CudaRuntime::ipc_open_handle(sim::Process& proc, const IpcHandle& h,
                                   int opener_node, int opener_pe) {
  if (h.base == nullptr) throw CudaError("opening a null IPC handle");
  if (h.node != opener_node) {
    throw CudaError("CUDA IPC handles are only valid on the owning node");
  }
  auto key = std::make_pair(opener_pe, static_cast<const void*>(h.base));
  if (ipc_opened_.insert(key).second) {
    proc.delay(Duration::us(cluster_.params().cuda_ipc_open_us));
  }
  return h.base;
}

// ---------------------------------------------------------------------------
// CudaRuntime: kernels

void CudaRuntime::launch_kernel_sync(sim::Process& proc, std::size_t cells,
                                     double per_cell_ns,
                                     const std::function<void()>& body) {
  const auto& p = cluster_.params();
  Duration cost = Duration::us(p.cuda_kernel_launch_us) +
                  Duration::ns(static_cast<std::int64_t>(
                      static_cast<double>(cells) * per_cell_ns + 0.5));
  proc.delay(cost);
  body();
}

std::shared_ptr<CudaEvent> CudaRuntime::launch_kernel_async(
    std::size_t cells, double per_cell_ns, std::function<void()> body,
    Stream& stream) {
  const auto& p = cluster_.params();
  Duration cost = Duration::us(p.cuda_kernel_launch_us) +
                  Duration::ns(static_cast<std::int64_t>(
                      static_cast<double>(cells) * per_cell_ns + 0.5));
  return enqueue(stream, cost, std::move(body));
}

void CudaRuntime::launch_kernel_resident(
    sim::Process& proc, double per_cell_ns,
    const std::function<void(KernelContext&)>& body) {
  proc.delay(Duration::us(cluster_.params().cuda_kernel_launch_us));
  KernelContext kc(*this, proc, per_cell_ns);
  body(kc);
}

void KernelContext::compute(std::size_t cells) {
  if (cells == 0) return;
  proc_.delay(Duration::ns(static_cast<std::int64_t>(
      static_cast<double>(cells) * per_cell_ns_ + 0.5)));
}

void KernelContext::charge_us(double us) {
  if (us <= 0) return;
  proc_.delay(Duration::us(us));
}

}  // namespace gdrshmem::cudart
