// Symmetric heap management: every PE owns one heap per domain (host and
// GPU), laid out identically across PEs so that a local symmetric address
// translates to any peer's copy by offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace gdrshmem::core {

/// One PE's heap in one domain. Allocation is a deterministic bump pointer:
/// as long as all PEs issue identical shmalloc sequences (shmalloc is
/// collective), offsets — and therefore symmetric addresses — line up.
/// shfree supports LIFO (stack) discipline; non-LIFO frees are deferred
/// until the whole region above them is freed.
///
/// Contents contract (the Runtime backs every heap with sim::ZeroPages):
///   * heap space that was never allocated before reads zero — the
///     collectives sync pool and apps that build their own Runtime rely on
///     this;
///   * a block reclaimed by the LIFO rule keeps its old bytes, so the next
///     allocation over it sees whatever the previous owner wrote;
///   * shmem_calloc is the zeroing allocator (OpenSHMEM promises zeroes only
///     for calloc).
class SymmetricHeap {
 public:
  SymmetricHeap(Domain domain, std::byte* base, std::size_t size)
      : domain_(domain), base_(base), size_(size) {}

  Domain domain() const { return domain_; }
  std::byte* base() const { return base_; }
  std::size_t size() const { return size_; }
  std::size_t used() const { return top_; }

  bool contains(const void* p) const {
    auto u = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(base_);
    return u >= b && u < b + size_;
  }

  std::size_t offset_of(const void* p) const {
    return static_cast<std::size_t>(static_cast<const std::byte*>(p) - base_);
  }

  /// Bump-allocate `bytes` aligned to `align`. Throws ShmemError when the
  /// heap is exhausted (the GPU heap size is a runtime parameter, III-A).
  void* allocate(std::size_t bytes, std::size_t align = 64) {
    if (bytes == 0) throw ShmemError("shmalloc of zero bytes");
    std::size_t aligned = (top_ + align - 1) / align * align;
    if (aligned > size_ || bytes > size_ - aligned) {
      throw ShmemError(
          "symmetric heap exhausted (" + std::string(to_string(domain_)) +
          " domain): requested " + std::to_string(bytes) + " bytes (align " +
          std::to_string(align) + "), " + std::to_string(size_ - top_) +
          " of " + std::to_string(size_) +
          " bytes free — increase the heap size runtime parameter");
    }
    void* p = base_ + aligned;
    live_.push_back({aligned, bytes, /*freed=*/false});
    top_ = aligned + bytes;
    return p;
  }

  /// Free a block previously returned by allocate(). Space is reclaimed
  /// only when the freed block is the most recent live one (LIFO); earlier
  /// frees are recorded and reclaimed once everything above them is freed.
  void deallocate(void* p) {
    std::size_t off = offset_of(p);
    for (auto it = live_.rbegin(); it != live_.rend(); ++it) {
      if (it->offset == off && !it->freed) {
        it->freed = true;
        while (!live_.empty() && live_.back().freed) {
          top_ = live_.back().offset;
          live_.pop_back();
        }
        return;
      }
    }
    throw ShmemError("shfree of a pointer not allocated from this heap");
  }

  std::size_t live_allocations() const {
    std::size_t n = 0;
    for (const auto& b : live_) n += b.freed ? 0 : 1;
    return n;
  }

 private:
  struct Block {
    std::size_t offset;
    std::size_t bytes;
    bool freed;
  };

  Domain domain_;
  std::byte* base_;
  std::size_t size_;
  std::size_t top_ = 0;
  std::vector<Block> live_;
};

}  // namespace gdrshmem::core
