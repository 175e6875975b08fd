// Zero-filled bulk memory, committed by the kernel on first touch.
//
// The runtime reserves large fixed-size buffers up front (symmetric heaps,
// eager slot regions, device allocations, proxy staging) of which a run
// typically touches a small fraction. Allocating them with new[] and
// value-initializing writes every page: set-up time and RSS then scale with
// the reservation, not with use. A private anonymous mapping reads zero
// until written, and the kernel supplies each page at its first touch, so
// reserving costs address space only.
//
// Every mapping ends with a PROT_NONE guard page, so running off the end of
// the buffer faults instead of landing in a neighbouring mapping. Under
// AddressSanitizer the slack between the requested size and the guard page
// is poisoned as well, so an overrun is reported at the first stray byte.
#pragma once

#include <cstddef>

namespace gdrshmem::sim {

class ZeroPages {
 public:
  /// No mapping yet: data() is null and size() is 0, as after a move.
  ZeroPages() = default;
  /// Map `bytes` zero bytes (page-rounded) plus a guard page. A zero-byte
  /// request maps only the guard page, so data() is still a unique non-null
  /// address that no access may reach. Throws std::system_error if the
  /// mapping cannot be made.
  explicit ZeroPages(std::size_t bytes);
  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;
  ~ZeroPages();

  std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  void unmap() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t map_len_ = 0;  // page-rounded size + the guard page
};

}  // namespace gdrshmem::sim
