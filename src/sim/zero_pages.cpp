#include "sim/zero_pages.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <limits>
#include <system_error>
#include <utility>

namespace gdrshmem::sim {

ZeroPages::ZeroPages(std::size_t bytes) : size_(bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  if (bytes > std::numeric_limits<std::size_t>::max() - 2 * page) {
    // Rounding up would wrap; no kernel could map this anyway.
    throw std::system_error(ENOMEM, std::generic_category(), "mmap zero pages");
  }
  const std::size_t rounded = (bytes + page - 1) / page * page;
  map_len_ = rounded + page;
  void* base = ::mmap(nullptr, map_len_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "mmap zero pages");
  }
  data_ = static_cast<std::byte*>(base);
  // Commit page by page even where the host's transparent-huge-page policy
  // is "always", so RSS counts only the pages a run touched. Advice only:
  // if the kernel refuses it, the mapping still works.
  ::madvise(base, map_len_, MADV_NOHUGEPAGE);
  if (::mprotect(data_ + rounded, page, PROT_NONE) != 0) {
    const int err = errno;
    ::munmap(base, map_len_);
    throw std::system_error(err, std::generic_category(),
                            "mprotect zero-pages guard page");
  }
  ASAN_POISON_MEMORY_REGION(data_ + bytes, rounded - bytes);
}

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      map_len_(std::exchange(other.map_len_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  if (this != &other) {
    unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    map_len_ = std::exchange(other.map_len_, 0);
  }
  return *this;
}

ZeroPages::~ZeroPages() { unmap(); }

void ZeroPages::unmap() noexcept {
  if (data_ == nullptr) return;
  // Clear the slack's poison, or a later mapping at this address would
  // report spurious overruns.
  ASAN_UNPOISON_MEMORY_REGION(data_, map_len_);
  ::munmap(data_, map_len_);
  data_ = nullptr;
}

}  // namespace gdrshmem::sim
