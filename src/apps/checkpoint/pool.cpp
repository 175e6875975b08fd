#include "apps/checkpoint/pool.hpp"

#include <stdexcept>

namespace gdrshmem::apps::ckpt {

PmemPool::PmemPool(std::size_t capacity, std::size_t chunk_bytes)
    : capacity_(0), chunk_(chunk_bytes) {
  if (chunk_bytes == 0 || (chunk_bytes & (chunk_bytes - 1)) != 0) {
    throw std::invalid_argument("PmemPool: chunk_bytes must be a power of 2");
  }
  capacity_ = capacity / chunk_bytes * chunk_bytes;
  if (capacity_ == 0) {
    throw std::invalid_argument("PmemPool: capacity smaller than one chunk");
  }
}

std::size_t PmemPool::rounded(std::size_t bytes) const {
  if (bytes == 0) return chunk_;
  return (bytes + chunk_ - 1) / chunk_ * chunk_;
}

std::optional<Extent> PmemPool::allocate(std::uint64_t key, std::size_t bytes) {
  if (offset_of_key_.count(key) != 0) {
    throw std::invalid_argument("PmemPool: key already has a live extent");
  }
  const std::size_t need = rounded(bytes);
  // First fit: walk the gaps between live extents (and after the last one).
  std::size_t gap_start = 0;
  for (const auto& [off, live] : by_offset_) {
    if (off - gap_start >= need) break;
    gap_start = off + live.bytes;
  }
  if (capacity_ - gap_start < need) return std::nullopt;
  by_offset_.emplace(gap_start, Live{key, need});
  offset_of_key_.emplace(key, gap_start);
  used_ += need;
  return Extent{gap_start, need};
}

bool PmemPool::release(std::uint64_t key) {
  auto it = offset_of_key_.find(key);
  if (it == offset_of_key_.end()) return false;
  auto live = by_offset_.find(it->second);
  used_ -= live->second.bytes;
  by_offset_.erase(live);
  offset_of_key_.erase(it);
  return true;
}

std::optional<Extent> PmemPool::find(std::uint64_t key) const {
  auto it = offset_of_key_.find(key);
  if (it == offset_of_key_.end()) return std::nullopt;
  return Extent{it->second, by_offset_.at(it->second).bytes};
}

std::size_t PmemPool::repack(
    std::size_t need,
    const std::function<void(std::uint64_t, std::size_t, std::size_t,
                             std::size_t)>& on_move,
    const std::function<bool(std::uint64_t)>& is_pinned) {
  using It = std::map<std::size_t, Live>::iterator;
  // Two pointers over the offset map. The window is [lo, hi); `base` is
  // where its first extent would slide to (the end of the extent below it)
  // and `bytes` is what it holds. Sliding it frees (offset of hi, or
  // capacity) - base - bytes contiguous bytes, which only grows as the
  // window widens on either side. So for each hi the cheapest window that
  // fits starts at the highest lo that fits, and lo never moves back.
  It lo = by_offset_.begin();
  std::size_t base = 0, bytes = 0, count = 0;
  It best_lo = by_offset_.end(), best_hi = best_lo;
  std::size_t best_base = 0, best_bytes = 0, best_count = 0;
  for (It hi = by_offset_.begin(); hi != by_offset_.end();) {
    if (is_pinned && is_pinned(hi->second.key)) {
      // A pinned extent cannot move, so no window spans it.
      base = hi->first + hi->second.bytes;
      lo = ++hi;
      bytes = count = 0;
      continue;
    }
    bytes += hi->second.bytes;
    ++count;
    ++hi;
    const std::size_t limit = hi == by_offset_.end() ? capacity_ : hi->first;
    while (count > 0 && limit - base - bytes >= need) {
      if (best_count == 0 || bytes < best_bytes ||
          (bytes == best_bytes && count < best_count)) {
        best_lo = lo;
        best_hi = hi;
        best_base = base;
        best_bytes = bytes;
        best_count = count;
      }
      base = lo->first + lo->second.bytes;
      bytes -= lo->second.bytes;
      --count;
      ++lo;
    }
  }
  // Slide the chosen window down in ascending offset order. Its first extent
  // sits above a gap (without one, the window minus that extent would free
  // as much and move less), so every extent in it moves.
  std::size_t next = best_base;
  for (It it = best_lo; it != best_hi;) {
    auto node = by_offset_.extract(it++);
    const Live live = node.mapped();
    on_move(live.key, node.key(), next, live.bytes);
    offset_of_key_[live.key] = next;
    node.key() = next;
    by_offset_.insert(it, std::move(node));
    next += live.bytes;
  }
  return best_count;
}

}  // namespace gdrshmem::apps::ckpt
