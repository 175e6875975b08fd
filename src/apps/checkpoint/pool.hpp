// Slab/pool allocator layered over a pmem symmetric-heap region (the shape
// of Portus's pool.cpp): the bump-pointer SymmetricHeap cannot reclaim out
// of order, so the checkpoint service carves one large pmem arena and
// manages chunk-granular extents inside it — first-fit allocation, keyed
// release, and a windowed repack that compacts only as much of the arena as
// one allocation needs (DESIGN §5h).
//
// The pool tracks offsets only; moving the bytes during repack (and
// publishing directory updates so one-sided readers notice) is the service's
// job via the on_move callback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>

namespace gdrshmem::apps::ckpt {

/// A contiguous run of chunks inside the arena: [offset, offset + bytes).
struct Extent {
  std::size_t offset = 0;
  std::size_t bytes = 0;  // chunk-rounded
};

class PmemPool {
 public:
  /// Manage [0, capacity) in units of chunk_bytes. capacity is rounded down
  /// to a whole number of chunks; chunk_bytes must be a power of two.
  PmemPool(std::size_t capacity, std::size_t chunk_bytes);

  /// First-fit allocate a chunk-rounded extent for `key` (one live extent
  /// per key). Returns nullopt when no contiguous run fits — the caller
  /// decides whether to evict, repack, or reject.
  std::optional<Extent> allocate(std::uint64_t key, std::size_t bytes);

  /// Release `key`'s extent. Returns false when the key has no live extent
  /// (already evicted), which callers treat as a no-op.
  bool release(std::uint64_t key);

  /// The live extent for `key`, if any.
  std::optional<Extent> find(std::uint64_t key) const;

  /// Make room for an allocation of `need` (chunk-rounded) bytes that just
  /// failed. A window is a run of consecutive live extents, none pinned;
  /// sliding it down onto the end of the extent before it joins the gaps
  /// before each of its extents and after its last into one free run. Of the
  /// windows whose gaps add up to at least `need`, repack slides the one that
  /// moves the fewest bytes (ties: fewest extents, then the lowest), and
  /// nothing else. on_move(key, old_offset, new_offset, bytes) fires for each
  /// of its extents, in ascending old_offset order; every move is strictly
  /// downward and its destination never overlaps a not-yet-moved extent, so
  /// the service can memmove eagerly. is_pinned(key) marks extents that must
  /// stay put (the service pins granted-but-uncommitted extents a client may
  /// be writing into); they bound windows. Returns the number of extents
  /// moved: 0 exactly when no window frees `need`, and otherwise
  /// allocate(need) succeeds afterwards.
  std::size_t repack(
      std::size_t need,
      const std::function<void(std::uint64_t key, std::size_t old_offset,
                               std::size_t new_offset, std::size_t bytes)>&
          on_move,
      const std::function<bool(std::uint64_t key)>& is_pinned = nullptr);

  std::size_t capacity() const { return capacity_; }
  std::size_t chunk_bytes() const { return chunk_; }
  std::size_t used_bytes() const { return used_; }
  std::size_t free_bytes() const { return capacity_ - used_; }
  std::size_t live_extents() const { return by_offset_.size(); }
  /// `bytes` rounded up to whole chunks (the footprint allocate would take).
  std::size_t rounded(std::size_t bytes) const;

 private:
  struct Live {
    std::uint64_t key;
    std::size_t bytes;  // chunk-rounded
  };

  std::size_t capacity_;
  std::size_t chunk_;
  std::size_t used_ = 0;
  std::map<std::size_t, Live> by_offset_;
  std::map<std::uint64_t, std::size_t> offset_of_key_;
};

}  // namespace gdrshmem::apps::ckpt
