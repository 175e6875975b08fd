// OpenSHMEM atomics (Section III-D): 64-bit operations map directly onto IB
// hardware atomics — including on GPU symmetric memory via GDR. Sub-64-bit
// operations use the paper's mask technique: a retry loop of hardware
// compare-and-swap on the containing aligned 64-bit word.
//
// Every hardware atomic is posted and awaited reliably: under a fault plan
// an error completion means the request was lost *before* the RMW executed,
// so re-posting the identical descriptor is exact (never double-applies).
#include "core/transport_util.hpp"

namespace gdrshmem::core {

using sim::Duration;
using detail::resolve_word;

std::uint64_t Ctx::hw_atomic(int pe, std::uint64_t* word, ib::Amo amo) {
  count_protocol(Protocol::kAtomicHw, 8);
  std::uint64_t old = 0;
  await_reliable(proc(), [&] {
    return rt_->ib().atomic(proc(), pe_, pe, word, amo, &old);
  });
  return old;
}

std::int64_t Ctx::atomic64(std::int64_t* sym, ib::Amo amo, int pe) {
  sim::Time t0 = begin_op(TraceEvent::Kind::kAtomic);
  proc().delay(Duration::us(rt_->cluster().params().shmem_sw_overhead_us));
  std::uint64_t old = hw_atomic(pe, resolve_word(*rt_, pe_, pe, sym), amo);
  finish_op(TraceEvent::Kind::kAtomic, pe, 8, t0);
  return static_cast<std::int64_t>(old);
}

std::int64_t Ctx::atomic_fetch_add(std::int64_t* sym, std::int64_t value, int pe) {
  return atomic64(sym, ib::Amo::fetch_add(static_cast<std::uint64_t>(value)), pe);
}

void Ctx::atomic_add(std::int64_t* sym, std::int64_t value, int pe) {
  (void)atomic_fetch_add(sym, value, pe);
}

std::int64_t Ctx::atomic_compare_swap(std::int64_t* sym, std::int64_t cond,
                                      std::int64_t value, int pe) {
  return atomic64(sym,
                  ib::Amo::compare_swap(static_cast<std::uint64_t>(cond),
                                        static_cast<std::uint64_t>(value)),
                  pe);
}

std::int64_t Ctx::atomic_swap(std::int64_t* sym, std::int64_t value, int pe) {
  // IB has no unconditional swap: emulate with a CAS retry loop.
  std::int64_t expected = atomic_fetch(sym, pe);
  while (true) {
    std::int64_t old = atomic_compare_swap(sym, expected, value, pe);
    if (old == expected) return old;
    expected = old;
  }
}

std::int64_t Ctx::atomic_fetch(const std::int64_t* sym, int pe) {
  return atomic_fetch_add(const_cast<std::int64_t*>(sym), 0, pe);
}

namespace {

struct Lane32 {
  std::uint64_t* word;  // containing aligned 64-bit word (remote)
  unsigned shift;       // bit offset of the 32-bit lane (little-endian)
};

Lane32 resolve_lane32(Runtime& rt, int owner_pe, int target_pe, const void* sym) {
  Domain dom;
  void* remote = rt.translate(sym, owner_pe, target_pe, sizeof(std::uint32_t), &dom);
  auto addr = reinterpret_cast<std::uintptr_t>(remote);
  if (addr % 4 != 0) throw ShmemError("32-bit atomic target must be 4-byte aligned");
  auto word_addr = addr & ~std::uintptr_t{7};
  return Lane32{reinterpret_cast<std::uint64_t*>(word_addr),
                static_cast<unsigned>((addr & 4) ? 32 : 0)};
}

}  // namespace

std::int32_t Ctx::atomic32(std::int32_t* sym, ib::Amo amo, int pe) {
  sim::Time t0 = begin_op(TraceEvent::Kind::kAtomic);
  proc().delay(Duration::us(rt_->cluster().params().shmem_sw_overhead_us));
  Lane32 lane = resolve_lane32(*rt_, pe_, pe, sym);
  const std::uint64_t mask = std::uint64_t{0xffffffffu} << lane.shift;
  while (true) {
    // Fetch the current word (fadd 0), apply `amo` to the lane, CAS the
    // spliced word in.
    std::uint64_t cur = hw_atomic(pe, lane.word, ib::Amo::fetch_add(0));
    std::uint64_t lane_val = (cur & mask) >> lane.shift;
    bool compare_failed = amo.kind == ib::Amo::Kind::kCompareSwap &&
                          lane_val != amo.operand;
    std::uint64_t updated = lane_val;
    amo.apply(updated);
    std::uint64_t desired = (cur & ~mask) | ((updated << lane.shift) & mask);
    // One user-level op, however many hardware attempts the race cost. A
    // failed compare leaves the word untouched.
    if (compare_failed ||
        hw_atomic(pe, lane.word, ib::Amo::compare_swap(cur, desired)) == cur) {
      finish_op(TraceEvent::Kind::kAtomic, pe, 4, t0);
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(lane_val));
    }
    // Another PE raced us (possibly on the sibling lane): retry.
  }
}

std::int32_t Ctx::atomic_fetch_add32(std::int32_t* sym, std::int32_t value, int pe) {
  return atomic32(sym, ib::Amo::fetch_add(static_cast<std::uint32_t>(value)), pe);
}

std::int32_t Ctx::atomic_compare_swap32(std::int32_t* sym, std::int32_t cond,
                                        std::int32_t value, int pe) {
  return atomic32(sym,
                  ib::Amo::compare_swap(static_cast<std::uint32_t>(cond),
                                        static_cast<std::uint32_t>(value)),
                  pe);
}

}  // namespace gdrshmem::core
