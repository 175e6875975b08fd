// Distributed locks, built on the runtime's IB hardware atomics — the
// "locks and critical regions" use case of Section II-C.
#include "core/ctx.hpp"

namespace gdrshmem::core {

void Ctx::set_lock(std::int64_t* lock_sym) {
  // The lock word lives on PE 0 (OpenSHMEM convention for global locks).
  // Spin with compare-and-swap and linear backoff.
  std::int64_t ticket = pe_ + 1;
  double backoff_us = 0.5;
  while (atomic_compare_swap(lock_sym, 0, ticket, 0) != 0) {
    compute(sim::Duration::us(backoff_us));
    backoff_us = std::min(backoff_us * 2.0, 16.0);
  }
}

void Ctx::clear_lock(std::int64_t* lock_sym) {
  std::int64_t ticket = pe_ + 1;
  if (atomic_compare_swap(lock_sym, ticket, 0, 0) != ticket) {
    throw ShmemError("clear_lock by a PE that does not hold the lock");
  }
}

bool Ctx::test_lock(std::int64_t* lock_sym) {
  return atomic_compare_swap(lock_sym, 0, pe_ + 1, 0) == 0;
}

}  // namespace gdrshmem::core
