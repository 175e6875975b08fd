// gdrshmem public host API: C-style OpenSHMEM 1.4 surface, bound to the
// calling PE via a per-process context — so paper-style application code
// ports almost verbatim:
//
//   gdrshmem::core::Runtime rt(cluster, opts);
//   rt.run([](gdrshmem::core::Ctx& ctx) {
//     capi::Bind bind(ctx);                      // once per PE body
//     double* x = (double*)shmem_malloc(n, Domain::kGpu);
//     shmem_putmem(x, src, n, (shmem_my_pe() + 1) % shmem_n_pes());
//     shmem_quiet();
//     shmem_barrier_all();
//   });
//
// Every operation has one spelling: the OpenSHMEM 1.4 name (shmem_malloc,
// shmem_atomic_fetch_add, typed shmem_put/shmem_get overloads). The pre-1.4
// classic names (shmalloc, shfree, shmem_longlong_fadd, shmem_double_put,
// ...) were removed as of GDRSHMEM_API_VERSION_MAJOR 3. The world-team
// collectives (shmem_broadcastmem without a team, the _to_all reductions)
// forward to their team forms on shmem_team_world().
//
// Every function forwards to the bound Ctx; calling without a bound context
// throws ShmemError. The device-initiated (in-kernel) surface lives in
// <gdrshmem/shmem_device.h>.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/types.hpp"
#include "gdrshmem/version.h"

namespace gdrshmem::core {
class Ctx;
class Team;
}
namespace gdrshmem::sim {
class Process;
}

namespace gdrshmem::capi {

/// RAII binder: installs `ctx` as the calling simulated process's current PE
/// context (keyed on the Process, so it works under both the fiber and the
/// thread execution backend).
class Bind {
 public:
  explicit Bind(core::Ctx& ctx);
  ~Bind();
  Bind(const Bind&) = delete;
  Bind& operator=(const Bind&) = delete;

 private:
  sim::Process* proc_;
};

/// The bound context (throws if none).
core::Ctx& current();

// ---- setup / query --------------------------------------------------------
int shmem_my_pe();
int shmem_n_pes();

/// OpenSHMEM 1.5 runtime queries: the specification version the spellings
/// follow and the vendor name string (null-terminated, at most
/// SHMEM_MAX_NAME_LEN bytes including the terminator).
inline constexpr int SHMEM_MAX_NAME_LEN = 64;
void shmem_info_get_version(int* major, int* minor);
void shmem_info_get_name(char* name);

/// gdrshmem extensions: the active IB queue-pair transport ("rc" | "ud" |
/// "dc") and the rail count large messages stripe across — so apps and
/// benches report the transport in effect instead of re-reading env vars.
/// Both require a bound context (the transport is a runtime property).
const char* shmemx_transport_name();
int shmemx_rail_count();

// ---- symmetric memory (OpenSHMEM 1.4, with the paper's Domain extension) --
/// shmem_malloc(size): collective symmetric allocation on the host heap.
/// The two-argument overload is this runtime's GPU extension — the paper's
/// Domain-aware shmalloc under the modern name.
///
/// Contents: heap space never allocated before reads zero, but a block
/// reclaimed by shmem_free (LIFO: the most recent live block) keeps its old
/// bytes, and the next shmem_malloc of that space returns them unchanged.
/// Use shmem_calloc when the block must start zeroed.
void* shmem_malloc(std::size_t size);
void* shmem_malloc(std::size_t size, core::Domain domain);
/// Zero-initialized symmetric allocation: every PE zeroes its copy before
/// the allocation's barrier, so a put that arrives once the call returns is
/// never wiped. Throws ShmemError when count * size overflows.
void* shmem_calloc(std::size_t count, std::size_t size,
                   core::Domain domain = core::Domain::kHost);
void shmem_free(void* p);
void* shmem_ptr(const void* sym, int pe);

// ---- RMA --------------------------------------------------------------------
void shmem_putmem(void* dst, const void* src, std::size_t n, int pe);
void shmem_getmem(void* dst, const void* src, std::size_t n, int pe);
void shmem_putmem_nbi(void* dst, const void* src, std::size_t n, int pe);
void shmem_getmem_nbi(void* dst, const void* src, std::size_t n, int pe);

/// Typed RMA, the C++ spelling of the 1.4 typed interface (shmem_double_put
/// et al. become overloads of one name).
void shmem_put(double* dst, const double* src, std::size_t nelems, int pe);
void shmem_put(float* dst, const float* src, std::size_t nelems, int pe);
void shmem_put(long long* dst, const long long* src, std::size_t nelems, int pe);
void shmem_put(int* dst, const int* src, std::size_t nelems, int pe);
void shmem_get(double* dst, const double* src, std::size_t nelems, int pe);
void shmem_get(float* dst, const float* src, std::size_t nelems, int pe);
void shmem_get(long long* dst, const long long* src, std::size_t nelems, int pe);
void shmem_get(int* dst, const int* src, std::size_t nelems, int pe);
void shmem_put_nbi(double* dst, const double* src, std::size_t nelems, int pe);
void shmem_put_nbi(long long* dst, const long long* src, std::size_t nelems, int pe);
void shmem_get_nbi(double* dst, const double* src, std::size_t nelems, int pe);
void shmem_get_nbi(long long* dst, const long long* src, std::size_t nelems, int pe);

// ---- ordering ----------------------------------------------------------------
void shmem_quiet();
void shmem_fence();

// ---- synchronization ------------------------------------------------------------
void shmem_barrier_all();
void shmem_longlong_wait_until(const long long* sym, int cmp_op, long long value);
// SHMEM_CMP_* constants.
inline constexpr int SHMEM_CMP_EQ = 0;
inline constexpr int SHMEM_CMP_NE = 1;
inline constexpr int SHMEM_CMP_GT = 2;
inline constexpr int SHMEM_CMP_GE = 3;
inline constexpr int SHMEM_CMP_LT = 4;
inline constexpr int SHMEM_CMP_LE = 5;

// ---- atomics (OpenSHMEM 1.4 shmem_atomic_* names) --------------------------
long long shmem_atomic_fetch_add(long long* sym, long long value, int pe);
void shmem_atomic_add(long long* sym, long long value, int pe);
long long shmem_atomic_fetch_inc(long long* sym, int pe);
void shmem_atomic_inc(long long* sym, int pe);
long long shmem_atomic_swap(long long* sym, long long value, int pe);
long long shmem_atomic_compare_swap(long long* sym, long long cond,
                                    long long value, int pe);
long long shmem_atomic_fetch(const long long* sym, int pe);
/// 32-bit overloads (masked CAS technique underneath, Section III-D).
int shmem_atomic_fetch_add(int* sym, int value, int pe);
int shmem_atomic_compare_swap(int* sym, int cond, int value, int pe);

// ---- teams (OpenSHMEM 1.5 shapes) ------------------------------------------
/// A team handle is a pointer to the per-PE core::Team object; PEs outside a
/// split's new team hold SHMEM_TEAM_INVALID.
using shmem_team_t = core::Team*;
inline constexpr shmem_team_t SHMEM_TEAM_INVALID = nullptr;

shmem_team_t shmem_team_world();
/// Collective over `parent`'s members. On success returns 0 with `*new_team`
/// set (SHMEM_TEAM_INVALID on non-members); returns nonzero when `parent` is
/// invalid. Bad triplets / slot exhaustion throw (identically on every
/// member).
int shmem_team_split_strided(shmem_team_t parent, int start, int stride,
                             int size, shmem_team_t* new_team);
/// -1 for SHMEM_TEAM_INVALID, per the spec.
int shmem_team_my_pe(shmem_team_t team);
int shmem_team_n_pes(shmem_team_t team);
/// `src_pe` of `src_team` in `dst_team`'s numbering; -1 when not a member
/// (or either handle is invalid).
int shmem_team_translate_pe(shmem_team_t src_team, int src_pe,
                            shmem_team_t dst_team);
void shmem_team_destroy(shmem_team_t team);
void shmem_team_sync(shmem_team_t team);

// ---- collectives --------------------------------------------------------------------
/// The teamless forms run on shmem_team_world().
void shmem_broadcastmem(void* dst, const void* src, std::size_t n, int root);
void shmem_broadcastmem(shmem_team_t team, void* dst, const void* src,
                        std::size_t n, int root);
void shmem_fcollectmem(void* dst, const void* src, std::size_t nbytes);
void shmem_fcollectmem(shmem_team_t team, void* dst, const void* src,
                       std::size_t nbytes);
void shmem_alltoallmem(void* dst, const void* src, std::size_t nbytes);
void shmem_alltoallmem(shmem_team_t team, void* dst, const void* src,
                       std::size_t nbytes);

/// OpenSHMEM 1.4 typed active-set reductions over all PEs (no pWrk/pSync:
/// the runtime's internal sync pool replaces them). Each forwards to its
/// _reduce form on shmem_team_world().
void shmem_int_sum_to_all(int* dst, const int* src, std::size_t nreduce);
void shmem_int_min_to_all(int* dst, const int* src, std::size_t nreduce);
void shmem_int_max_to_all(int* dst, const int* src, std::size_t nreduce);
void shmem_long_sum_to_all(long long* dst, const long long* src, std::size_t nreduce);
void shmem_long_min_to_all(long long* dst, const long long* src, std::size_t nreduce);
void shmem_long_max_to_all(long long* dst, const long long* src, std::size_t nreduce);
void shmem_float_sum_to_all(float* dst, const float* src, std::size_t nreduce);
void shmem_float_min_to_all(float* dst, const float* src, std::size_t nreduce);
void shmem_float_max_to_all(float* dst, const float* src, std::size_t nreduce);
void shmem_double_sum_to_all(double* dst, const double* src, std::size_t nreduce);
void shmem_double_min_to_all(double* dst, const double* src, std::size_t nreduce);
void shmem_double_max_to_all(double* dst, const double* src, std::size_t nreduce);

/// OpenSHMEM 1.5-style team reductions (shmem_int_sum_reduce, ...).
void shmem_int_sum_reduce(shmem_team_t team, int* dst, const int* src, std::size_t n);
void shmem_int_min_reduce(shmem_team_t team, int* dst, const int* src, std::size_t n);
void shmem_int_max_reduce(shmem_team_t team, int* dst, const int* src, std::size_t n);
void shmem_long_sum_reduce(shmem_team_t team, long long* dst, const long long* src, std::size_t n);
void shmem_long_min_reduce(shmem_team_t team, long long* dst, const long long* src, std::size_t n);
void shmem_long_max_reduce(shmem_team_t team, long long* dst, const long long* src, std::size_t n);
void shmem_float_sum_reduce(shmem_team_t team, float* dst, const float* src, std::size_t n);
void shmem_float_min_reduce(shmem_team_t team, float* dst, const float* src, std::size_t n);
void shmem_float_max_reduce(shmem_team_t team, float* dst, const float* src, std::size_t n);
void shmem_double_sum_reduce(shmem_team_t team, double* dst, const double* src, std::size_t n);
void shmem_double_min_reduce(shmem_team_t team, double* dst, const double* src, std::size_t n);
void shmem_double_max_reduce(shmem_team_t team, double* dst, const double* src, std::size_t n);

}  // namespace gdrshmem::capi
