#include "gdrshmem/shmem.h"

#include <cstring>

#include "core/ctx.hpp"
#include "sim/engine.hpp"

namespace gdrshmem::capi {

// The binding lives in the simulated process's user slot rather than a
// thread_local: under the fiber backend every PE shares the engine's OS
// thread, so per-OS-thread state cannot tell PEs apart.

Bind::Bind(core::Ctx& ctx) {
  proc_ = sim::Process::current();
  if (proc_ == nullptr) {
    throw core::ShmemError(
        "capi::Bind must be created inside a PE body (process context)");
  }
  if (proc_->user_slot() != nullptr) {
    throw core::ShmemError("a C-API context is already bound on this PE");
  }
  proc_->set_user_slot(&ctx);
}

Bind::~Bind() { proc_->set_user_slot(nullptr); }

core::Ctx& current() {
  sim::Process* p = sim::Process::current();
  if (p == nullptr || p->user_slot() == nullptr) {
    throw core::ShmemError(
        "no OpenSHMEM context bound: create a capi::Bind inside the PE body");
  }
  return *static_cast<core::Ctx*>(p->user_slot());
}

int shmem_my_pe() { return current().my_pe(); }
int shmem_n_pes() { return current().n_pes(); }

void shmem_info_get_version(int* major, int* minor) {
  if (major != nullptr) *major = SHMEM_MAJOR_VERSION;
  if (minor != nullptr) *minor = SHMEM_MINOR_VERSION;
}

void shmem_info_get_name(char* name) {
  if (name == nullptr) return;
  std::strncpy(name, SHMEM_VENDOR_STRING, SHMEM_MAX_NAME_LEN - 1);
  name[SHMEM_MAX_NAME_LEN - 1] = '\0';
}

const char* shmemx_transport_name() {
  return current().runtime().ib().name();
}

int shmemx_rail_count() { return current().runtime().ib().rails(); }

void* shmem_malloc(std::size_t size) {
  return current().shmalloc(size, core::Domain::kHost);
}
void* shmem_malloc(std::size_t size, core::Domain domain) {
  return current().shmalloc(size, domain);
}
void* shmem_calloc(std::size_t count, std::size_t size, core::Domain domain) {
  return current().shcalloc(count, size, domain);
}
void shmem_free(void* p) { current().shfree(p); }
void* shmem_ptr(const void* sym, int pe) { return current().shmem_ptr(sym, pe); }

void shmem_putmem(void* dst, const void* src, std::size_t n, int pe) {
  current().putmem(dst, src, n, pe);
}
void shmem_getmem(void* dst, const void* src, std::size_t n, int pe) {
  current().getmem(dst, src, n, pe);
}
void shmem_putmem_nbi(void* dst, const void* src, std::size_t n, int pe) {
  current().putmem_nbi(dst, src, n, pe);
}
void shmem_getmem_nbi(void* dst, const void* src, std::size_t n, int pe) {
  current().getmem_nbi(dst, src, n, pe);
}
void shmem_put(double* dst, const double* src, std::size_t nelems, int pe) {
  current().put(dst, src, nelems, pe);
}
void shmem_put(float* dst, const float* src, std::size_t nelems, int pe) {
  current().put(dst, src, nelems, pe);
}
void shmem_put(long long* dst, const long long* src, std::size_t nelems, int pe) {
  current().put(dst, src, nelems, pe);
}
void shmem_put(int* dst, const int* src, std::size_t nelems, int pe) {
  current().put(dst, src, nelems, pe);
}
void shmem_get(double* dst, const double* src, std::size_t nelems, int pe) {
  current().get(dst, src, nelems, pe);
}
void shmem_get(float* dst, const float* src, std::size_t nelems, int pe) {
  current().get(dst, src, nelems, pe);
}
void shmem_get(long long* dst, const long long* src, std::size_t nelems, int pe) {
  current().get(dst, src, nelems, pe);
}
void shmem_get(int* dst, const int* src, std::size_t nelems, int pe) {
  current().get(dst, src, nelems, pe);
}
void shmem_put_nbi(double* dst, const double* src, std::size_t nelems, int pe) {
  current().put_nbi(dst, src, nelems, pe);
}
void shmem_put_nbi(long long* dst, const long long* src, std::size_t nelems,
                   int pe) {
  current().put_nbi(dst, src, nelems, pe);
}
void shmem_get_nbi(double* dst, const double* src, std::size_t nelems, int pe) {
  current().get_nbi(dst, src, nelems, pe);
}
void shmem_get_nbi(long long* dst, const long long* src, std::size_t nelems,
                   int pe) {
  current().get_nbi(dst, src, nelems, pe);
}

void shmem_quiet() { current().quiet(); }
void shmem_fence() { current().fence(); }
void shmem_barrier_all() { current().barrier_all(); }

void shmem_longlong_wait_until(const long long* sym, int cmp_op, long long value) {
  core::Cmp op;
  switch (cmp_op) {
    case SHMEM_CMP_EQ: op = core::Cmp::kEq; break;
    case SHMEM_CMP_NE: op = core::Cmp::kNe; break;
    case SHMEM_CMP_GT: op = core::Cmp::kGt; break;
    case SHMEM_CMP_GE: op = core::Cmp::kGe; break;
    case SHMEM_CMP_LT: op = core::Cmp::kLt; break;
    case SHMEM_CMP_LE: op = core::Cmp::kLe; break;
    default: throw core::ShmemError("bad SHMEM_CMP_* operator");
  }
  current().wait_until(reinterpret_cast<const std::int64_t*>(sym), op,
                       static_cast<std::int64_t>(value));
}

long long shmem_atomic_fetch_add(long long* sym, long long value, int pe) {
  return current().atomic_fetch_add(reinterpret_cast<std::int64_t*>(sym), value, pe);
}
void shmem_atomic_add(long long* sym, long long value, int pe) {
  current().atomic_add(reinterpret_cast<std::int64_t*>(sym), value, pe);
}
long long shmem_atomic_fetch_inc(long long* sym, int pe) {
  return current().atomic_fetch_inc(reinterpret_cast<std::int64_t*>(sym), pe);
}
void shmem_atomic_inc(long long* sym, int pe) {
  current().atomic_inc(reinterpret_cast<std::int64_t*>(sym), pe);
}
long long shmem_atomic_swap(long long* sym, long long value, int pe) {
  return current().atomic_swap(reinterpret_cast<std::int64_t*>(sym), value, pe);
}
long long shmem_atomic_compare_swap(long long* sym, long long cond,
                                    long long value, int pe) {
  return current().atomic_compare_swap(reinterpret_cast<std::int64_t*>(sym), cond,
                                       value, pe);
}
long long shmem_atomic_fetch(const long long* sym, int pe) {
  return current().atomic_fetch(reinterpret_cast<const std::int64_t*>(sym), pe);
}
int shmem_atomic_fetch_add(int* sym, int value, int pe) {
  return current().atomic_fetch_add32(reinterpret_cast<std::int32_t*>(sym), value, pe);
}
int shmem_atomic_compare_swap(int* sym, int cond, int value, int pe) {
  return current().atomic_compare_swap32(reinterpret_cast<std::int32_t*>(sym),
                                         cond, value, pe);
}

// ---- teams -----------------------------------------------------------------

shmem_team_t shmem_team_world() { return &current().team_world(); }

int shmem_team_split_strided(shmem_team_t parent, int start, int stride,
                             int size, shmem_team_t* new_team) {
  if (parent == SHMEM_TEAM_INVALID || new_team == nullptr) return 1;
  *new_team = current().team_split_strided(*parent, start, stride, size);
  return 0;
}

int shmem_team_my_pe(shmem_team_t team) {
  return team == SHMEM_TEAM_INVALID ? -1 : team->my_pe();
}
int shmem_team_n_pes(shmem_team_t team) {
  return team == SHMEM_TEAM_INVALID ? -1 : team->n_pes();
}
int shmem_team_translate_pe(shmem_team_t src_team, int src_pe,
                            shmem_team_t dst_team) {
  if (src_team == SHMEM_TEAM_INVALID || dst_team == SHMEM_TEAM_INVALID ||
      src_pe < 0 || src_pe >= src_team->n_pes()) {
    return -1;
  }
  return core::Team::translate(*src_team, src_pe, *dst_team);
}
void shmem_team_destroy(shmem_team_t team) { current().team_destroy(team); }
void shmem_team_sync(shmem_team_t team) {
  if (team == SHMEM_TEAM_INVALID) {
    throw core::ShmemError("shmem_team_sync on SHMEM_TEAM_INVALID");
  }
  current().team_sync(*team);
}

// ---- collectives -----------------------------------------------------------

namespace {
core::Team& team_or_throw(shmem_team_t team, const char* what) {
  if (team == SHMEM_TEAM_INVALID) {
    throw core::ShmemError(std::string(what) + " on SHMEM_TEAM_INVALID");
  }
  return *team;
}
}  // namespace

void shmem_broadcastmem(void* dst, const void* src, std::size_t n, int root) {
  shmem_broadcastmem(shmem_team_world(), dst, src, n, root);
}
void shmem_broadcastmem(shmem_team_t team, void* dst, const void* src,
                        std::size_t n, int root) {
  current().team_broadcast(team_or_throw(team, "shmem_broadcastmem"), dst, src,
                           n, root);
}
void shmem_fcollectmem(void* dst, const void* src, std::size_t nbytes) {
  shmem_fcollectmem(shmem_team_world(), dst, src, nbytes);
}
void shmem_fcollectmem(shmem_team_t team, void* dst, const void* src,
                       std::size_t nbytes) {
  current().team_fcollect(team_or_throw(team, "shmem_fcollectmem"), dst, src,
                          nbytes);
}
void shmem_alltoallmem(void* dst, const void* src, std::size_t nbytes) {
  shmem_alltoallmem(shmem_team_world(), dst, src, nbytes);
}
void shmem_alltoallmem(shmem_team_t team, void* dst, const void* src,
                       std::size_t nbytes) {
  current().team_alltoall(team_or_throw(team, "shmem_alltoallmem"), dst, src,
                          nbytes);
}

// The typed reduction surface is mechanical: every (type, op) pair forwards
// to the engine on the given team (reduce), and its to_all form forwards to
// the reduce on the world team.
#define GDRSHMEM_DEFINE_REDUCE(name, ctype, itype, opk)                       \
  void name(shmem_team_t team, ctype* dst, const ctype* src, std::size_t n) { \
    current().team_reduce(team_or_throw(team, #name),                         \
                          reinterpret_cast<itype*>(dst),                      \
                          reinterpret_cast<const itype*>(src), n,             \
                          core::ReduceOp::opk);                               \
  }
#define GDRSHMEM_DEFINE_TO_ALL(name, reduce, ctype)                           \
  void name(ctype* dst, const ctype* src, std::size_t nreduce) {              \
    reduce(shmem_team_world(), dst, src, nreduce);                            \
  }

GDRSHMEM_DEFINE_REDUCE(shmem_int_sum_reduce, int, std::int32_t, kSum)
GDRSHMEM_DEFINE_REDUCE(shmem_int_min_reduce, int, std::int32_t, kMin)
GDRSHMEM_DEFINE_REDUCE(shmem_int_max_reduce, int, std::int32_t, kMax)
GDRSHMEM_DEFINE_REDUCE(shmem_long_sum_reduce, long long, std::int64_t, kSum)
GDRSHMEM_DEFINE_REDUCE(shmem_long_min_reduce, long long, std::int64_t, kMin)
GDRSHMEM_DEFINE_REDUCE(shmem_long_max_reduce, long long, std::int64_t, kMax)
GDRSHMEM_DEFINE_REDUCE(shmem_float_sum_reduce, float, float, kSum)
GDRSHMEM_DEFINE_REDUCE(shmem_float_min_reduce, float, float, kMin)
GDRSHMEM_DEFINE_REDUCE(shmem_float_max_reduce, float, float, kMax)
GDRSHMEM_DEFINE_REDUCE(shmem_double_sum_reduce, double, double, kSum)
GDRSHMEM_DEFINE_REDUCE(shmem_double_min_reduce, double, double, kMin)
GDRSHMEM_DEFINE_REDUCE(shmem_double_max_reduce, double, double, kMax)

GDRSHMEM_DEFINE_TO_ALL(shmem_int_sum_to_all, shmem_int_sum_reduce, int)
GDRSHMEM_DEFINE_TO_ALL(shmem_int_min_to_all, shmem_int_min_reduce, int)
GDRSHMEM_DEFINE_TO_ALL(shmem_int_max_to_all, shmem_int_max_reduce, int)
GDRSHMEM_DEFINE_TO_ALL(shmem_long_sum_to_all, shmem_long_sum_reduce, long long)
GDRSHMEM_DEFINE_TO_ALL(shmem_long_min_to_all, shmem_long_min_reduce, long long)
GDRSHMEM_DEFINE_TO_ALL(shmem_long_max_to_all, shmem_long_max_reduce, long long)
GDRSHMEM_DEFINE_TO_ALL(shmem_float_sum_to_all, shmem_float_sum_reduce, float)
GDRSHMEM_DEFINE_TO_ALL(shmem_float_min_to_all, shmem_float_min_reduce, float)
GDRSHMEM_DEFINE_TO_ALL(shmem_float_max_to_all, shmem_float_max_reduce, float)
GDRSHMEM_DEFINE_TO_ALL(shmem_double_sum_to_all, shmem_double_sum_reduce, double)
GDRSHMEM_DEFINE_TO_ALL(shmem_double_min_to_all, shmem_double_min_reduce, double)
GDRSHMEM_DEFINE_TO_ALL(shmem_double_max_to_all, shmem_double_max_reduce, double)

#undef GDRSHMEM_DEFINE_REDUCE
#undef GDRSHMEM_DEFINE_TO_ALL

}  // namespace gdrshmem::capi
