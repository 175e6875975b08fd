// Conformance table for the exported API: one row per function declared in
// <gdrshmem/shmem.h> and <gdrshmem/shmem_device.h>. A row is one SPMD
// program on 2 nodes x 2 PEs, run twice: once through the C function and
// once through the Ctx or DeviceCtx call it wraps. Both runs happen in the
// host and in the GPU heap domain, with RuntimeOptions::device_backend
// pinned to gpu-ib and then to reverse. The two runs must agree on the
// values the calls return, every PE's heap bytes, the final virtual time and
// the executed-event count, and each row's own check pins the bytes the call
// must leave at its target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "gdrshmem_device.h"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

constexpr int kNp = 4;              // 2 nodes x 2 PEs
constexpr std::size_t kBytes = 256;  // each of the buffers a and b
constexpr std::size_t kFlags = 8;    // words in the flag buffer
constexpr std::size_t kElems = 5;    // typed RMA element count
constexpr std::size_t kBlock = 32;   // fcollect / alltoall block
constexpr std::size_t kReduce = 6;   // reduction element count
constexpr int kA = 0;                // the pattern buffer a starts with
constexpr int kB = 1;                // the pattern buffer b starts with

unsigned char pattern(int pe, int buf, std::size_t i) {
  return static_cast<unsigned char>(pe * 37 + buf * 101 + i * 7 + 1);
}

/// Element `idx` of the T array at `p`.
template <typename T>
T load(const std::byte* p, std::size_t idx = 0) {
  T v{};
  std::memcpy(&v, p + idx * sizeof(T), sizeof(T));
  return v;
}

/// Element `idx` of `pe`'s pattern buffer `buf`, read as a T.
template <typename T>
T initial(int pe, int buf, std::size_t idx = 0) {
  std::byte raw[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    raw[i] = std::byte{pattern(pe, buf, idx * sizeof(T) + i)};
  }
  return load<T>(raw);
}

/// One PE's view of a row's program.
struct Env {
  Ctx& ctx;
  Domain dom;
  bool capi;  // call the C function (true) or the call it wraps (false)
  std::byte* a;         // symmetric, kBytes, starts as pattern(me, kA)
  std::byte* b;         // symmetric, kBytes, starts as pattern(me, kB)
  std::uint64_t* flag;  // symmetric, kFlags words, starts zero
  std::vector<std::int64_t>& rets;  // what the calls returned on this PE
  int me;
  int left;
  int right;

  template <typename T>
  T* as(std::byte* p) const {
    return reinterpret_cast<T*>(p);
  }
  long long* word(std::size_t i) const {
    return reinterpret_cast<long long*>(flag + i);
  }
  void ret(std::int64_t v) { rets.push_back(v); }
  /// Offset of `p` in `pe`'s heap of `d`, or -1 when it is not in it.
  std::int64_t offset(const void* p, int pe, Domain d) const {
    const SymmetricHeap& h = ctx.runtime().heap(pe, d);
    return h.contains(p) ? static_cast<std::int64_t>(h.offset_of(p)) : -1;
  }
  std::byte* at_offset(std::int64_t off) const {
    return ctx.runtime().heap(me, dom).base() + off;
  }
  /// `pe`'s copy of the symmetric object `p`, read directly: every PE's
  /// heap lives in this process.
  const std::byte* peer(const std::byte* p, int pe) const {
    return ctx.runtime().heap(pe, dom).base() + offset(p, me, dom);
  }
};

/// dst[dst_off, dst_off + n) must hold pattern(pe, buf) from src_off on.
void expect_copy(const Env& e, const std::byte* dst, std::size_t dst_off,
                 std::size_t n, int pe, int buf, std::size_t src_off) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto got = static_cast<unsigned>(dst[dst_off + i]);
    const unsigned want = pattern(pe, buf, src_off + i);
    if (got != want) {
      ADD_FAILURE() << "PE " << e.me << " byte " << dst_off + i << ": " << got
                    << ", want byte " << src_off + i << " of PE " << pe
                    << "'s buffer " << buf << " (" << want << ")";
      return;
    }
  }
}

/// Bytes [from, kBytes) of a still hold its starting pattern.
void expect_a_untouched(const Env& e, std::size_t from = 0) {
  expect_copy(e, e.a, from, kBytes - from, e.me, kA, from);
}

/// The first `n` bytes of a hold `pe`'s b, the rest is untouched.
void expect_a_holds(const Env& e, int pe, std::size_t n = kBytes) {
  expect_copy(e, e.a, 0, n, pe, kB, 0);
  expect_a_untouched(e, n);
}

/// Whether dst[0, n) holds pattern(pe, buf) from byte 0 on.
bool holds(const std::byte* dst, std::size_t n, int pe, int buf) {
  for (std::size_t i = 0; i < n; ++i) {
    if (dst[i] != std::byte{pattern(pe, buf, i)}) return false;
  }
  return true;
}

/// Records, right after a quiet, whether the first `n` bytes an RMA from b
/// into a moved are in place: a get's result in this PE's a, a put's
/// payload in the right neighbour's a.
void record_landed(Env& e, std::size_t n, bool is_get) {
  e.ret(is_get ? holds(e.a, n, e.right, kB)
               : holds(e.peer(e.a, e.right), n, e.me, kB));
}

/// The check of an RMA row: an nbi row's data was in place at its quiet,
/// and a holds the left (put) or right (get) neighbour's b.
void expect_rma_done(const Env& e, std::size_t n, bool is_get, bool nbi) {
  if (nbi) {
    EXPECT_EQ(e.rets[0], 1) << "not in place at quiet";
  }
  expect_a_holds(e, is_get ? e.right : e.left, n);
}

bool same_node(const Env& e, int pe) {
  return e.ctx.runtime().cluster().same_node(e.me, pe);
}

/// World PEs 1..3 as a team; nullptr on PE 0.
Team* split_upper(Env& e) {
  return e.ctx.team_split_strided(e.ctx.team_world(), 1, 1, kNp - 1);
}

void in_kernel(Env& e, const std::function<void(DeviceCtx&)>& body) {
  e.ctx.launch_kernel_device(1.0, DeviceScope::kThread, body);
}

struct Row {
  const char* fn;    // the declared function the row calls
  const char* name;  // test-name suffix, unique across overloads
  std::function<void(Env&)> call;
  std::function<void(Env&)> check;  // runs after the closing barrier
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

// ---- row families ----------------------------------------------------------

constexpr bool kPut = false;
constexpr bool kGet = true;
constexpr bool kBlocking = false;
constexpr bool kNbi = true;

/// A put or get of kBytes from b into a; nbi forms must be in place at a
/// quiet.
Row mem_rma(const char* fn,
            void (*c_call)(void*, const void*, std::size_t, int),
            void (Ctx::*ctx_call)(void*, const void*, std::size_t, int),
            bool is_get, bool nbi) {
  return {fn, fn,
          [=](Env& e) {
            if (e.capi) {
              c_call(e.a, e.b, kBytes, e.right);
            } else {
              (e.ctx.*ctx_call)(e.a, e.b, kBytes, e.right);
            }
            if (nbi) {
              e.ctx.quiet();
              record_landed(e, kBytes, is_get);
            }
          },
          [=](Env& e) { expect_rma_done(e, kBytes, is_get, nbi); }};
}

/// The same from inside a kernel; nbi forms must be in place at a device
/// quiet.
Row device_mem_rma(
    const char* fn,
    void (*c_call)(capi::shmemx_device_ctx_t, void*, const void*, std::size_t,
                   int),
    void (DeviceCtx::*dev_call)(void*, const void*, std::size_t, int),
    bool is_get, bool nbi) {
  return {fn, fn,
          [=](Env& e) {
            in_kernel(e, [&](DeviceCtx& d) {
              if (e.capi) {
                c_call(&d, e.a, e.b, kBytes, e.right);
              } else {
                (d.*dev_call)(e.a, e.b, kBytes, e.right);
              }
              if (nbi) {
                d.quiet();
                record_landed(e, kBytes, is_get);
              }
            });
          },
          [=](Env& e) { expect_rma_done(e, kBytes, is_get, nbi); }};
}

template <typename T>
using CRma = void (*)(T*, const T*, std::size_t, int);
template <typename T>
using CtxRma = void (Ctx::*)(T*, const T*, std::size_t, int);

/// A typed put or get of kElems elements from b into a; nbi forms must be
/// in place at a quiet.
template <typename T>
Row typed_rma(const char* fn, const char* name, CRma<T> c_call,
              CtxRma<T> ctx_call, bool is_get, bool nbi) {
  return {fn, name,
          [=](Env& e) {
            if (e.capi) {
              c_call(e.as<T>(e.a), e.as<T>(e.b), kElems, e.right);
            } else {
              (e.ctx.*ctx_call)(e.as<T>(e.a), e.as<T>(e.b), kElems, e.right);
            }
            if (nbi) {
              e.ctx.quiet();
              record_landed(e, kElems * sizeof(T), is_get);
            }
          },
          [=](Env& e) {
            expect_rma_done(e, kElems * sizeof(T), is_get, nbi);
          }};
}

template <typename T>
T reduce_input(int pe, std::size_t i) {
  return static_cast<T>(static_cast<int>((pe * 5 + i * 3) % 11) - 4);
}

/// Element i of the reduction of reduce_input over world PEs first..kNp-1.
template <typename T>
T reduced(ReduceOp op, int first, std::size_t i) {
  T acc = reduce_input<T>(first, i);
  for (int pe = first + 1; pe < kNp; ++pe) {
    const T v = reduce_input<T>(pe, i);
    acc = op == ReduceOp::kSum ? static_cast<T>(acc + v)
          : op == ReduceOp::kMin ? std::min(acc, v)
                                 : std::max(acc, v);
  }
  return acc;
}

template <typename T>
void fill_reduce_input(Env& e) {
  for (std::size_t i = 0; i < kReduce; ++i) {
    e.as<T>(e.b)[i] = reduce_input<T>(e.me, i);
  }
  e.ctx.barrier_all();
}

template <typename T>
void expect_reduced(const Env& e, ReduceOp op, int first) {
  if (e.me < first) {
    expect_a_untouched(e);
    return;
  }
  for (std::size_t i = 0; i < kReduce; ++i) {
    EXPECT_EQ(load<T>(e.a, i), reduced<T>(op, first, i))
        << "PE " << e.me << " element " << i;
  }
  expect_a_untouched(e, kReduce * sizeof(T));
}

/// shmem_<T>_<op>_to_all vs team_reduce on the world team.
template <typename T, typename I>
Row to_all(const char* name, void (*fn)(T*, const T*, std::size_t),
           ReduceOp op) {
  return {name, name,
          [fn, op](Env& e) {
            fill_reduce_input<T>(e);
            if (e.capi) {
              fn(e.as<T>(e.a), e.as<T>(e.b), kReduce);
            } else {
              e.ctx.team_reduce(e.ctx.team_world(), e.as<I>(e.a),
                                e.as<I>(e.b), kReduce, op);
            }
          },
          [op](Env& e) { expect_reduced<T>(e, op, 0); }};
}

/// shmem_<T>_<op>_reduce vs team_reduce, on world PEs 1..3.
template <typename T, typename I>
Row team_reduce(const char* name,
                void (*fn)(capi::shmem_team_t, T*, const T*, std::size_t),
                ReduceOp op) {
  return {name, name,
          [fn, op](Env& e) {
            fill_reduce_input<T>(e);
            Team* t = split_upper(e);
            if (t != nullptr) {
              if (e.capi) {
                fn(t, e.as<T>(e.a), e.as<T>(e.b), kReduce);
              } else {
                e.ctx.team_reduce(*t, e.as<I>(e.a), e.as<I>(e.b), kReduce, op);
              }
            }
            e.ctx.team_destroy(t);
          },
          [op](Env& e) { expect_reduced<T>(e, op, 1); }};
}

/// shmem_longlong_wait_until with each SHMEM_CMP_* op against 7 while the
/// left neighbour ramps the word 0..14 up, then 14..0 down, one step per
/// microsecond. Each op first accepts a different (up, down) pair of
/// values, so the value seen on return names the comparison that ran.
/// Even PEs ramp while odd PEs wait, then the other way round.
void wait_on_ramps(Env& e) {
  const std::pair<int, Cmp> ops[] = {
      {capi::SHMEM_CMP_EQ, Cmp::kEq}, {capi::SHMEM_CMP_NE, Cmp::kNe},
      {capi::SHMEM_CMP_GT, Cmp::kGt}, {capi::SHMEM_CMP_GE, Cmp::kGe},
      {capi::SHMEM_CMP_LT, Cmp::kLt}, {capi::SHMEM_CMP_LE, Cmp::kLe}};
  long long* word = e.word(1);
  for (const auto& [c_op, op] : ops) {
    for (bool up : {true, false}) {
      for (int waiting = 0; waiting < 2; ++waiting) {
        *word = up ? 0 : 14;
        e.ctx.barrier_all();
        if (e.me % 2 == waiting) {
          if (e.capi) {
            capi::shmem_longlong_wait_until(word, c_op, 7);
          } else {
            e.ctx.wait_until<long long>(word, op, 7);
          }
          e.ret(*word);
        } else {
          for (long long step = 1; step <= 14; ++step) {
            e.ctx.compute(sim::Duration::us(1));
            e.ctx.p(word, up ? step : 14 - step, e.right);
          }
        }
        e.ctx.barrier_all();
      }
    }
  }
}

// ---- the table -------------------------------------------------------------

std::vector<Row> host_rows() {
  std::vector<Row> table;

  // Setup and queries.
  table.push_back(
      {"shmem_my_pe", "shmem_my_pe",
       [](Env& e) {
         e.ret(e.capi ? capi::shmem_my_pe() : e.ctx.my_pe());
       },
       [](Env& e) { EXPECT_EQ(e.rets[0], e.me); }});
  table.push_back(
      {"shmem_n_pes", "shmem_n_pes",
       [](Env& e) {
         e.ret(e.capi ? capi::shmem_n_pes() : e.ctx.n_pes());
       },
       [](Env& e) { EXPECT_EQ(e.rets[0], kNp); }});
  table.push_back(
      {"shmem_info_get_version", "shmem_info_get_version",
       [](Env& e) {
         int major = -1;
         int minor = -1;
         if (e.capi) {
           capi::shmem_info_get_version(&major, &minor);
         } else {
           major = SHMEM_MAJOR_VERSION;
           minor = SHMEM_MINOR_VERSION;
         }
         e.ret(major);
         e.ret(minor);
       },
       [](Env& e) {
         EXPECT_EQ(e.rets[0], 1);
         EXPECT_EQ(e.rets[1], 4);
       }});
  table.push_back(
      {"shmem_info_get_name", "shmem_info_get_name",
       [](Env& e) {
         char name[capi::SHMEM_MAX_NAME_LEN];
         if (e.capi) {
           capi::shmem_info_get_name(name);
         } else {
           std::strncpy(name, SHMEM_VENDOR_STRING, sizeof name - 1);
           name[sizeof name - 1] = '\0';
         }
         std::memcpy(e.a, name, sizeof name);
       },
       [](Env& e) {
         EXPECT_STREQ(e.as<const char>(e.a), SHMEM_VENDOR_STRING);
       }});
  table.push_back(
      {"shmemx_transport_name", "shmemx_transport_name",
       [](Env& e) {
         const char* name = e.capi ? capi::shmemx_transport_name()
                                   : e.ctx.runtime().ib().name();
         std::strncpy(e.as<char>(e.a), name, 16);
       },
       [](Env& e) {
         EXPECT_STREQ(
             e.as<const char>(e.a),
             ib::to_string(e.ctx.runtime().options().ib_transport));
       }});
  table.push_back(
      {"shmemx_rail_count", "shmemx_rail_count",
       [](Env& e) {
         e.ret(e.capi ? capi::shmemx_rail_count()
                      : e.ctx.runtime().ib().rails());
       },
       [](Env& e) {
         EXPECT_EQ(e.rets[0], e.ctx.runtime().options().ib_rails);
       }});

  // Symmetric memory.
  table.push_back(
      {"shmem_malloc", "shmem_malloc",
       [](Env& e) {
         void* p = e.capi ? capi::shmem_malloc(64)
                          : e.ctx.shmalloc(64, Domain::kHost);
         e.ret(e.offset(p, e.me, Domain::kHost));
         // Symmetric: the same block exists on the right neighbour.
         e.ctx.putmem(p, e.b, 64, e.right);
       },
       [](Env& e) {
         ASSERT_GE(e.rets[0], 0) << "not in the host heap";
         expect_copy(e, e.ctx.runtime().heap(e.me, Domain::kHost).base(),
                     static_cast<std::size_t>(e.rets[0]), 64, e.left, kB,
                     0);
       }});
  table.push_back(
      {"shmem_malloc", "shmem_malloc_domain",
       [](Env& e) {
         void* p = e.capi ? capi::shmem_malloc(64, e.dom)
                          : e.ctx.shmalloc(64, e.dom);
         e.ret(e.offset(p, e.me, e.dom));
         e.ctx.putmem(p, e.b, 64, e.right);
       },
       [](Env& e) {
         ASSERT_GE(e.rets[0], 0) << "not in the " << to_string(e.dom)
                                 << " heap";
         expect_copy(e, e.at_offset(e.rets[0]), 0, 64, e.left, kB, 0);
       }});
  table.push_back(
      {"shmem_calloc", "shmem_calloc",
       [](Env& e) {
         // Dirty a block and free it, so the calloc reuses its bytes.
         void* dirty = e.ctx.shmalloc(64, e.dom);
         std::memset(dirty, 0xab, 64);
         e.ctx.shfree(dirty);
         void* p = e.capi ? capi::shmem_calloc(8, 8, e.dom)
                          : e.ctx.shcalloc(8, 8, e.dom);
         e.ret(e.offset(p, e.me, e.dom));
         // Right after the call: must survive the peer's zeroing.
         e.ctx.p(static_cast<long long*>(p) + 1, 1000LL + e.me, e.right);
       },
       [](Env& e) {
         ASSERT_GE(e.rets[0], 0);
         const auto* w = reinterpret_cast<const long long*>(
             e.at_offset(e.rets[0]));
         for (int i = 0; i < 8; ++i) {
           EXPECT_EQ(w[i], i == 1 ? 1000LL + e.left : 0) << "word " << i;
         }
       }});
  table.push_back(
      {"shmem_free", "shmem_free",
       [](Env& e) {
         void* p = e.ctx.shmalloc(64, e.dom);
         if (e.capi) {
           capi::shmem_free(p);
         } else {
           e.ctx.shfree(p);
         }
         // The reclaimed space is handed out again.
         void* again = e.ctx.shmalloc(64, e.dom);
         e.ret(e.offset(p, e.me, e.dom));
         e.ret(e.offset(again, e.me, e.dom));
       },
       [](Env& e) { EXPECT_EQ(e.rets[0], e.rets[1]); }});
  table.push_back(
      {"shmem_ptr", "shmem_ptr",
       [](Env& e) {
         void* p = e.capi ? capi::shmem_ptr(e.a, e.right)
                          : e.ctx.shmem_ptr(e.a, e.right);
         e.ret(e.offset(p, e.right, e.dom));
         if (p != nullptr) {
           const long long tag = 4242 + e.me;
           std::memcpy(p, &tag, sizeof tag);
         }
       },
       [](Env& e) {
         const bool mapped =
             e.dom == Domain::kHost && same_node(e, e.right);
         EXPECT_EQ(e.rets[0], mapped ? e.offset(e.a, e.me, e.dom) : -1);
         if (e.dom == Domain::kHost && same_node(e, e.left)) {
           EXPECT_EQ(load<long long>(e.a), 4242 + e.left);
           expect_a_untouched(e, sizeof(long long));
         } else {
           expect_a_untouched(e);
         }
       }});

  // RMA.
  table.push_back(mem_rma("shmem_putmem", capi::shmem_putmem, &Ctx::putmem,
                          kPut, kBlocking));
  table.push_back(mem_rma("shmem_getmem", capi::shmem_getmem, &Ctx::getmem,
                          kGet, kBlocking));
  table.push_back(mem_rma("shmem_putmem_nbi", capi::shmem_putmem_nbi,
                          &Ctx::putmem_nbi, kPut, kNbi));
  table.push_back(mem_rma("shmem_getmem_nbi", capi::shmem_getmem_nbi,
                          &Ctx::getmem_nbi, kGet, kNbi));
  // Typed RMA, named after the function and the element type.
#define TYPED_RMA(T, label, fn, ctx_fn, is_get, nbi)                      \
  table.push_back(typed_rma<T>(#fn, #fn "_" #label, capi::fn,             \
                               &Ctx::ctx_fn<T>, is_get, nbi))
  TYPED_RMA(double, double, shmem_put, put, kPut, kBlocking);
  TYPED_RMA(float, float, shmem_put, put, kPut, kBlocking);
  TYPED_RMA(long long, longlong, shmem_put, put, kPut, kBlocking);
  TYPED_RMA(int, int, shmem_put, put, kPut, kBlocking);
  TYPED_RMA(double, double, shmem_get, get, kGet, kBlocking);
  TYPED_RMA(float, float, shmem_get, get, kGet, kBlocking);
  TYPED_RMA(long long, longlong, shmem_get, get, kGet, kBlocking);
  TYPED_RMA(int, int, shmem_get, get, kGet, kBlocking);
  TYPED_RMA(double, double, shmem_put_nbi, put_nbi, kPut, kNbi);
  TYPED_RMA(long long, longlong, shmem_put_nbi, put_nbi, kPut, kNbi);
  TYPED_RMA(double, double, shmem_get_nbi, get_nbi, kGet, kNbi);
  TYPED_RMA(long long, longlong, shmem_get_nbi, get_nbi, kGet, kNbi);
#undef TYPED_RMA

  // Ordering and synchronization: each waits on an outstanding put.
  table.push_back(
      {"shmem_quiet", "shmem_quiet",
       [](Env& e) {
         e.ctx.putmem_nbi(e.a, e.b, kBytes, e.right);
         if (e.capi) {
           capi::shmem_quiet();
         } else {
           e.ctx.quiet();
         }
       },
       [](Env& e) { expect_a_holds(e, e.left); }});
  table.push_back(
      {"shmem_fence", "shmem_fence",
       [](Env& e) {
         e.ctx.putmem_nbi(e.a, e.b, kBytes, e.right);
         if (e.capi) {
           capi::shmem_fence();
         } else {
           e.ctx.fence();
         }
       },
       [](Env& e) { expect_a_holds(e, e.left); }});
  table.push_back(
      {"shmem_barrier_all", "shmem_barrier_all",
       [](Env& e) {
         e.ctx.putmem_nbi(e.a, e.b, kBytes, e.right);
         if (e.capi) {
           capi::shmem_barrier_all();
         } else {
           e.ctx.barrier_all();
         }
         // Complete everywhere once the barrier returns.
         e.ret(std::memcmp(e.a, e.b, 8) != 0);
       },
       [](Env& e) {
         EXPECT_EQ(e.rets[0], 1);
         expect_a_holds(e, e.left);
       }});
  table.push_back(
      {"shmem_longlong_wait_until", "shmem_longlong_wait_until",
       [](Env& e) { wait_on_ramps(e); },
       [](Env& e) {
         // First value each SHMEM_CMP_* op against 7 accepts on the
         // way up, then on the way down.
         const std::vector<std::int64_t> want = {
             7, 7,    // EQ
             0, 14,   // NE
             8, 14,   // GT
             7, 14,   // GE
             0, 6,    // LT
             0, 7};   // LE
         EXPECT_EQ(std::vector<std::int64_t>(e.rets.begin(),
                                             e.rets.end() - 1),
                   want);
       }});

  // Atomics on the first word of a (the 32-bit forms on its upper half).
  const auto init64 = [](int pe) { return initial<long long>(pe, kA); };
  const auto init32 = [](int pe) { return initial<int>(pe, kA, 1); };
  table.push_back(
      {"shmem_atomic_fetch_add", "shmem_atomic_fetch_add_longlong",
       [](Env& e) {
         e.ret(e.capi ? capi::shmem_atomic_fetch_add(
                            e.as<long long>(e.a), 5LL + e.me, e.right)
                      : e.ctx.atomic_fetch_add(e.as<std::int64_t>(e.a),
                                               5 + e.me, e.right));
       },
       [init64](Env& e) {
         EXPECT_EQ(e.rets[0], init64(e.right));
         EXPECT_EQ(load<long long>(e.a), init64(e.me) + 5 + e.left);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmem_atomic_add", "shmem_atomic_add",
       [](Env& e) {
         if (e.capi) {
           capi::shmem_atomic_add(e.as<long long>(e.a), 5LL + e.me,
                                  e.right);
         } else {
           e.ctx.atomic_add(e.as<std::int64_t>(e.a), 5 + e.me, e.right);
         }
       },
       [init64](Env& e) {
         EXPECT_EQ(load<long long>(e.a), init64(e.me) + 5 + e.left);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmem_atomic_fetch_inc", "shmem_atomic_fetch_inc",
       [](Env& e) {
         e.ret(e.capi ? capi::shmem_atomic_fetch_inc(
                            e.as<long long>(e.a), e.right)
                      : e.ctx.atomic_fetch_inc(e.as<std::int64_t>(e.a),
                                               e.right));
       },
       [init64](Env& e) {
         EXPECT_EQ(e.rets[0], init64(e.right));
         EXPECT_EQ(load<long long>(e.a), init64(e.me) + 1);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmem_atomic_inc", "shmem_atomic_inc",
       [](Env& e) {
         if (e.capi) {
           capi::shmem_atomic_inc(e.as<long long>(e.a), e.right);
         } else {
           e.ctx.atomic_inc(e.as<std::int64_t>(e.a), e.right);
         }
       },
       [init64](Env& e) {
         EXPECT_EQ(load<long long>(e.a), init64(e.me) + 1);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmem_atomic_swap", "shmem_atomic_swap",
       [](Env& e) {
         e.ret(e.capi ? capi::shmem_atomic_swap(e.as<long long>(e.a),
                                                100LL + e.me, e.right)
                      : e.ctx.atomic_swap(e.as<std::int64_t>(e.a),
                                          100 + e.me, e.right));
       },
       [init64](Env& e) {
         EXPECT_EQ(e.rets[0], init64(e.right));
         EXPECT_EQ(load<long long>(e.a), 100 + e.left);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmem_atomic_compare_swap",
           "shmem_atomic_compare_swap_longlong",
       [init64](Env& e) {
         // A failing compare first, then a matching one.
         for (long long cond : {init64(e.right) + 1, init64(e.right)}) {
           e.ret(e.capi ? capi::shmem_atomic_compare_swap(
                              e.as<long long>(e.a), cond, 100LL + e.me,
                              e.right)
                        : e.ctx.atomic_compare_swap(
                              e.as<std::int64_t>(e.a), cond, 100 + e.me,
                              e.right));
         }
       },
       [init64](Env& e) {
         EXPECT_EQ(e.rets[0], init64(e.right));
         EXPECT_EQ(e.rets[1], init64(e.right));
         EXPECT_EQ(load<long long>(e.a), 100 + e.left);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmem_atomic_fetch", "shmem_atomic_fetch",
       [](Env& e) {
         e.ret(e.capi ? capi::shmem_atomic_fetch(e.as<long long>(e.a),
                                                 e.right)
                      : e.ctx.atomic_fetch(e.as<std::int64_t>(e.a),
                                           e.right));
       },
       [init64](Env& e) {
         EXPECT_EQ(e.rets[0], init64(e.right));
         expect_a_untouched(e);
       }});
  table.push_back(
      {"shmem_atomic_fetch_add", "shmem_atomic_fetch_add_int",
       [](Env& e) {
         int* w = e.as<int>(e.a) + 1;
         e.ret(e.capi
                   ? capi::shmem_atomic_fetch_add(w, 3 + e.me, e.right)
                   : e.ctx.atomic_fetch_add32(w, 3 + e.me, e.right));
       },
       [init32](Env& e) {
         EXPECT_EQ(e.rets[0], init32(e.right));
         EXPECT_EQ(load<int>(e.a, 1), init32(e.me) + 3 + e.left);
         expect_copy(e, e.a, 0, 4, e.me, kA, 0);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmem_atomic_compare_swap", "shmem_atomic_compare_swap_int",
       [init32](Env& e) {
         int* w = e.as<int>(e.a) + 1;
         for (int cond : {init32(e.right) + 1, init32(e.right)}) {
           e.ret(e.capi ? capi::shmem_atomic_compare_swap(
                              w, cond, 100 + e.me, e.right)
                        : e.ctx.atomic_compare_swap32(
                              w, cond, 100 + e.me, e.right));
         }
       },
       [init32](Env& e) {
         EXPECT_EQ(e.rets[0], init32(e.right));
         EXPECT_EQ(e.rets[1], init32(e.right));
         EXPECT_EQ(load<int>(e.a, 1), 100 + e.left);
         expect_copy(e, e.a, 0, 4, e.me, kA, 0);
         expect_a_untouched(e, 8);
       }});

  // Teams: the split ones hold world PEs 1..3.
  table.push_back(
      {"shmem_team_world", "shmem_team_world",
       [](Env& e) {
         Team* w =
             e.capi ? capi::shmem_team_world() : &e.ctx.team_world();
         e.ret(w == &e.ctx.team_world());
         e.ret(w->my_pe());
         e.ret(w->n_pes());
       },
       [](Env& e) {
         EXPECT_EQ(e.rets[0], 1);
         EXPECT_EQ(e.rets[1], e.me);
         EXPECT_EQ(e.rets[2], kNp);
       }});
  table.push_back(
      {"shmem_team_split_strided", "shmem_team_split_strided",
       [](Env& e) {
         // The odd world PEs: start 1, stride 2, size 2.
         Team* t = nullptr;
         if (e.capi) {
           e.ret(capi::shmem_team_split_strided(capi::shmem_team_world(), 1,
                                                2, 2, &t));
         } else {
           t = e.ctx.team_split_strided(e.ctx.team_world(), 1, 2, 2);
           e.ret(0);
         }
         e.ret(t != nullptr ? t->my_pe() : -1);
         e.ret(t != nullptr ? t->n_pes() : -1);
         e.ret(t != nullptr ? t->slot() : -1);
         e.ctx.team_destroy(t);
       },
       [](Env& e) {
         const bool member = e.me % 2 == 1;
         EXPECT_EQ(e.rets[0], 0);
         EXPECT_EQ(e.rets[1], member ? e.me / 2 : -1);
         EXPECT_EQ(e.rets[2], member ? 2 : -1);
         EXPECT_EQ(e.rets[3], member ? 1 : -1);
       }});
  table.push_back(
      {"shmem_team_my_pe", "shmem_team_my_pe",
       [](Env& e) {
         Team* t = split_upper(e);
         e.ret(e.capi ? capi::shmem_team_my_pe(t)
                      : (t != nullptr ? t->my_pe() : -1));
         e.ctx.team_destroy(t);
       },
       [](Env& e) { EXPECT_EQ(e.rets[0], e.me - 1); }});
  table.push_back(
      {"shmem_team_n_pes", "shmem_team_n_pes",
       [](Env& e) {
         Team* t = split_upper(e);
         e.ret(e.capi ? capi::shmem_team_n_pes(t)
                      : (t != nullptr ? t->n_pes() : -1));
         e.ctx.team_destroy(t);
       },
       [](Env& e) { EXPECT_EQ(e.rets[0], e.me == 0 ? -1 : kNp - 1); }});
  table.push_back(
      {"shmem_team_translate_pe", "shmem_team_translate_pe",
       [](Env& e) {
         Team* t = split_upper(e);
         Team& world = e.ctx.team_world();
         // Team index 0 in world numbering, then world PE 0 (not a
         // member) in the team's.
         if (e.capi) {
           e.ret(capi::shmem_team_translate_pe(t, 0, &world));
           e.ret(capi::shmem_team_translate_pe(&world, 0, t));
         } else {
           e.ret(t != nullptr ? Team::translate(*t, 0, world) : -1);
           e.ret(t != nullptr ? Team::translate(world, 0, *t) : -1);
         }
         e.ctx.team_destroy(t);
       },
       [](Env& e) {
         EXPECT_EQ(e.rets[0], e.me == 0 ? -1 : 1);
         EXPECT_EQ(e.rets[1], -1);
       }});
  table.push_back(
      {"shmem_team_destroy", "shmem_team_destroy",
       [](Env& e) {
         Team* t = split_upper(e);
         e.ret(t != nullptr ? t->slot() : -1);
         if (e.capi) {
           capi::shmem_team_destroy(t);
         } else {
           e.ctx.team_destroy(t);
         }
         // The destroyed team's sync-pool slot is free again.
         Team* again = split_upper(e);
         e.ret(again != nullptr ? again->slot() : -1);
         e.ctx.team_destroy(again);
       },
       [](Env& e) {
         EXPECT_EQ(e.rets[0], e.me == 0 ? -1 : 1);
         EXPECT_EQ(e.rets[1], e.rets[0]);
       }});
  table.push_back(
      {"shmem_team_sync", "shmem_team_sync",
       [](Env& e) {
         Team* t = split_upper(e);
         if (t != nullptr) {
           // Members arrive 1, 2 and 3 us apart; each stamps its arrival
           // into the first word of a.
           e.ctx.compute(sim::Duration::us(e.me));
           const std::int64_t arrived = e.ctx.now().count_ns();
           std::memcpy(e.a, &arrived, sizeof arrived);
           if (e.capi) {
             capi::shmem_team_sync(t);
           } else {
             e.ctx.team_sync(*t);
           }
         }
         e.ret(e.ctx.now().count_ns());
         e.ctx.team_destroy(t);
       },
       [](Env& e) {
         if (e.me == 0) {
           expect_a_untouched(e);
           return;
         }
         // No member leaves before the last one arrived.
         std::int64_t last = 0;
         for (int pe = 1; pe < kNp; ++pe) {
           last = std::max(last, load<std::int64_t>(e.peer(e.a, pe)));
         }
         EXPECT_GE(e.rets[0], last);
       }});

  // Collectives: the teamless forms run on the world team, the team forms
  // on world PEs 1..3.
  table.push_back(
      {"shmem_broadcastmem", "shmem_broadcastmem",
       [](Env& e) {
         if (e.capi) {
           capi::shmem_broadcastmem(e.a, e.b, kBytes, 2);
         } else {
           e.ctx.team_broadcast(e.ctx.team_world(), e.a, e.b, kBytes, 2);
         }
       },
       [](Env& e) {
         if (e.me == 2) {
           expect_a_untouched(e);
         } else {
           expect_a_holds(e, 2);
         }
       }});
  table.push_back(
      {"shmem_broadcastmem", "shmem_broadcastmem_team",
       [](Env& e) {
         Team* t = split_upper(e);
         if (t != nullptr) {
           if (e.capi) {
             capi::shmem_broadcastmem(t, e.a, e.b, kBytes, 1);
           } else {
             e.ctx.team_broadcast(*t, e.a, e.b, kBytes, 1);
           }
         }
         e.ctx.team_destroy(t);
       },
       [](Env& e) {
         if (e.me == 0 || e.me == 2) {
           expect_a_untouched(e);
         } else {
           expect_a_holds(e, 2);
         }
       }});
  table.push_back(
      {"shmem_fcollectmem", "shmem_fcollectmem",
       [](Env& e) {
         if (e.capi) {
           capi::shmem_fcollectmem(e.a, e.b, kBlock);
         } else {
           e.ctx.team_fcollect(e.ctx.team_world(), e.a, e.b, kBlock);
         }
       },
       [](Env& e) {
         for (int pe = 0; pe < kNp; ++pe) {
           expect_copy(e, e.a, pe * kBlock, kBlock, pe, kB, 0);
         }
         expect_a_untouched(e, kNp * kBlock);
       }});
  table.push_back(
      {"shmem_fcollectmem", "shmem_fcollectmem_team",
       [](Env& e) {
         Team* t = split_upper(e);
         if (t != nullptr) {
           if (e.capi) {
             capi::shmem_fcollectmem(t, e.a, e.b, kBlock);
           } else {
             e.ctx.team_fcollect(*t, e.a, e.b, kBlock);
           }
         }
         e.ctx.team_destroy(t);
       },
       [](Env& e) {
         if (e.me == 0) {
           expect_a_untouched(e);
           return;
         }
         for (int k = 0; k < kNp - 1; ++k) {
           expect_copy(e, e.a, k * kBlock, kBlock, 1 + k, kB, 0);
         }
         expect_a_untouched(e, (kNp - 1) * kBlock);
       }});
  table.push_back(
      {"shmem_alltoallmem", "shmem_alltoallmem",
       [](Env& e) {
         if (e.capi) {
           capi::shmem_alltoallmem(e.a, e.b, kBlock);
         } else {
           e.ctx.team_alltoall(e.ctx.team_world(), e.a, e.b, kBlock);
         }
       },
       [](Env& e) {
         for (int pe = 0; pe < kNp; ++pe) {
           expect_copy(e, e.a, pe * kBlock, kBlock, pe, kB,
                       e.me * kBlock);
         }
         expect_a_untouched(e, kNp * kBlock);
       }});
  table.push_back(
      {"shmem_alltoallmem", "shmem_alltoallmem_team",
       [](Env& e) {
         Team* t = split_upper(e);
         if (t != nullptr) {
           if (e.capi) {
             capi::shmem_alltoallmem(t, e.a, e.b, kBlock);
           } else {
             e.ctx.team_alltoall(*t, e.a, e.b, kBlock);
           }
         }
         e.ctx.team_destroy(t);
       },
       [](Env& e) {
         if (e.me == 0) {
           expect_a_untouched(e);
           return;
         }
         for (int k = 0; k < kNp - 1; ++k) {
           expect_copy(e, e.a, k * kBlock, kBlock, 1 + k, kB,
                       (e.me - 1) * kBlock);
         }
         expect_a_untouched(e, (kNp - 1) * kBlock);
       }});

  // Reductions over every (type, op) pair. `I` is the fixed-width type the
  // C type maps to.
  const ReduceOp kSum = ReduceOp::kSum;
  const ReduceOp kMin = ReduceOp::kMin;
  const ReduceOp kMax = ReduceOp::kMax;
#define TO_ALL(T, I, fn, op) table.push_back(to_all<T, I>(#fn, capi::fn, op))
#define REDUCE(T, I, fn, op) \
  table.push_back(team_reduce<T, I>(#fn, capi::fn, op))
  TO_ALL(int, std::int32_t, shmem_int_sum_to_all, kSum);
  TO_ALL(int, std::int32_t, shmem_int_min_to_all, kMin);
  TO_ALL(int, std::int32_t, shmem_int_max_to_all, kMax);
  TO_ALL(long long, std::int64_t, shmem_long_sum_to_all, kSum);
  TO_ALL(long long, std::int64_t, shmem_long_min_to_all, kMin);
  TO_ALL(long long, std::int64_t, shmem_long_max_to_all, kMax);
  TO_ALL(float, float, shmem_float_sum_to_all, kSum);
  TO_ALL(float, float, shmem_float_min_to_all, kMin);
  TO_ALL(float, float, shmem_float_max_to_all, kMax);
  TO_ALL(double, double, shmem_double_sum_to_all, kSum);
  TO_ALL(double, double, shmem_double_min_to_all, kMin);
  TO_ALL(double, double, shmem_double_max_to_all, kMax);
  REDUCE(int, std::int32_t, shmem_int_sum_reduce, kSum);
  REDUCE(int, std::int32_t, shmem_int_min_reduce, kMin);
  REDUCE(int, std::int32_t, shmem_int_max_reduce, kMax);
  REDUCE(long long, std::int64_t, shmem_long_sum_reduce, kSum);
  REDUCE(long long, std::int64_t, shmem_long_min_reduce, kMin);
  REDUCE(long long, std::int64_t, shmem_long_max_reduce, kMax);
  REDUCE(float, float, shmem_float_sum_reduce, kSum);
  REDUCE(float, float, shmem_float_min_reduce, kMin);
  REDUCE(float, float, shmem_float_max_reduce, kMax);
  REDUCE(double, double, shmem_double_sum_reduce, kSum);
  REDUCE(double, double, shmem_double_min_reduce, kMin);
  REDUCE(double, double, shmem_double_max_reduce, kMax);
#undef TO_ALL
#undef REDUCE
  return table;
}

std::vector<Row> device_rows() {
  std::vector<Row> table;
  const auto init64 = [](int pe) { return initial<long long>(pe, kA); };

  table.push_back(
      {"shmemx_launch_kernel", "shmemx_launch_kernel",
       [](Env& e) {
         // A warp-scoped kernel charging 2 ns per cell.
         auto body = [&](DeviceCtx& d) {
           e.ret(static_cast<int>(d.scope()));
           d.putmem(e.a, e.b, kBytes, e.right);
           d.compute(100);
         };
         if (e.capi) {
           capi::shmemx_launch_kernel(
               e.ctx, 2.0, capi::SHMEMX_SCOPE_WARP,
               [&](capi::shmemx_device_ctx_t d) { body(*d); });
         } else {
           e.ctx.launch_kernel_device(2.0, DeviceScope::kWarp, body);
         }
       },
       [](Env& e) {
         EXPECT_EQ(e.rets[0], static_cast<int>(DeviceScope::kWarp));
         expect_a_holds(e, e.left);
       }});
  table.push_back(
      {"shmemx_my_pe", "shmemx_my_pe",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           e.ret(e.capi ? capi::shmemx_my_pe(&d) : d.my_pe());
         });
       },
       [](Env& e) { EXPECT_EQ(e.rets[0], e.me); }});
  table.push_back(
      {"shmemx_n_pes", "shmemx_n_pes",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           e.ret(e.capi ? capi::shmemx_n_pes(&d) : d.n_pes());
         });
       },
       [](Env& e) { EXPECT_EQ(e.rets[0], kNp); }});
  table.push_back(device_mem_rma("shmemx_putmem", capi::shmemx_putmem,
                                 &DeviceCtx::putmem, kPut, kBlocking));
  table.push_back(device_mem_rma("shmemx_getmem", capi::shmemx_getmem,
                                 &DeviceCtx::getmem, kGet, kBlocking));
  table.push_back(device_mem_rma("shmemx_putmem_nbi", capi::shmemx_putmem_nbi,
                                 &DeviceCtx::putmem_nbi, kPut, kNbi));
  table.push_back(device_mem_rma("shmemx_getmem_nbi", capi::shmemx_getmem_nbi,
                                 &DeviceCtx::getmem_nbi, kGet, kNbi));
  table.push_back(
      {"shmemx_putmem_signal", "shmemx_putmem_signal",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           if (e.capi) {
             capi::shmemx_putmem_signal(&d, e.a, e.b, kBytes / 2, e.flag,
                                        9, e.right);
           } else {
             d.put_signal(e.a, e.b, kBytes / 2, e.flag, 9, e.right);
           }
           d.signal_wait_until(e.flag, Cmp::kGe, 9);
         });
       },
       [](Env& e) {
         EXPECT_EQ(e.flag[0], 9u);
         expect_a_holds(e, e.left, kBytes / 2);
       }});
  table.push_back(
      {"shmemx_quiet", "shmemx_quiet",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           d.putmem_nbi(e.a, e.b, kBytes, e.right);
           if (e.capi) {
             capi::shmemx_quiet(&d);
           } else {
             d.quiet();
           }
           e.ret(e.ctx.now().count_ns());
         });
       },
       [](Env& e) { expect_a_holds(e, e.left); }});
  table.push_back(
      {"shmemx_fence", "shmemx_fence",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           d.putmem_nbi(e.a, e.b, kBytes, e.right);
           if (e.capi) {
             capi::shmemx_fence(&d);
           } else {
             d.fence();
           }
           e.ret(e.ctx.now().count_ns());
         });
       },
       [](Env& e) { expect_a_holds(e, e.left); }});
  table.push_back(
      {"shmemx_signal_wait_until", "shmemx_signal_wait_until",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           d.put_signal(e.a, e.b, kBytes, e.flag, 9, e.right);
           if (e.capi) {
             capi::shmemx_signal_wait_until(&d, e.flag,
                                            capi::SHMEMX_CMP_EQ, 9);
           } else {
             d.signal_wait_until(e.flag, Cmp::kEq, 9);
           }
           e.ret(e.ctx.now().count_ns());
         });
       },
       [](Env& e) {
         EXPECT_EQ(e.flag[0], 9u);
         expect_a_holds(e, e.left);
       }});
  table.push_back(
      {"shmemx_longlong_wait_until", "shmemx_longlong_wait_until",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           d.p(e.word(1), 7LL, e.right);
           if (e.capi) {
             capi::shmemx_longlong_wait_until(&d, e.word(1),
                                              capi::SHMEMX_CMP_EQ, 7);
           } else {
             d.wait_until<long long>(e.word(1), Cmp::kEq, 7);
           }
           e.ret(e.ctx.now().count_ns());
         });
       },
       [](Env& e) { EXPECT_EQ(*e.word(1), 7); }});
  table.push_back(
      {"shmemx_atomic_fetch_add", "shmemx_atomic_fetch_add",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           e.ret(e.capi ? capi::shmemx_atomic_fetch_add(
                              &d, e.as<long long>(e.a), 5LL + e.me,
                              e.right)
                        : d.atomic_fetch_add(e.as<std::int64_t>(e.a),
                                             5 + e.me, e.right));
         });
       },
       [init64](Env& e) {
         EXPECT_EQ(e.rets[0], init64(e.right));
         EXPECT_EQ(load<long long>(e.a), init64(e.me) + 5 + e.left);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmemx_atomic_add", "shmemx_atomic_add",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           if (e.capi) {
             capi::shmemx_atomic_add(&d, e.as<long long>(e.a),
                                     5LL + e.me, e.right);
           } else {
             d.atomic_add(e.as<std::int64_t>(e.a), 5 + e.me, e.right);
           }
         });
       },
       [init64](Env& e) {
         EXPECT_EQ(load<long long>(e.a), init64(e.me) + 5 + e.left);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmemx_atomic_compare_swap", "shmemx_atomic_compare_swap",
       [init64](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           for (long long cond : {init64(e.right) + 1, init64(e.right)}) {
             e.ret(e.capi ? capi::shmemx_atomic_compare_swap(
                                &d, e.as<long long>(e.a), cond,
                                100LL + e.me, e.right)
                          : d.atomic_compare_swap(
                                e.as<std::int64_t>(e.a), cond,
                                100 + e.me, e.right));
           }
         });
       },
       [init64](Env& e) {
         EXPECT_EQ(e.rets[0], init64(e.right));
         EXPECT_EQ(e.rets[1], init64(e.right));
         EXPECT_EQ(load<long long>(e.a), 100 + e.left);
         expect_a_untouched(e, 8);
       }});
  table.push_back(
      {"shmemx_ptr", "shmemx_ptr",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           void* p = e.capi ? capi::shmemx_ptr(&d, e.a, e.right)
                            : d.ptr(e.a, e.right);
           e.ret(e.offset(p, e.right, e.dom));
           if (p != nullptr) {
             d.ptr_store(static_cast<long long*>(p), 4242LL + e.me,
                         e.right);
           }
         });
       },
       [](Env& e) {
         // Loads and stores reach every PE on the same node.
         EXPECT_EQ(e.rets[0],
                   same_node(e, e.right) ? e.offset(e.a, e.me, e.dom)
                                         : -1);
         if (same_node(e, e.left)) {
           EXPECT_EQ(load<long long>(e.a), 4242 + e.left);
           expect_a_untouched(e, sizeof(long long));
         } else {
           expect_a_untouched(e);
         }
       }});
  table.push_back(
      {"shmemx_compute", "shmemx_compute",
       [](Env& e) {
         in_kernel(e, [&](DeviceCtx& d) {
           const sim::Time t0 = e.ctx.now();
           if (e.capi) {
             capi::shmemx_compute(&d, 1000);
           } else {
             d.compute(1000);
           }
           e.ret((e.ctx.now() - t0).count_ns());
         });
       },
       [](Env& e) { EXPECT_GT(e.rets[0], 0); }});
  return table;
}

std::vector<Row> all_rows() {
  std::vector<Row> t = host_rows();
  for (Row& r : device_rows()) t.push_back(std::move(r));
  return t;
}

// ---- the harness -----------------------------------------------------------

struct Outcome {
  std::unique_ptr<Runtime> rt;
  std::vector<std::vector<std::int64_t>> rets;
};

Outcome run_row(const Row& row, Domain dom, DeviceBackendKind backend,
                bool capi) {
  RuntimeOptions opts = make_options(TransportKind::kEnhancedGdr);
  opts.device_backend = backend;
  // Small heaps: the comparison reads every byte of them.
  opts.host_heap_bytes = 1u << 20;
  opts.gpu_heap_bytes = 256u << 10;
  Outcome out;
  out.rets.resize(kNp);
  out.rt = run_spmd(make_cluster(2, 2), opts, [&](Ctx& ctx) {
    capi::Bind bind(ctx);
    const int me = ctx.my_pe();
    auto* a = static_cast<std::byte*>(ctx.shmalloc(kBytes, dom));
    auto* b = static_cast<std::byte*>(ctx.shmalloc(kBytes, dom));
    auto* flag = static_cast<std::uint64_t*>(
        ctx.shmalloc(kFlags * sizeof(std::uint64_t), dom));
    for (std::size_t i = 0; i < kBytes; ++i) {
      a[i] = std::byte{pattern(me, kA, i)};
      b[i] = std::byte{pattern(me, kB, i)};
    }
    std::fill_n(flag, kFlags, 0);
    ctx.barrier_all();
    Env e{ctx, dom, capi, a, b, flag, out.rets[static_cast<std::size_t>(me)],
          me, (me + kNp - 1) % kNp, (me + 1) % kNp};
    row.call(e);
    e.ret(ctx.now().count_ns());  // when the call returned
    ctx.barrier_all();
    row.check(e);
    ctx.barrier_all();
  });
  return out;
}

void expect_same(Outcome& via_c, Outcome& via_ctx) {
  EXPECT_EQ(via_c.rets, via_ctx.rets) << "return values";
  EXPECT_EQ(via_c.rt->engine().now(), via_ctx.rt->engine().now())
      << "final virtual time";
  EXPECT_EQ(via_c.rt->engine().events_executed(),
            via_ctx.rt->engine().events_executed())
      << "executed events";
  for (int pe = 0; pe < kNp; ++pe) {
    for (Domain d : {Domain::kHost, Domain::kGpu}) {
      const SymmetricHeap& hc = via_c.rt->heap(pe, d);
      const SymmetricHeap& hx = via_ctx.rt->heap(pe, d);
      ASSERT_EQ(hc.size(), hx.size());
      if (std::memcmp(hc.base(), hx.base(), hc.size()) == 0) continue;
      const auto at =
          std::mismatch(hc.base(), hc.base() + hc.size(), hx.base());
      ADD_FAILURE() << "PE " << pe << " " << to_string(d)
                    << " heap differs at byte " << (at.first - hc.base());
    }
  }
}

class ApiConformance : public ::testing::TestWithParam<Row> {};

TEST_P(ApiConformance, CFunctionMatchesTheCallItWraps) {
  const Row& row = GetParam();
  for (Domain dom : {Domain::kHost, Domain::kGpu}) {
    for (DeviceBackendKind backend :
         {DeviceBackendKind::kGpuIb, DeviceBackendKind::kReverseOffload}) {
      SCOPED_TRACE(std::string(to_string(dom)) + " heap, " +
                   to_string(backend) + " device backend");
      Outcome via_c = run_row(row, dom, backend, /*capi=*/true);
      Outcome via_ctx = run_row(row, dom, backend, /*capi=*/false);
      expect_same(via_c, via_ctx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table, ApiConformance, ::testing::ValuesIn(all_rows()),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

/// Every function the two public headers declare, by name, sorted. A
/// declaration starts in column 0 with its return type; its name is the
/// identifier right before the line's first '('.
std::vector<std::string> declared_functions() {
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  std::vector<std::string> names;
  for (const char* header : {"gdrshmem/shmem.h", "gdrshmem/shmem_device.h"}) {
    std::ifstream in(std::string(GDRSHMEM_INCLUDE_DIR) + "/" + header);
    EXPECT_TRUE(in.good()) << header;
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t paren = line.find('(');
      const bool column0 =
          !line.empty() && std::isalpha(static_cast<unsigned char>(line[0]));
      if (!column0 || paren == std::string::npos) continue;
      std::size_t start = paren;
      while (start > 0 && is_ident(line[start - 1])) --start;
      const std::string name = line.substr(start, paren - start);
      if (name.starts_with("shmem_") || name.starts_with("shmemx_")) {
        names.push_back(name);
      }
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(ApiConformanceTable, OneRowPerDeclaredFunction) {
  std::vector<std::string> rows;
  for (const Row& r : all_rows()) rows.emplace_back(r.fn);
  std::sort(rows.begin(), rows.end());
  const std::vector<std::string> declared = declared_functions();
  EXPECT_EQ(declared.size(), 94u);
  EXPECT_EQ(rows, declared);
}

}  // namespace
}  // namespace gdrshmem::core
