// SymmetricHeap unit coverage (non-LIFO deferred reclaim, exhaustion
// diagnostics), end-to-end coverage of the pmem symmetric-heap domain:
// collective allocation on every PE, one-sided writes into it, exhaustion,
// and the GDRSHMEM_PMEM_HEAP environment knob; the heap-contents contract
// (fresh space reads zero, LIFO-reclaimed blocks keep their bytes) and lazy
// commit of the runtime's fixed-size buffers.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/heap.hpp"
#include "core/proxy.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;
using testing::run_spmd;

std::vector<std::byte> storage(std::size_t n) {
  return std::vector<std::byte>(n);
}

TEST(SymmetricHeapTest, BumpAllocatesAligned) {
  auto mem = storage(4096);
  SymmetricHeap h(Domain::kHost, mem.data(), mem.size());
  void* a = h.allocate(10);
  void* b = h.allocate(10);
  EXPECT_EQ(h.offset_of(a), 0u);
  EXPECT_EQ(h.offset_of(b), 64u);  // default 64-byte alignment
  EXPECT_EQ(h.used(), 74u);
  EXPECT_EQ(h.live_allocations(), 2u);
}

TEST(SymmetricHeapTest, ExhaustionMessageNamesSizesAndAlignment) {
  auto mem = storage(256);
  SymmetricHeap h(Domain::kGpu, mem.data(), mem.size());
  h.allocate(100);  // leaves 156 bytes above the bump pointer
  try {
    h.allocate(500, 128);
    FAIL() << "expected ShmemError";
  } catch (const ShmemError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("gpu domain"), std::string::npos) << msg;
    EXPECT_NE(msg.find("500"), std::string::npos)
        << "requested size missing: " << msg;
    EXPECT_NE(msg.find("128"), std::string::npos)
        << "alignment missing: " << msg;
    EXPECT_NE(msg.find("156"), std::string::npos)
        << "remaining bytes missing: " << msg;
    EXPECT_NE(msg.find("256"), std::string::npos)
        << "heap size missing: " << msg;
  }
}

TEST(SymmetricHeapTest, ExhaustionAtExactBoundaryStillFits) {
  auto mem = storage(256);
  SymmetricHeap h(Domain::kHost, mem.data(), mem.size());
  EXPECT_NO_THROW(h.allocate(256));  // exactly full
  EXPECT_THROW(h.allocate(1), ShmemError);
}

TEST(SymmetricHeapTest, LifoFreeReclaimsImmediately) {
  auto mem = storage(4096);
  SymmetricHeap h(Domain::kHost, mem.data(), mem.size());
  void* a = h.allocate(64);
  void* b = h.allocate(64);
  h.deallocate(b);
  EXPECT_EQ(h.used(), 64u);
  void* b2 = h.allocate(64);
  EXPECT_EQ(b2, b);  // the freed slot is reused
  h.deallocate(b2);
  h.deallocate(a);
  EXPECT_EQ(h.used(), 0u);
  EXPECT_EQ(h.live_allocations(), 0u);
}

TEST(SymmetricHeapTest, NonLifoFreeIsDeferredUntilCovered) {
  auto mem = storage(4096);
  SymmetricHeap h(Domain::kHost, mem.data(), mem.size());
  void* a = h.allocate(64);
  void* b = h.allocate(64);
  void* c = h.allocate(64);
  // Free the middle block first: nothing is reclaimed (b is buried).
  h.deallocate(b);
  EXPECT_EQ(h.used(), 192u);
  EXPECT_EQ(h.live_allocations(), 2u);
  // Freeing the top block reclaims both it and the deferred middle one.
  h.deallocate(c);
  EXPECT_EQ(h.used(), 64u);
  EXPECT_EQ(h.live_allocations(), 1u);
  // The reclaimed region is allocatable again, right above `a`.
  void* d = h.allocate(128);
  EXPECT_EQ(h.offset_of(d), 64u);
  h.deallocate(d);
  h.deallocate(a);
  EXPECT_EQ(h.used(), 0u);
}

TEST(SymmetricHeapTest, InterleavedAllocFreePatterns) {
  auto mem = storage(1u << 16);
  SymmetricHeap h(Domain::kHost, mem.data(), mem.size());
  // alloc a b c d; free b d; alloc e (tops above c); free c -> reclaims c
  // only (b still buried under e? no: e sits above c's old slot).
  void* a = h.allocate(256);
  void* b = h.allocate(256);
  void* c = h.allocate(256);
  void* d = h.allocate(256);
  h.deallocate(b);
  h.deallocate(d);  // top: reclaimed immediately
  EXPECT_EQ(h.used(), 768u);
  void* e = h.allocate(256);  // reuses d's slot
  EXPECT_EQ(h.offset_of(e), 768u);
  h.deallocate(e);
  h.deallocate(c);  // reclaims c and the deferred b
  EXPECT_EQ(h.used(), 256u);
  h.deallocate(a);
  EXPECT_EQ(h.used(), 0u);
  EXPECT_EQ(h.live_allocations(), 0u);
}

TEST(SymmetricHeapTest, DoubleFreeAndForeignPointerThrow) {
  auto mem = storage(4096);
  SymmetricHeap h(Domain::kHost, mem.data(), mem.size());
  void* a = h.allocate(64);
  void* b = h.allocate(64);
  h.deallocate(a);  // deferred (b on top)
  EXPECT_THROW(h.deallocate(a), ShmemError);
  int local = 0;
  EXPECT_THROW(h.deallocate(&local), ShmemError);
  h.deallocate(b);
}

TEST(SymmetricHeapTest, ZeroSizeHeapContainsNothingAndExhaustsWithContext) {
  SymmetricHeap h(Domain::kPmem, nullptr, 0);
  int local = 0;
  EXPECT_FALSE(h.contains(&local));
  try {
    h.allocate(64);
    FAIL() << "expected ShmemError";
  } catch (const ShmemError& e) {
    EXPECT_NE(std::string(e.what()).find("pmem domain"), std::string::npos);
  }
}

// ---- pmem domain end-to-end -------------------------------------------------

TEST(PmemDomainTest, CollectiveAllocAndOneSidedWrite) {
  auto opts = make_options(TransportKind::kEnhancedGdr);
  opts.pmem_heap_bytes = 1u << 16;
  auto rt = run_spmd(make_cluster(2, 2), opts, [](Ctx& ctx) {
    auto* buf = static_cast<std::uint64_t*>(
        ctx.shmalloc(8 * sizeof(std::uint64_t), Domain::kPmem));
    // Everyone writes a tagged word into the next PE's pmem copy.
    int peer = (ctx.my_pe() + 1) % ctx.n_pes();
    std::uint64_t tag = 0xd00d0000u + static_cast<std::uint64_t>(ctx.my_pe());
    ctx.p(&buf[0], tag, peer);
    ctx.barrier_all();
    int writer = (ctx.my_pe() + ctx.n_pes() - 1) % ctx.n_pes();
    EXPECT_EQ(buf[0], 0xd00d0000u + static_cast<std::uint64_t>(writer));
    // And reads it back one-sidedly from the peer it wrote.
    std::uint64_t readback = ctx.g(&buf[0], peer);
    std::uint64_t expect =
        0xd00d0000u + static_cast<std::uint64_t>(ctx.my_pe());
    EXPECT_EQ(readback, expect);
    ctx.barrier_all();
    ctx.shfree(buf);
  });
  EXPECT_GT(rt->heap(0, Domain::kPmem).size(), 0u);
}

TEST(PmemDomainTest, ExhaustionReportsPmemDomain) {
  auto opts = make_options(TransportKind::kEnhancedGdr);
  opts.pmem_heap_bytes = 1u << 16;
  auto rt = run_spmd(make_cluster(1, 2), opts, [&](Ctx& ctx) {
    ctx.shmalloc(1u << 15, Domain::kPmem);
    try {
      ctx.shmalloc(1u << 15, Domain::kPmem);  // 32K + 32K > 64K - alignment? fits
      ctx.shmalloc(64, Domain::kPmem);        // now past the end
      FAIL() << "expected pmem exhaustion";
    } catch (const ShmemError& e) {
      EXPECT_NE(std::string(e.what()).find("pmem domain"), std::string::npos)
          << e.what();
    }
  });
}

TEST(PmemDomainTest, DisabledByDefault) {
  auto opts = make_options(TransportKind::kEnhancedGdr);
  ASSERT_EQ(opts.pmem_heap_bytes, 0u);
  run_spmd(make_cluster(1, 2), opts, [](Ctx& ctx) {
    EXPECT_THROW(ctx.shmalloc(64, Domain::kPmem), ShmemError);
  });
}

TEST(PmemDomainTest, FromEnvParsesPmemHeap) {
  ::setenv("GDRSHMEM_PMEM_HEAP", "2M", 1);
  RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.pmem_heap_bytes, 2u << 20);
  ::setenv("GDRSHMEM_PMEM_HEAP", "0", 1);
  EXPECT_EQ(RuntimeOptions::from_env().pmem_heap_bytes, 0u);
  ::setenv("GDRSHMEM_PMEM_HEAP", "1K", 1);  // below the 64K floor
  EXPECT_THROW(RuntimeOptions::from_env(), ShmemError);
  ::unsetenv("GDRSHMEM_PMEM_HEAP");
}

// ---- heap contents contract ------------------------------------------------

TEST(HeapContents, FreshBuffersReadZero) {
  auto opts = make_options(TransportKind::kEnhancedGdr);
  opts.pmem_heap_bytes = 1u << 16;
  Runtime rt(make_cluster(2, 2), opts);
  auto first_and_last = [](const std::byte* p, std::size_t n) {
    return std::to_integer<int>(p[0]) | std::to_integer<int>(p[n - 1]);
  };
  const int np = rt.num_pes();
  for (int pe = 0; pe < np; ++pe) {
    for (Domain d : {Domain::kHost, Domain::kGpu, Domain::kPmem}) {
      const SymmetricHeap& h = rt.heap(pe, d);
      EXPECT_EQ(first_and_last(h.base(), h.size()), 0)
          << "PE " << pe << " " << to_string(d) << " heap";
    }
    const auto* slots = static_cast<const std::byte*>(rt.eager_slot(pe, 0));
    EXPECT_EQ(first_and_last(slots, rt.eager_slot_bytes() *
                                        static_cast<std::size_t>(np)),
              0)
        << "PE " << pe << " eager region";
  }
  for (int node = 0; node < rt.cluster().num_nodes(); ++node) {
    const StagingRing& ring = rt.proxy(node).staging_ring();
    EXPECT_EQ(first_and_last(ring.data(), ring.bytes()), 0)
        << "node " << node << " proxy staging";
  }
}

TEST(HeapContents, LifoReclaimedBlockKeepsItsBytes) {
  auto opts = make_options(TransportKind::kEnhancedGdr);
  opts.pmem_heap_bytes = 1u << 16;
  run_spmd(make_cluster(2, 1), opts, [](Ctx& ctx) {
    constexpr std::size_t kBytes = 256;
    const auto pattern = static_cast<unsigned char>(0xa0 + ctx.my_pe());
    for (Domain d : {Domain::kHost, Domain::kGpu, Domain::kPmem}) {
      auto* p = static_cast<unsigned char*>(ctx.shmalloc(kBytes, d));
      std::memset(p, pattern, kBytes);
      ctx.shfree(p);
      auto* q = static_cast<unsigned char*>(ctx.shmalloc(kBytes, d));
      ASSERT_EQ(q, p) << to_string(d);
      EXPECT_TRUE(std::all_of(q, q + kBytes,
                              [&](unsigned char c) { return c == pattern; }))
          << to_string(d) << " block was cleared on reuse";
      ctx.shfree(q);
    }
  });
}

TEST(HeapContents, ZeroEagerLimitConstructsAndPutsDeviceToDevice) {
  auto opts = make_options(TransportKind::kHostPipeline);
  opts.tuning.eager_limit = 0;
  auto rt = run_spmd(make_cluster(2, 1), opts, [](Ctx& ctx) {
    constexpr std::size_t kBytes = 4096;
    const int peer = 1 - ctx.my_pe();
    auto* dst = ctx.shmalloc(kBytes, Domain::kGpu);
    void* src = ctx.cuda_malloc(kBytes);
    std::vector<std::byte> out(kBytes, std::byte(0x40 + ctx.my_pe()));
    ctx.cuda_memcpy(src, out.data(), kBytes);
    ctx.putmem(dst, src, kBytes, peer);
    ctx.quiet();
    ctx.barrier_all();
    std::vector<std::byte> in(kBytes);
    ctx.cuda_memcpy(in.data(), dst, kBytes);
    EXPECT_EQ(in, std::vector<std::byte>(kBytes, std::byte(0x40 + peer)));
  });
  EXPECT_EQ(rt->eager_slot_bytes(), 0u);
  EXPECT_EQ(rt->stats().ops(Protocol::kEager), 0u);
  EXPECT_EQ(rt->stats().ops(Protocol::kRendezvous), 2u);
}

// ---- lazy commit -----------------------------------------------------------

std::size_t resident_pages(const std::byte* base, std::size_t len) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((len + page - 1) / page);
  EXPECT_EQ(::mincore(const_cast<std::byte*>(base), len, vec.data()), 0);
  return static_cast<std::size_t>(
      std::count_if(vec.begin(), vec.end(), [](unsigned char v) { return v & 1; }));
}

TEST(LazyHeaps, ConstructionCommitsNoHeapPage) {
  Runtime rt(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr));
  auto resident = [&] {
    std::size_t n = 0;
    for (int pe = 0; pe < rt.num_pes(); ++pe) {
      for (Domain d : {Domain::kHost, Domain::kGpu}) {
        n += resident_pages(rt.heap(pe, d).base(), rt.heap(pe, d).size());
      }
    }
    return n;
  };
  EXPECT_EQ(resident(), 0u);
  rt.heap(1, Domain::kGpu).base()[12345] = std::byte{1};
  EXPECT_EQ(resident(), 1u);
}

}  // namespace
}  // namespace gdrshmem::core
