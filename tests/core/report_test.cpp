// Runtime report formatting (text and machine-readable JSON).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/device_api.hpp"
#include "core/report.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

using testing::make_cluster;
using testing::make_options;

TEST(Report, SummarizesProtocolsAndResources) {
  Runtime rt(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr));
  rt.run([&](Ctx& ctx) {
    void* g = ctx.shmalloc(1u << 20, Domain::kGpu);
    void* local = ctx.cuda_malloc(1u << 20);
    if (ctx.my_pe() == 0) {
      ctx.putmem(g, local, 8, 1);           // direct GDR
      ctx.putmem(g, local, 1u << 20, 1);    // pipeline
      ctx.getmem(local, g, 1u << 20, 1);    // proxy get
      ctx.quiet();
    }
    ctx.barrier_all();
  });
  std::string report = format_report(rt);
  EXPECT_NE(report.find("enhanced-gdr"), std::string::npos);
  EXPECT_NE(report.find("direct-gdr"), std::string::npos);
  EXPECT_NE(report.find("pipeline-gdr-write"), std::string::npos);
  EXPECT_NE(report.find("proxy-get"), std::string::npos);
  EXPECT_NE(report.find("registration cache"), std::string::npos);
  EXPECT_NE(report.find("proxy daemons: 1 gets"), std::string::npos);
  EXPECT_NE(report.find("symmetric heaps"), std::string::npos);
}

TEST(Report, BaselineHasNoProxySection) {
  Runtime rt(make_cluster(1, 2), make_options(TransportKind::kHostPipeline));
  rt.run([&](Ctx& ctx) { ctx.barrier_all(); });
  std::string report = format_report(rt);
  EXPECT_EQ(report.find("proxy daemons"), std::string::npos);
  EXPECT_NE(report.find("host-pipeline"), std::string::npos);
}

TEST(ReportJson, WellFormedWithStableFieldOrder) {
  Runtime rt(make_cluster(2, 1), make_options(TransportKind::kEnhancedGdr));
  rt.run([&](Ctx& ctx) {
    void* g = ctx.shmalloc(1u << 20, Domain::kGpu);
    void* local = ctx.cuda_malloc(1u << 20);
    if (ctx.my_pe() == 0) {
      ctx.putmem(g, local, 8, 1);
      ctx.getmem(local, g, 1u << 20, 1);
      ctx.quiet();
    }
    ctx.barrier_all();
  });
  std::string json = format_report_json(rt);
  // Balanced structure.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Top-level sections appear in their documented order.
  std::size_t last = 0;
  for (const char* key :
       {"\"schema\":2", "\"transport\":\"enhanced-gdr\"", "\"pes\":2",
        "\"virtual_time_us\":", "\"ib\":", "\"trace\":", "\"metrics\":",
        "\"counters\":", "\"gauges\":", "\"histograms\":"}) {
    std::size_t pos = json.find(key, last);
    ASSERT_NE(pos, std::string::npos) << "missing or out of order: " << key;
    last = pos;
  }
  // Schema 2 carries every count once, in the registry: no top-level
  // section repeats a registry value.
  for (const char* key : {"\"ops\":", "\"protocols\":", "\"reg_cache\":",
                          "\"proxy\":", "\"heap\":", "\"recorded\":",
                          "\"dropped\":"}) {
    EXPECT_EQ(json.find(key), std::string::npos) << "duplicate section " << key;
  }
  // The observability counters/gauges/histograms made it in.
  EXPECT_NE(json.find("\"ops/put\":"), std::string::npos);
  EXPECT_NE(json.find("\"reg_cache/hits\":"), std::string::npos);
  EXPECT_NE(json.find("\"proxy/queue_depth\":"), std::string::npos);
  EXPECT_NE(json.find("\"op_bytes/get/proxy-get\":"), std::string::npos);
  EXPECT_NE(json.find("\"op_latency_ns/put/direct-gdr\":"), std::string::npos);
  // Identical state serializes identically (byte-stable output).
  EXPECT_EQ(json, format_report_json(rt));
}

TEST(OpStats, UserOpsCountedApartFromProtocolExecutions) {
  // stats() is a view of the registry: puts/gets/atomics/barriers count API
  // calls (ops/<kind> counters), the protocol table counts protocol
  // executions (op_bytes/<kind>/<protocol> histograms). A contended 32-bit
  // atomic is one call but two hardware atomics per attempt, and a
  // device-initiated put is a put like a host one.
  Runtime rt(make_cluster(2, 2), make_options(TransportKind::kEnhancedGdr));
  rt.run([&](Ctx& ctx) {
    auto* ctr = static_cast<std::int32_t*>(ctx.shmalloc(8));
    void* g = ctx.shmalloc(4096, Domain::kGpu);
    void* local = ctx.cuda_malloc(4096);
    const int peer = (ctx.my_pe() + 1) % ctx.n_pes();
    ctx.atomic_fetch_add32(ctr, 1, 0);  // all four PEs race on PE 0's word
    ctx.putmem(g, local, 4096, peer);
    if (ctx.my_pe() == 0) {
      ctx.launch_kernel_device(1.0, DeviceScope::kThread,
                               [&](DeviceCtx& d) { d.putmem(g, local, 8, 2); });
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      EXPECT_EQ(*ctr, 4);
    }
  });
  const OpStats st = rt.stats();
  // Five user puts (four host, one device) plus the barriers' flag puts:
  // three barriers (two shmallocs, one barrier_all) x 4 PEs x 2 rounds.
  EXPECT_EQ(st.puts, 5u + 24u);
  EXPECT_EQ(st.gets, 0u);
  EXPECT_EQ(st.atomics, 4u);
  EXPECT_EQ(st.barriers, 12u);  // three barrier entries x 4 PEs
  // Each attempt is a fetch plus a compare-and-swap: 7 attempts for 4 ops.
  EXPECT_EQ(st.ops(Protocol::kAtomicHw), 14u);
  EXPECT_EQ(st.bytes_by_protocol[static_cast<std::size_t>(Protocol::kAtomicHw)],
            14u * 8);
  EXPECT_EQ(st.ops(Protocol::kLoopbackGdr), 2u);
  EXPECT_EQ(st.ops(Protocol::kDirectGdr), 3u);
  EXPECT_EQ(st.ops(Protocol::kHostShm) + st.ops(Protocol::kDirectRdma), 24u);
  std::uint64_t total = 0;
  for (std::uint64_t n : st.ops_by_protocol) total += n;
  EXPECT_EQ(total, 14u + 5u + 24u);
}

}  // namespace
}  // namespace gdrshmem::core
