// Histogram percentile estimation: the log2 bins only bound a value's
// magnitude, so percentile() interpolates inside the target bin and clamps
// with the exact tracked min/max. These tests pin the cases the checkpoint
// service's latency reporting relies on.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/report.hpp"
#include "test_util.hpp"

namespace gdrshmem::core {
namespace {

TEST(HistogramPercentileTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(0.999), 0u);
}

TEST(HistogramPercentileTest, SingleValueIsExact) {
  Histogram h;
  h.record(12345);
  EXPECT_EQ(h.percentile(0.0), 12345u);
  EXPECT_EQ(h.percentile(0.5), 12345u);
  EXPECT_EQ(h.percentile(0.99), 12345u);
  EXPECT_EQ(h.percentile(1.0), 12345u);
}

TEST(HistogramPercentileTest, ZeroOnlyHistogram) {
  Histogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(0.999), 0u);
}

TEST(HistogramPercentileTest, EstimatesStayWithinMinMax) {
  Histogram h;
  for (std::uint64_t v = 100; v <= 1000; v += 9) h.record(v);
  for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    std::uint64_t est = h.percentile(p);
    EXPECT_GE(est, h.min()) << "p=" << p;
    EXPECT_LE(est, h.max()) << "p=" << p;
  }
  EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(HistogramPercentileTest, MonotonicInP) {
  Histogram h;
  // Geometric-ish spread across many bins.
  for (std::uint64_t v = 1; v < (1u << 20); v = v * 3 + 1) h.record(v);
  std::uint64_t prev = 0;
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    std::uint64_t est = h.percentile(p);
    EXPECT_GE(est, prev) << "p=" << p;
    prev = est;
  }
}

TEST(HistogramPercentileTest, SeparatedModesLandInTheirBins) {
  Histogram h;
  // 90 small values (bin of 100) and 10 large ones (bin of 100000).
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(100000);
  // p50 lands in the small mode's bin [64, 127]; interpolation inside the
  // bin is approximate, exactness only holds for single-bin histograms.
  std::uint64_t p50 = h.percentile(0.5);
  EXPECT_GE(p50, 100u);  // tightened by the tracked min
  EXPECT_LE(p50, 127u);
  std::uint64_t p99 = h.percentile(0.99);
  // p99 must land in the large mode's bin: [65536, 100000].
  EXPECT_GE(p99, 65536u);
  EXPECT_LE(p99, 100000u);
}

TEST(HistogramPercentileTest, LastBinUsesTrackedMax) {
  Histogram h;
  h.record(~std::uint64_t{0});  // the 2^63.. bin, where floor(i+1) overflows
  h.record(~std::uint64_t{0} - 10);
  EXPECT_LE(h.percentile(0.999), h.max());
  EXPECT_GE(h.percentile(0.999), h.min());
}

TEST(HistogramPercentileTest, ReportJsonCarriesPercentiles) {
  using testing::make_cluster;
  using testing::make_options;
  using testing::run_spmd;
  auto rt = run_spmd(make_cluster(1, 2),
                     make_options(TransportKind::kEnhancedGdr), [](Ctx& ctx) {
                       auto* x = static_cast<std::uint64_t*>(
                           ctx.shmalloc(sizeof(std::uint64_t)));
                       ctx.p(x, std::uint64_t{1},
                             (ctx.my_pe() + 1) % ctx.n_pes());
                       ctx.barrier_all();
                       ctx.shfree(x);
                     });
  std::string json = format_report_json(*rt);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"heap/pmem_used_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace gdrshmem::core
