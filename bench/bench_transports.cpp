// Transport-layer bench: the paper-motivated scalability argument for DC.
//
// Three experiments over the endpoint API (verbs-level fixtures — no
// OpenSHMEM runtime, so the transport costs are unobscured):
//
//   * per-endpoint QP memory vs PE count (pure footprint model) — RC's
//     N-1 QP mesh vs DC's constant initiator pool vs UD's single QP;
//   * small-message rate at 4K endpoints — RC pays the QP-context-cache
//     overflow penalty on every op, DC pays at worst a reconnect;
//   * large-message bandwidth, 1 rail vs 2-rail striping.
//
// The bench self-checks the acceptance criteria (DC beats RC on both memory
// and message rate at 4K PEs; 2-rail >= 1.5x bandwidth from 256 KiB) and
// exits non-zero if the model stops delivering them.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "ib/transport.hpp"

using namespace gdrshmem;
using ib::QpKind;
using ib::Transport;
using ib::TransportConfig;

namespace {

struct Fixture {
  sim::Engine eng;
  hw::Cluster cluster;
  cudart::CudaRuntime cuda;
  ib::Verbs verbs;
  std::unique_ptr<Transport> transport;

  Fixture(const TransportConfig& cfg, int nodes, int ppn)
      : cluster([nodes, ppn] {
          hw::ClusterConfig c;
          c.num_nodes = nodes;
          c.pes_per_node = ppn;
          return hw::Cluster(c);
        }()),
        cuda(eng, cluster),
        verbs(eng, cluster, cuda),
        transport(make_transport(verbs, cfg)) {}
};

/// Small-message rate (millions of msgs/s of virtual time): PE 0 posts
/// windows of 8-byte writes round-robin over 64 remote endpoints — a
/// working set far past the DC initiator pool, so DC pays its worst-case
/// reconnect on every op, and still far under RC's all-peers QP mesh.
double message_rate_mmps(QpKind kind, int nodes) {
  Fixture f(TransportConfig{kind, 1, kind != QpKind::kRc}, nodes, 2);
  constexpr int kTargets = 64;
  constexpr int kWindows = 4;
  const int stride = f.cluster.num_pes() / (kTargets + 1);
  std::vector<std::uint64_t> src(1);
  std::vector<std::vector<std::uint64_t>> dst(kTargets,
                                              std::vector<std::uint64_t>(1));
  std::vector<int> targets;
  f.verbs.reg_cache().register_at_init(0, src.data(), sizeof(std::uint64_t));
  for (int t = 0; t < kTargets; ++t) {
    // Spread targets across remote nodes (node 0 hosts PE 0 and 1).
    int pe = 2 + t * stride;
    targets.push_back(pe);
    f.verbs.reg_cache().register_at_init(pe, dst[t].data(),
                                         sizeof(std::uint64_t));
  }
  double us = 0;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    auto& ib = *f.transport;
    sim::Time t0 = f.eng.now();
    for (int w = 0; w < kWindows; ++w) {
      std::vector<sim::CompletionPtr> comps;
      for (int t = 0; t < kTargets; ++t) {
        comps.push_back(ib.rdma_write(p, 0, src.data(), targets[t],
                                      dst[t].data(), sizeof(std::uint64_t)));
      }
      for (auto& c : comps) c->wait(p);
    }
    us = (f.eng.now() - t0).to_us();
  });
  f.eng.run();
  return static_cast<double>(kTargets * kWindows) / us;
}

/// Bandwidth (GB/s of virtual time) of one inter-node host write.
double bandwidth_gbps(QpKind kind, int rails, std::size_t n,
                      double* out_us = nullptr,
                      std::uint64_t* out_segments = nullptr,
                      std::uint64_t* out_ooo = nullptr) {
  Fixture f(TransportConfig{kind, rails, kind != QpKind::kRc}, 2, 2);
  std::vector<std::byte> src(n), dst(n);
  f.verbs.reg_cache().register_at_init(0, src.data(), n);
  f.verbs.reg_cache().register_at_init(2, dst.data(), n);
  double us = 0;
  f.eng.spawn("pe0", [&](sim::Process& p) {
    sim::Time t0 = f.eng.now();
    f.transport->rdma_write(p, 0, src.data(), 2, dst.data(), n)
        ->wait(p);
    us = (f.eng.now() - t0).to_us();
  });
  f.eng.run();
  if (out_us != nullptr) *out_us = us;
  if (out_segments != nullptr) *out_segments = f.transport->srd_segments();
  if (out_ooo != nullptr) *out_ooo = f.transport->srd_ooo_deliveries();
  return static_cast<double>(n) / (us * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  int failures = 0;

  // ---- per-endpoint QP memory vs PE count ---------------------------------
  std::printf("== per-endpoint QP memory (KiB) vs endpoints ==\n");
  std::printf("%-10s %-12s %-12s %-12s %-12s %-14s\n", "endpoints", "rc",
              "rc+srq", "dc", "ud", "srd");
  Fixture model(TransportConfig{}, 2, 2);
  auto rc_srq = make_transport(model.verbs, TransportConfig{QpKind::kRc, 1, true});
  auto dc = make_transport(model.verbs, TransportConfig{QpKind::kDc, 1, true});
  auto ud = make_transport(model.verbs, TransportConfig{QpKind::kUd, 1, true});
  auto srd = make_transport(model.verbs, TransportConfig{QpKind::kSrd, 1, true});
  double rc_mem_4k = 0, dc_mem_4k = 0;
  for (int n : {256, 1024, 4096, 16384}) {
    auto frc = model.transport->footprint(n);
    auto fsrq = rc_srq->footprint(n);
    auto fdc = dc->footprint(n);
    auto fud = ud->footprint(n);
    auto fsrd = srd->footprint(n);
    std::printf("%-10d %-12.1f %-12.1f %-12.1f %-12.1f %-14.1f\n", n,
                frc.total_bytes() / 1024.0, fsrq.total_bytes() / 1024.0,
                fdc.total_bytes() / 1024.0, fud.total_bytes() / 1024.0,
                fsrd.total_bytes() / 1024.0);
    std::string tag = "transports/qp_mem/" + std::to_string(n) + "ep";
    bench::add_metric(tag + "/rc_kib", frc.total_bytes() / 1024.0);
    bench::add_metric(tag + "/dc_kib", fdc.total_bytes() / 1024.0);
    bench::add_metric(tag + "/ud_kib", fud.total_bytes() / 1024.0);
    bench::add_metric(tag + "/srd_kib", fsrd.total_bytes() / 1024.0);
    if (n == 4096) {
      rc_mem_4k = static_cast<double>(frc.total_bytes());
      dc_mem_4k = static_cast<double>(fdc.total_bytes());
    }
  }

  // ---- message rate at scale ----------------------------------------------
  std::printf("\n== 8B message rate over 64 remote targets (Mmsg/s) ==\n");
  std::printf("%-10s %-12s %-12s %-12s %-12s\n", "pes", "rc", "dc", "ud",
              "srd");
  double rc_rate_4k = 0, dc_rate_4k = 0;
  for (int nodes : {128, 2048}) {
    const int pes = nodes * 2;
    double rc = message_rate_mmps(QpKind::kRc, nodes);
    double dcr = message_rate_mmps(QpKind::kDc, nodes);
    double udr = message_rate_mmps(QpKind::kUd, nodes);
    double srdr = message_rate_mmps(QpKind::kSrd, nodes);
    std::printf("%-10d %-12.3f %-12.3f %-12.3f %-12.3f\n", pes, rc, dcr, udr,
                srdr);
    std::string tag = "transports/msgrate/" + std::to_string(pes) + "pe";
    bench::add_point(tag + "/rc_us_per_msg", 1.0 / rc);
    bench::add_point(tag + "/dc_us_per_msg", 1.0 / dcr);
    bench::add_point(tag + "/ud_us_per_msg", 1.0 / udr);
    bench::add_point(tag + "/srd_us_per_msg", 1.0 / srdr);
    if (nodes == 2048) {
      rc_rate_4k = rc;
      dc_rate_4k = dcr;
    }
  }

  // ---- 1-rail vs 2-rail bandwidth -----------------------------------------
  std::printf("\n== inter-node H->H bandwidth, 1 vs 2 rails (GB/s) ==\n");
  std::printf("%-10s %-12s %-12s %-10s\n", "size", "1rail", "2rail", "speedup");
  double min_big_speedup = 1e9;
  for (std::size_t n : {64u << 10, 256u << 10, 1u << 20, 4u << 20}) {
    double us1 = 0, us2 = 0;
    double bw1 = bandwidth_gbps(QpKind::kRc, 1, n, &us1);
    double bw2 = bandwidth_gbps(QpKind::kRc, 2, n, &us2);
    double speedup = bw2 / bw1;
    std::printf("%-10s %-12.2f %-12.2f %-10.2f\n",
                bench::size_label(n).c_str(), bw1, bw2, speedup);
    std::string tag = "transports/rails/" + bench::size_label(n);
    bench::add_point(tag + "/1rail_us", us1);
    bench::add_point(tag + "/2rail_us", us2);
    if (n >= (256u << 10)) min_big_speedup = std::min(min_big_speedup, speedup);
  }

  // ---- srd: segment spraying vs in-order rc -------------------------------
  // Same one-op probe through the relaxed-ordering transport: per-segment
  // overhead and delivery jitter cost a few percent vs rc, and 2-rail
  // per-segment spraying recovers the striping speedup without rc's
  // stripe-threshold carve-up.
  std::printf("\n== srd H->H bandwidth, spray across rails (GB/s) ==\n");
  std::printf("%-10s %-12s %-12s %-12s %-10s\n", "size", "rc-1rail",
              "srd-1rail", "srd-2rail", "segs(ooo)");
  double srd_over_rc_4m = 0, srd_spray_speedup_4m = 0;
  for (std::size_t n : {256u << 10, 1u << 20, 4u << 20}) {
    double rc_us = 0, us1 = 0, us2 = 0;
    std::uint64_t segs = 0, ooo = 0;
    double rc_bw = bandwidth_gbps(QpKind::kRc, 1, n, &rc_us);
    double bw1 = bandwidth_gbps(QpKind::kSrd, 1, n, &us1);
    double bw2 = bandwidth_gbps(QpKind::kSrd, 2, n, &us2, &segs, &ooo);
    char seg_label[32];
    std::snprintf(seg_label, sizeof seg_label, "%llu(%llu)",
                  static_cast<unsigned long long>(segs),
                  static_cast<unsigned long long>(ooo));
    std::printf("%-10s %-12.2f %-12.2f %-12.2f %-10s\n",
                bench::size_label(n).c_str(), rc_bw, bw1, bw2, seg_label);
    std::string tag = "transports/srd/" + bench::size_label(n);
    bench::add_point(tag + "/1rail_us", us1);
    bench::add_point(tag + "/2rail_us", us2);
    if (n == (4u << 20)) {
      srd_over_rc_4m = bw1 / rc_bw;
      srd_spray_speedup_4m = bw2 / bw1;
      bench::add_metric("transports/srd/segments_4M",
                        static_cast<double>(segs));
      bench::add_metric("transports/srd/ooo_deliveries_4M",
                        static_cast<double>(ooo));
    }
  }

  // ---- acceptance self-checks ---------------------------------------------
  bench::add_metric("transports/rc_over_dc_mem_4k_x", rc_mem_4k / dc_mem_4k);
  bench::add_metric("transports/dc_over_rc_msgrate_4k_x",
                    dc_rate_4k / rc_rate_4k);
  bench::add_metric("transports/min_2rail_speedup_256K_up", min_big_speedup);
  if (dc_mem_4k >= rc_mem_4k) {
    std::fprintf(stderr, "FAIL: DC QP memory (%.0f B) not below RC (%.0f B) "
                 "at 4096 endpoints\n", dc_mem_4k, rc_mem_4k);
    ++failures;
  }
  if (dc_rate_4k <= rc_rate_4k) {
    std::fprintf(stderr, "FAIL: DC message rate (%.3f Mmsg/s) not above RC "
                 "(%.3f Mmsg/s) at 4096 PEs\n", dc_rate_4k, rc_rate_4k);
    ++failures;
  }
  if (min_big_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: 2-rail speedup %.2fx below 1.5x at >= 256 KiB\n",
                 min_big_speedup);
    ++failures;
  }
  bench::add_metric("transports/srd_over_rc_bw_4M_x", srd_over_rc_4m);
  bench::add_metric("transports/srd_2rail_spray_speedup_4M_x",
                    srd_spray_speedup_4m);
  if (srd_over_rc_4m < 0.80) {
    std::fprintf(stderr, "FAIL: srd 4 MiB bandwidth %.2fx of rc — "
                 "segmentation overhead above 20%%\n", srd_over_rc_4m);
    ++failures;
  }
  if (srd_spray_speedup_4m < 1.5) {
    std::fprintf(stderr, "FAIL: srd 2-rail spray speedup %.2fx below 1.5x "
                 "at 4 MiB\n", srd_spray_speedup_4m);
    ++failures;
  }
  if (failures != 0) return failures;

  std::printf("\n");
  return bench::report_and_run(argc, argv, "transports");
}
