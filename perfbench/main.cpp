// Repository benchmark: the command-line entry point.
//
//   perfbench --workload <p2p-small|p2p-large|halo2d|ckpt> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]
//
// Repeats episodes of one workload's seeded inputs for `seconds` of wall
// time (at least two). With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it alternates untraced and traced episodes and prints the
// per-layer metrics, writing the last traced episode's spans to
// --trace-out. Every episode's virtual-time metrics and counters must agree
// exactly; a disagreement or a failed output check makes the result
// incorrect and the exit code 1. The last line of stdout is the result as
// one JSON object.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds >= 0)) usage("bad --seconds");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_seed) usage("--seed needs a non-negative integer");
  if (a.seconds < 0) usage("--seconds is required");
  if (a.trace < 0) usage("--trace is required");
  return a;
}

/// The runtime reads GDRSHMEM_* variables (engine backend, queue, fiber
/// switch, stack sizes, ...) in its constructors. A benchmark run must not
/// depend on the host's environment, so any such variable is refused.
bool environment_is_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GDRSHMEM_", 9) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

/// What a run keeps of one episode (spans only for the last traced).
struct Record {
  bool traced = false;
  double wall_s = 0;
  /// Mean of the host probe's runs just before and just after the episode.
  double probe_s = 0;
  Usage setup, run;
  double heap_reserved_bytes = 0;
  double heap_used_bytes = 0;
  std::map<std::string, double> det;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<double> collect(const std::vector<Record>& rs, bool traced,
                            double (*f)(const Record&)) {
  std::vector<double> v;
  for (const Record& r : rs) {
    if (r.traced == traced) v.push_back(f(r));
  }
  return v;
}

double det(const Record& r, const char* key) {
  auto it = r.det.find(key);
  return it == r.det.end() ? 0.0 : it->second;
}

/// Wall-clock figures of a run are the median over its untraced episodes of
/// each episode's wall time at reference host speed: scaled by
/// HostProbe::kReferenceS over the probe time that brackets the episode.
/// The host is shared and its speed drifts by half within a minute; on one
/// machine the median raw wall time of 20 consecutive p2p-small episodes
/// ranged over 0.23-0.35 s, the scaled one over 10% of that.
double wall_figure(const std::vector<Record>& rs, bool traced,
                   double (*f)(const Record&)) {
  std::vector<double> v;
  for (const Record& r : rs) {
    if (r.traced == traced) v.push_back(f(r) * HostProbe::kReferenceS / r.probe_s);
  }
  return median(v);
}

std::vector<Metric> end_to_end(const std::vector<Record>& rs, double ok_frac) {
  const Record& first = rs.front();
  std::vector<Metric> m = {
      {"setup_s", wall_figure(rs, false, [](const Record& r) { return r.setup.wall_s; }), "s"},
      {"wall_s", wall_figure(rs, false, [](const Record& r) { return r.wall_s; }), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  for (const char* us : {"vt_write_p50_us", "vt_write_p99_us", "vt_read_p50_us",
                         "vt_read_p99_us", "vt_step_us"}) {
    m.push_back({us, det(first, us), "us"});
  }
  m.push_back({"vt_write_MBps", det(first, "vt_write_MBps"), "MB/s"});
  m.push_back({"vt_read_MBps", det(first, "vt_read_MBps"), "MB/s"});
  m.push_back({"ok_frac", ok_frac, "frac"});
  return m;
}

std::vector<Metric> per_layer(const std::vector<Record>& rs, const Episode& traced) {
  const Record& first = rs.front();
  // Spans come from the last traced episode; host timings from the
  // untraced episodes between the traced ones, so tracing does not inflate
  // them.
  auto med = [&rs](double (*f)(const Record&)) { return median(collect(rs, false, f)); };
  std::vector<Metric> m;

  // host: set-up and run cost of the process itself.
  const double run_s = med([](const Record& r) { return r.run.wall_s; });
  const double payload_mb = det(first, "host.payload_bytes") / 1e6;
  const double reserved = first.heap_reserved_bytes;
  m.push_back({"host.setup_minflt", med([](const Record& r) { return r.setup.minflt; }), "count"});
  m.push_back({"host.setup_sys_s", med([](const Record& r) { return r.setup.sys_s; }), "s"});
  m.push_back({"host.heap_reserved_mb", reserved / 1e6, "MB"});
  m.push_back({"host.heap_used_frac", reserved > 0 ? first.heap_used_bytes / reserved : 0.0, "frac"});
  m.push_back({"host.run_user_s", med([](const Record& r) { return r.run.user_s; }), "s"});
  m.push_back({"host.run_sys_s", med([](const Record& r) { return r.run.sys_s; }), "s"});
  m.push_back({"host.run_minflt", med([](const Record& r) { return r.run.minflt; }), "count"});
  m.push_back({"host.payload_mb", payload_mb, "MB"});
  m.push_back({"host.wall_us_per_payload_mb", payload_mb > 0 ? run_s * 1e6 / payload_mb : 0.0, "us/MB"});

  // sim: the event engine.
  const double events = det(first, "sim.events");
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.events_per_s", run_s > 0 ? events / run_s : 0.0, "1/s"});
  m.push_back({"sim.queue_hwm", det(first, "sim.queue_hwm"), "count"});

  // core: every bracketed call, from the last traced episode's spans.
  for (int c = 0; c < static_cast<int>(Call::kCount_); ++c) {
    const char* name = to_string(static_cast<Call>(c));
    std::vector<double> vt_us, wall_ns;
    for (const Span& s : traced.spans.all()) {
      if (std::strcmp(s.name, name) != 0) continue;
      vt_us.push_back(static_cast<double>(s.vt_end_ns - s.vt_start_ns) * 1e-3);
      wall_ns.push_back(static_cast<double>(s.wall_end_ns - s.wall_start_ns));
    }
    const std::string base = std::string("core.") + name;
    m.push_back({base + ".calls", static_cast<double>(vt_us.size()), "count"});
    m.push_back({base + ".vt_p50_us", percentile(vt_us, 0.50), "us"});
    m.push_back({base + ".vt_p99_us", percentile(vt_us, 0.99), "us"});
    m.push_back({base + ".wall_p50_ns", percentile(wall_ns, 0.50), "ns"});
  }
  for (std::size_t p = 0; p < static_cast<std::size_t>(core::Protocol::kCount_); ++p) {
    const std::string base =
        std::string("core.proto.") + core::to_string(static_cast<core::Protocol>(p));
    m.push_back({base + ".ops", det(first, (base + ".ops").c_str()), "count"});
    m.push_back({base + ".bytes", det(first, (base + ".bytes").c_str()), "bytes"});
  }

  // ib: verbs posts and the registration cache.
  const double hits = det(first, "ib.reg_cache.hits");
  const double misses = det(first, "ib.reg_cache.misses");
  m.push_back({"ib.ops_posted", det(first, "ib.ops_posted"), "count"});
  m.push_back({"ib.reg_cache.hits", hits, "count"});
  m.push_back({"ib.reg_cache.misses", misses, "count"});
  m.push_back({"ib.reg_cache.evictions", det(first, "ib.reg_cache.evictions"), "count"});
  m.push_back({"ib.reg_cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac"});

  for (const char* k : {"proxy.puts_served", "proxy.gets_served", "proxy.restarts",
                        "apps.ckpt.acked", "apps.ckpt.rejected", "apps.ckpt.restores_ok",
                        "apps.ckpt.lost_acked", "apps.ckpt.evictions", "apps.ckpt.repacks",
                        "apps.ckpt.extents_moved", "apps.ckpt.restore_retries",
                        "bench.vt_write_samples", "bench.vt_read_samples"}) {
    m.push_back({k, det(first, k), "count"});
  }
  const double untraced_wall = wall_figure(rs, false, [](const Record& r) { return r.wall_s; });
  const double traced_wall = wall_figure(rs, true, [](const Record& r) { return r.wall_s; });
  m.push_back({"bench.trace_overhead_frac", traced_wall / untraced_wall - 1.0, "frac"});
  m.push_back({"bench.host_probe_ms", med([](const Record& r) { return r.probe_s; }) * 1e3, "ms"});
  return m;
}

void write_spans(const std::string& path, const Args& a, const Episode& ep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"fields\": [\"name\", \"pe\", "
               "\"parent\", \"wall_start_ns\", \"wall_end_ns\", \"vt_start_ns\", "
               "\"vt_end_ns\", \"bytes\", \"protocol\"],\n\"spans\": [",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed));
  const auto& spans = ep.spans.all();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const char* proto = s.protocol < 0 ? nullptr
                                       : core::to_string(static_cast<core::Protocol>(s.protocol));
    std::fprintf(f, "%s\n[\"%s\", %d, %d, %lld, %lld, %lld, %lld, %llu, %s%s%s]",
                 i == 0 ? "" : ",", s.name, s.pe, s.parent,
                 static_cast<long long>(s.wall_start_ns), static_cast<long long>(s.wall_end_ns),
                 static_cast<long long>(s.vt_start_ns), static_cast<long long>(s.vt_end_ns),
                 static_cast<unsigned long long>(s.bytes), proto ? "\"" : "",
                 proto ? proto : "null", proto ? "\"" : "");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

int run(const Args& a) {
  std::unique_ptr<Workload> w =
      make_workload(a.workload, a.seed, a.smoke ? Scale::kSmoke : Scale::kFull);
  if (!w) usage(("unknown workload " + a.workload).c_str());
  std::printf("config: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"scale\": \"%s\"}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace, a.smoke ? "smoke" : "full");

  std::vector<Record> records;
  Episode last_traced(false, false);
  HostProbe probe;
  double probe_before = probe.measure();
  const double deadline = wall_now() + a.seconds;
  for (int i = 0;; ++i) {
    const bool traced = a.trace == 1 && i % 2 == 1;
    Episode ep(traced, i == 0);
    ep.root = ep.spans.open("workload", -1, -1);
    const double t0 = wall_now();
    w->run(ep);
    ep.wall_s = wall_now() - t0;
    ep.spans.close(ep.root);
    ep.summarize();
    const double probe_after = probe.measure();
    const double probe_s = 0.5 * (probe_before + probe_after);
    probe_before = probe_after;
    records.push_back({traced, ep.wall_s, probe_s, ep.setup, ep.run, ep.heap_reserved_bytes,
                       ep.heap_used_bytes, ep.deterministic()});
    std::printf(
        "episode %d: traced=%d wall_s=%.4f setup_s=%.4f run_s=%.4f cpu_s=%.4f probe_s=%.5f\n",
        i, traced ? 1 : 0, ep.wall_s, ep.setup.wall_s, ep.run.wall_s,
        ep.setup.user_s + ep.setup.sys_s + ep.run.user_s + ep.run.sys_s, probe_s);
    std::fflush(stdout);
    if (traced) last_traced = std::move(ep);
    if (i >= 1 && wall_now() >= deadline) break;
  }

  // Determinism guard: every episode, traced or not, must reproduce the
  // first one's virtual-time metrics and counters exactly.
  bool deterministic = true;
  for (std::size_t i = 1; i < records.size(); ++i) {
    for (const auto& [key, value] : records.front().det) {
      auto it = records[i].det.find(key);
      if (it == records[i].det.end() || it->second != value) {
        std::fprintf(stderr, "perfbench: episode %zu differs from episode 0 in %s\n", i,
                     key.c_str());
        deterministic = false;
      }
    }
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const Record& r : records) {
    attempted += static_cast<std::uint64_t>(det(r, "bench.attempted"));
    failed += static_cast<std::uint64_t>(det(r, "bench.failed"));
  }
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu checked operations failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
  const double ok_frac =
      attempted > 0 ? 1.0 - static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  const bool correct = deterministic && failed == 0 && attempted > 0;

  std::vector<Metric> metrics =
      a.trace == 1 ? per_layer(records, last_traced) : end_to_end(records, ok_frac);
  if (a.trace == 1) {
    for (const Metric& m : metrics) {
      if (m.name == "bench.trace_overhead_frac") {
        std::printf("bench.trace_overhead_frac: %.4f\n", m.value);
      }
    }
    if (!a.trace_out.empty()) write_spans(a.trace_out, a, last_traced);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold (glibc's initial value) keeps every episode's
  // large allocations on fresh pages, as in a process that builds one
  // Runtime; the default threshold rises after the first free and would
  // let later episodes reuse already-faulted memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Args a = perfbench::parse(argc, argv);
  if (!perfbench::environment_is_clean()) return 2;
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
