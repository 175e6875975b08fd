// Shared plumbing for the per-table/per-figure benchmark binaries.
//
// Each binary computes its experiment data once (virtual-time simulation),
// prints the paper-style table/series, and writes every data point to
// BENCH_<tag>.json (uniform schema, rendered by the same core::json::Writer
// as the runtime's JSON report) — override the destination with
// `--out <path>`. Besides the points, the file records the events every
// engine of the process executed (`"events"`, as deterministic as virtual
// time). scripts/bench_identical.py compares every virtual_us point and
// event count of two runs exactly, and scripts/check_tier1.sh runs it
// against the committed baselines in bench/baselines/. The file also
// records the process's host cost so far (wall, CPU, minor faults, peak
// RSS) under "host"; no script compares it.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "sim/engine.hpp"

namespace gdrshmem::bench {

struct Point {
  std::string name;      // benchmark entry name, e.g. "fig6/put/enhanced/4B"
  double virtual_us = 0; // measured virtual time for the op/run
};

inline std::vector<Point>& points() {
  static std::vector<Point> pts;
  return pts;
}

inline void add_point(std::string name, double virtual_us) {
  points().push_back(Point{std::move(name), virtual_us});
}

// ---------------------------------------------------------------------------
// Wall-clock reporting.
//
// The paper-figure benches report *virtual* time (what the simulated
// hardware would take); engine-efficiency benches report *wall* time (what
// the simulation itself costs to run). Wall points carry an event count so
// throughput (events/sec) is comparable across engine changes. The bench
// gate compares wall-point `events` exactly, like virtual_us points; the
// seconds and events_per_sec are a machine-dependent report that no gate
// reads.

struct WallPoint {
  std::string name;       // e.g. "engine/msgrate/fibers/64pe"
  double wall_seconds = 0;
  std::uint64_t events = 0;  // simulation events executed during the run

  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
};

inline std::vector<WallPoint>& wall_points() {
  static std::vector<WallPoint> pts;
  return pts;
}

inline void add_wall_point(std::string name, double wall_seconds,
                           std::uint64_t events) {
  wall_points().push_back(WallPoint{std::move(name), wall_seconds, events});
}

/// Scalar headline metrics (speedups, configuration), landed in the JSON
/// under "metrics".
inline std::vector<std::pair<std::string, double>>& scalar_metrics() {
  static std::vector<std::pair<std::string, double>> ms;
  return ms;
}

inline void add_metric(std::string name, double v) {
  scalar_metrics().emplace_back(std::move(name), v);
}

/// Monotonic wall-clock stamp for measuring simulation cost.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stamp taken during static initialization: the start of the "host" wall
/// time in BENCH_<tag>.json.
inline const double process_start = wall_now();

// ---------------------------------------------------------------------------
// JSON output.

/// The `--out <path>` / `--out=<path>` destination (the last one wins), or
/// "" when absent. Other arguments are left to the bench.
inline std::string out_flag(int argc, char** argv) {
  std::string out;
  for (int r = 1; r < argc; ++r) {
    std::string_view arg(argv[r]);
    if (arg == "--out" && r + 1 < argc) {
      out = argv[++r];
    } else if (arg.rfind("--out=", 0) == 0) {
      out = std::string(arg.substr(6));
    }
  }
  return out;
}

/// Write every registered point to `path` (default: BENCH_<tag>.json in the
/// working directory) in the uniform schema the perf gate consumes.
inline void write_bench_json(const std::string& tag, std::string path = "") {
  if (path.empty()) path = "BENCH_" + tag + ".json";
  core::json::Writer w;
  w.begin_object();
  w.field("schema", 1);
  w.field("bench", tag);
  w.field("events", sim::Engine::process_events_executed());
  w.key("points").begin_array();
  for (const Point& p : points()) {
    w.begin_object();
    w.field("name", p.name);
    w.field_fixed("virtual_us", p.virtual_us, 3);
    w.end_object();
  }
  w.end_array();
  w.key("wall_points").begin_array();
  for (const WallPoint& p : wall_points()) {
    w.begin_object();
    w.field("name", p.name);
    w.field_fixed("wall_seconds", p.wall_seconds, 6);
    w.field("events", p.events);
    w.field_fixed("events_per_sec", p.events_per_sec(), 1);
    w.end_object();
  }
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [k, v] : scalar_metrics()) w.field(k, v);
  w.end_object();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  w.key("host").begin_object();
  w.field_fixed("wall_seconds", wall_now() - process_start, 6);
  w.field_fixed("user_seconds", seconds(ru.ru_utime), 6);
  w.field_fixed("sys_seconds", seconds(ru.ru_stime), 6);
  w.field("minflt", static_cast<std::uint64_t>(ru.ru_minflt));
  w.field_fixed("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, 1);
  w.end_object();
  w.end_object();
  std::ofstream os(path);
  os << w.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

/// Write BENCH_<tag>.json (or the --out destination) and return the bench's
/// exit status.
inline int report_and_run(int argc, char** argv, const std::string& tag) {
  write_bench_json(tag, out_flag(argc, argv));
  return 0;
}

/// Pretty size label (paper figures use powers of two).
inline std::string size_label(std::size_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof buf, "%zuM", bytes >> 20);
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%zuK", bytes >> 10);
  } else {
    std::snprintf(buf, sizeof buf, "%zuB", bytes);
  }
  return buf;
}

}  // namespace gdrshmem::bench
