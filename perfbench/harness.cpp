#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "bench.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

}  // namespace

Usage Usage::now() {
  rusage ru = self_usage();
  Usage u;
  u.wall_s = wall_now();
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.minflt = static_cast<double>(ru.ru_minflt);
  return u;
}

Usage Usage::operator-(const Usage& o) const {
  Usage d;
  d.wall_s = wall_s - o.wall_s;
  d.user_s = user_s - o.user_s;
  d.sys_s = sys_s - o.sys_s;
  d.minflt = minflt - o.minflt;
  return d;
}

Usage& Usage::operator+=(const Usage& o) {
  wall_s += o.wall_s;
  user_s += o.user_s;
  sys_s += o.sys_s;
  minflt += o.minflt;
  return *this;
}

double peak_rss_mb() {
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(self_usage().ru_maxrss) * 1024.0 / 1e6;
}

// ---------------------------------------------------------------------------
// HostProbe

namespace {
constexpr std::size_t kProbeEntries = 1u << 20;  // 4 MB of uint32
constexpr int kProbeChase = 300000;
constexpr int kProbeHeap = 60000;
constexpr std::size_t kProbeCopyBytes = 4u << 20;
constexpr int kProbeCopies = 2;
}  // namespace

HostProbe::HostProbe()
    : next_(kProbeEntries), keys_(kProbeHeap), src_(kProbeCopyBytes), dst_(kProbeCopyBytes) {
  // Its own generator (splitmix64), so the probe does not depend on the
  // runtime's code.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  // Sattolo's shuffle: a single cycle through every entry.
  for (std::size_t i = 0; i < next_.size(); ++i) next_[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = next_.size() - 1; i > 0; --i) std::swap(next_[i], next_[next() % i]);
  for (std::uint64_t& k : keys_) k = next();
  for (std::size_t i = 0; i < src_.size(); ++i) src_[i] = static_cast<std::byte>(i * 131);
}

double HostProbe::measure() {
  const double t0 = wall_now();
  std::uint32_t at = 0;
  for (int i = 0; i < kProbeChase; ++i) at = next_[at];
  std::vector<std::uint64_t> heap;
  heap.reserve(1024);
  std::uint64_t acc = at;
  for (int i = 0; i < kProbeHeap; ++i) {
    heap.push_back(keys_[static_cast<std::size_t>(i)]);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() >= 1024) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      acc += heap.back();
      heap.pop_back();
    }
  }
  for (int c = 0; c < kProbeCopies; ++c) {
    std::memcpy(dst_.data(), src_.data(), src_.size());
    acc += static_cast<std::uint64_t>(dst_[static_cast<std::size_t>(acc) % dst_.size()]);
  }
  sink_ += acc;
  return wall_now() - t0;
}

const char* to_string(Call c) {
  switch (c) {
    case Call::kPutmem: return "putmem";
    case Call::kPutmemNbi: return "putmem_nbi";
    case Call::kGetmem: return "getmem";
    case Call::kGetmemNbi: return "getmem_nbi";
    case Call::kQuiet: return "quiet";
    case Call::kAtomic: return "atomic";
    case Call::kBarrierAll: return "barrier_all";
    case Call::kLaunchKernel: return "launch_kernel";
    case Call::kShmalloc: return "shmalloc";
    case Call::kCount_: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Spans

Spans::Spans(bool on) : on_(on), t0_(wall_now()) {}

int Spans::open(const char* name, int pe, int parent, std::int64_t vt_ns) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.pe = pe;
  s.parent = parent;
  s.wall_start_ns = static_cast<std::int64_t>((wall_now() - t0_) * 1e9);
  s.vt_start_ns = vt_ns;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::close(int id, std::int64_t vt_ns, std::uint64_t bytes,
                  int protocol) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.wall_end_ns = static_cast<std::int64_t>((wall_now() - t0_) * 1e9);
  s.vt_end_ns = vt_ns;
  s.bytes = bytes;
  s.protocol = protocol;
}

int Spans::program(int pe) const {
  auto i = static_cast<std::size_t>(pe);
  return i < program_.size() ? program_[i] : -1;
}

void Spans::set_program(int pe, int id) {
  auto i = static_cast<std::size_t>(pe);
  if (program_.size() <= i) program_.resize(i + 1, -1);
  program_[i] = id;
}

// ---------------------------------------------------------------------------
// Episode

Episode::Episode(bool trace, bool describe_options)
    : spans(trace), describe(describe_options) {}

namespace {

void print_options(const hw::ClusterConfig& c, const core::RuntimeOptions& o) {
  const core::Tuning& t = o.tuning;
  std::printf(
      "runtime: {\"nodes\": %d, \"pes_per_node\": %d, \"gpus_per_node\": %d, "
      "\"hcas_per_node\": %d, \"hca_gpu_same_socket\": %s, "
      "\"transport\": \"%s\", \"sim_backend\": \"%s\", \"sim_queue\": \"%s\", "
      "\"sim_batch\": %s, \"host_heap_bytes\": %zu, \"gpu_heap_bytes\": %zu, "
      "\"pmem_heap_bytes\": %zu, \"ib_transport\": \"%s\", \"ib_rails\": %d, "
      "\"ib_srq\": %s, \"device_backend\": \"%s\", \"service_thread\": %s, "
      "\"trace\": %s, \"faults\": \"%s\", \"use_proxy\": %s, "
      "\"eager_limit\": %zu, \"pipeline_chunk\": %zu, "
      "\"direct_gdr_write_limit\": %zu, \"direct_gdr_read_limit\": %zu, "
      "\"loopback_gdr_write_limit\": %zu, \"loopback_gdr_read_limit\": %zu}\n",
      c.num_nodes, c.pes_per_node, c.gpus_per_node, c.hcas_per_node,
      c.hca_gpu_same_socket ? "true" : "false", core::to_string(o.transport),
      sim::to_string(o.sim_backend), sim::to_string(o.sim_queue),
      o.sim_batch ? "true" : "false", o.host_heap_bytes, o.gpu_heap_bytes,
      o.pmem_heap_bytes, gdrshmem::ib::to_string(o.ib_transport), o.ib_rails,
      o.ib_srq ? "true" : "false", core::to_string(o.device_backend),
      o.service_thread ? "true" : "false", o.trace ? "true" : "false",
      o.faults.enabled() ? o.faults.spec().c_str() : "",
      t.use_proxy ? "true" : "false", t.eager_limit, t.pipeline_chunk,
      t.direct_gdr_write_limit, t.direct_gdr_read_limit,
      t.loopback_gdr_write_limit, t.loopback_gdr_read_limit);
}

}  // namespace

std::unique_ptr<core::Runtime> Episode::make_runtime(
    const hw::ClusterConfig& cluster, const core::RuntimeOptions& opts) {
  if (describe) print_options(cluster, opts);
  const int np = cluster.num_nodes * cluster.pes_per_node;
  heap_reserved_bytes +=
      static_cast<double>(np) * static_cast<double>(opts.host_heap_bytes +
                                                    opts.gpu_heap_bytes +
                                                    opts.pmem_heap_bytes);
  int id = spans.open("setup", -1, root);
  Usage u0 = Usage::now();
  auto rt = std::make_unique<core::Runtime>(cluster, opts);
  setup += Usage::now() - u0;
  spans.close(id);
  return rt;
}

void Episode::measure_run(const std::function<void()>& body) {
  int id = spans.open("run", -1, root);
  Usage u0 = Usage::now();
  body();
  run += Usage::now() - u0;
  spans.close(id);
}

void Episode::run_program(core::Runtime& rt,
                          const std::function<void(core::Ctx&)>& program) {
  int run_span = -1;
  measure_run([&] {
    run_span = static_cast<int>(spans.all().size()) - 1;
    rt.run([&](core::Ctx& ctx) {
      int id = spans.open("program", ctx.my_pe(), run_span, ctx.now().count_ns());
      spans.set_program(ctx.my_pe(), id);
      program(ctx);
      spans.close(id, ctx.now().count_ns());
    });
  });

  rt.snapshot_metrics();
  const core::Metrics& m = rt.metrics();
  auto counter = [&m](const char* name) {
    auto it = m.counters().find(name);
    return it == m.counters().end() ? 0.0 : static_cast<double>(it->second.value());
  };
  auto gauge = [&m](const char* name) {
    auto it = m.gauges().find(name);
    return it == m.gauges().end() ? 0.0 : static_cast<double>(it->second.value());
  };
  add("sim.events", static_cast<double>(rt.engine().events_executed()));
  double& hwm = counts["sim.queue_hwm"];
  hwm = std::max(hwm, static_cast<double>(rt.engine().queue_size_hwm()));
  const core::OpStats& st = rt.stats();
  for (std::size_t p = 0; p < static_cast<std::size_t>(core::Protocol::kCount_);
       ++p) {
    std::string base =
        std::string("core.proto.") + core::to_string(static_cast<core::Protocol>(p));
    add(base + ".ops", static_cast<double>(st.ops_by_protocol[p]));
    add(base + ".bytes", static_cast<double>(st.bytes_by_protocol[p]));
  }
  add("ib.ops_posted", counter("ib/ops_posted"));
  add("ib.reg_cache.hits", counter("reg_cache/hits"));
  add("ib.reg_cache.misses", counter("reg_cache/misses"));
  add("ib.reg_cache.evictions", counter("reg_cache/evictions"));
  add("proxy.puts_served", counter("proxy/puts_served"));
  add("proxy.gets_served", counter("proxy/gets_served"));
  add("proxy.restarts", counter("proxy/restarts"));
  heap_used_bytes += gauge("heap/host_used_bytes") + gauge("heap/gpu_used_bytes") +
                     gauge("heap/pmem_used_bytes");
}

namespace {

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::vector<double> sorted_us(const std::vector<std::int64_t>& ns) {
  std::vector<double> v;
  v.reserve(ns.size());
  for (std::int64_t x : ns) v.push_back(static_cast<double>(x) * 1e-3);
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

void Episode::summarize() {
  if (!write_ns.empty() || !read_ns.empty()) {
    std::vector<double> w = sorted_us(write_ns);
    std::vector<double> r = sorted_us(read_ns);
    vt["vt_write_p50_us"] = nearest_rank(w, 0.50);
    vt["vt_write_p99_us"] = nearest_rank(w, 0.99);
    vt["vt_read_p50_us"] = nearest_rank(r, 0.50);
    vt["vt_read_p99_us"] = nearest_rank(r, 0.99);
    vt["bench.vt_write_samples"] = static_cast<double>(w.size());
    vt["bench.vt_read_samples"] = static_cast<double>(r.size());
  }
  if (!step_ns.empty()) vt["vt_step_us"] = nearest_rank(sorted_us(step_ns), 0.50);
  // bytes per virtual ns * 1e3 = MB (1e6 bytes) per virtual second.
  if (write_span_ns > 0) vt["vt_write_MBps"] = write_bytes * 1e3 / write_span_ns;
  if (read_span_ns > 0) vt["vt_read_MBps"] = read_bytes * 1e3 / read_span_ns;
}

std::map<std::string, double> Episode::deterministic() const {
  std::map<std::string, double> d = counts;
  d.insert(vt.begin(), vt.end());
  d["bench.attempted"] = static_cast<double>(attempted);
  d["bench.failed"] = static_cast<double>(failed);
  d["host.payload_bytes"] = payload_bytes;
  return d;
}

// ---------------------------------------------------------------------------
// Pattern

Pattern::Pattern(std::uint64_t seed) : bytes_(kBytes + 64) {
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < bytes_.size(); i += 8) {
    std::uint64_t w = rng.next_u64();
    std::memcpy(bytes_.data() + i, &w, 8);
  }
}

template <typename F>
void Pattern::for_blocks(std::size_t n, F&& f) const {
  const std::size_t step = n <= kDenseMax ? 64 : kSparseStep;
  for (std::size_t off = 0; off < n; off += step) f(off, std::min<std::size_t>(64, n - off));
  if (step > 64) f(n - 64, 64);  // the tail block
}

void Pattern::fill(void* dst, std::size_t n, std::uint64_t key) const {
  auto* d = static_cast<std::byte*>(dst);
  for_blocks(n, [&](std::size_t off, std::size_t len) {
    std::memcpy(d + off, at(key, off), len);
  });
}

bool Pattern::check(const void* src, std::size_t n, std::uint64_t key) const {
  const auto* s = static_cast<const std::byte*>(src);
  bool ok = true;
  for_blocks(n, [&](std::size_t off, std::size_t len) {
    ok = ok && std::memcmp(s + off, at(key, off), len) == 0;
  });
  return ok;
}

// ---------------------------------------------------------------------------

core::RuntimeOptions pinned_options() {
  core::RuntimeOptions o;
  o.host_heap_bytes = 16u << 20;
  o.gpu_heap_bytes = 16u << 20;
  o.pmem_heap_bytes = 0;
  o.transport = core::TransportKind::kEnhancedGdr;
  o.tuning = core::Tuning{};
  o.sim_backend = sim::BackendKind::kFibers;
  o.sim_queue = sim::QueueKind::kWheel;
  o.sim_batch = true;
  o.service_thread = false;
  o.service_thread_compute_penalty = 1.0;
  o.faults = sim::FaultPlan{};
  o.trace = false;
  o.trace_cap = core::Tracer::kDefaultCapacity;
  o.device_backend = core::DeviceBackendKind::kGpuIb;
  o.device_queue_depth = 64;
  o.ib_transport = gdrshmem::ib::QpKind::kRc;
  o.ib_rails = 1;
  o.ib_srq = false;
  o.ib_srd_seed = 1;
  o.ib_srd_jitter_us = -1.0;
  return o;
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v, p);
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

}  // namespace perfbench
