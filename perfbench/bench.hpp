// Repository benchmark: the harness shared by the four workloads.
//
// Every number is taken from outside the runtime. The benchmark times its
// own calls into public functions (Runtime construction and run, core::Ctx
// RMA/sync/atomic calls, launch_kernel, run_checkpoint_service) and reads
// counters the runtime already exposes (Runtime::stats(), metrics(),
// Engine::events_executed(), the registration cache, getrusage).
//
// One *episode* is one complete execution of a workload's generated inputs:
// every Runtime it needs is constructed, run and destroyed inside it. A
// benchmark run repeats episodes of the same inputs for the requested wall
// time, so wall-clock figures are medians over episodes and the virtual-time
// figures of every episode must agree bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ctx.hpp"
#include "core/runtime.hpp"

namespace perfbench {

namespace core = gdrshmem::core;
namespace hw = gdrshmem::hw;
namespace sim = gdrshmem::sim;

/// Seconds on the steady clock.
double wall_now();

/// Wall time plus this process's CPU time and minor page faults (getrusage).
struct Usage {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  double minflt = 0;

  static Usage now();
  Usage operator-(const Usage& o) const;
  Usage& operator+=(const Usage& o);
};

/// Peak resident set of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

/// A fixed piece of host work that belongs to the benchmark, not to the
/// runtime: a pointer chase through a 4 MB random cycle, an event-queue
/// style binary heap and block copies, the three things the simulator's
/// wall time is made of. Its duration tracks how fast the shared host runs
/// the process right now; no change to the runtime can move it.
class HostProbe {
 public:
  /// The probe's duration on the reference host (a 4-core x86-64 Linux
  /// container), the speed wall figures are scaled to.
  static constexpr double kReferenceS = 0.030;

  HostProbe();
  /// Runs the work once and returns its wall seconds.
  double measure();

 private:
  std::vector<std::uint32_t> next_;  // one random cycle over all entries
  std::vector<std::uint64_t> keys_;
  std::vector<std::byte> src_, dst_;
  std::uint64_t sink_ = 0;
};

/// The calls into core::Ctx the benchmark brackets with spans.
enum class Call {
  kPutmem,
  kPutmemNbi,
  kGetmem,
  kGetmemNbi,
  kQuiet,
  kAtomic,
  kBarrierAll,
  kLaunchKernel,
  kShmalloc,
  kCount_,
};
const char* to_string(Call c);

/// One bracket the benchmark recorded: a phase of its own (workload, setup,
/// run, PE program) or one call into the runtime.
struct Span {
  const char* name = "";
  int pe = -1;      // -1 outside a PE program
  int parent = -1;  // index of the enclosing span, -1 for the root
  std::int64_t wall_start_ns = 0;  // steady clock, relative to the episode
  std::int64_t wall_end_ns = 0;
  std::int64_t vt_start_ns = -1;  // virtual time; -1 outside a Runtime
  std::int64_t vt_end_ns = -1;
  std::uint64_t bytes = 0;
  int protocol = -1;  // core::Protocol the call used, -1 when none
};

/// In-memory span store. When off, open() returns -1 and nothing is kept,
/// so untraced episodes pay one branch per call.
class Spans {
 public:
  explicit Spans(bool on);
  bool on() const { return on_; }
  int open(const char* name, int pe, int parent, std::int64_t vt_ns = -1);
  void close(int id, std::int64_t vt_ns = -1, std::uint64_t bytes = 0,
             int protocol = -1);
  /// The PE-program span calls made by `pe` nest under.
  int program(int pe) const;
  void set_program(int pe, int id);
  const std::vector<Span>& all() const { return spans_; }

 private:
  bool on_;
  double t0_;
  std::vector<Span> spans_;
  std::vector<int> program_;
};

/// Everything one episode measures. Workloads fill the deterministic part
/// (virtual latencies, checked outcomes, counters); the harness fills the
/// wall-clock part.
struct Episode {
  explicit Episode(bool trace, bool describe);

  Spans spans;
  int root = -1;  // the workload span
  /// Print each Runtime's resolved options (first episode only).
  bool describe;

  // ---- deterministic: bit-identical across episodes of one seed ----
  /// Virtual latencies of write and read requests and of workload steps.
  std::vector<std::int64_t> write_ns, read_ns, step_ns;
  /// vt_write_MBps = write_bytes / write_span_ns (read likewise).
  double write_bytes = 0, write_span_ns = 0;
  double read_bytes = 0, read_span_ns = 0;
  /// Payload bytes the workload's calls moved.
  double payload_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-layer counters, summed over the episode's Runtimes.
  std::map<std::string, double> counts;
  /// End-to-end virtual-time metrics. summarize() derives them from the
  /// samples above; a workload without samples sets them directly.
  std::map<std::string, double> vt;

  // ---- wall clock ----
  Usage setup;  // summed over Runtime constructions
  Usage run;    // summed over run phases
  double wall_s = 0;
  double heap_reserved_bytes = 0;
  double heap_used_bytes = 0;

  /// Count one checked operation; a false `ok` is a failure.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const std::string& name, double v) { counts[name] += v; }

  /// Construct a Runtime, timed as set-up.
  std::unique_ptr<core::Runtime> make_runtime(const hw::ClusterConfig& cluster,
                                              const core::RuntimeOptions& opts);
  /// Time `body` as a run phase.
  void measure_run(const std::function<void()>& body);
  /// Run `program` on every PE of `rt` as a run phase (each PE inside a
  /// program span), then read the runtime's counters.
  void run_program(core::Runtime& rt,
                   const std::function<void(core::Ctx&)>& program);
  /// Fill `vt` from the latency samples when there are any.
  void summarize();
  /// The values that must repeat exactly for one seed.
  std::map<std::string, double> deterministic() const;
};

/// Runs `f`, one call into the runtime from `ctx`'s PE, inside a span.
template <typename F>
void timed(Episode& ep, core::Ctx& ctx, Call call, std::uint64_t bytes, F&& f) {
  if (!ep.spans.on()) {
    f();
    return;
  }
  const int pe = ctx.my_pe();
  int id = ep.spans.open(to_string(call), pe, ep.spans.program(pe),
                         ctx.now().count_ns());
  f();
  const bool rma = call == Call::kPutmem || call == Call::kPutmemNbi ||
                   call == Call::kGetmem || call == Call::kGetmemNbi ||
                   call == Call::kAtomic;
  ep.spans.close(id, ctx.now().count_ns(), bytes,
                 rma ? static_cast<int>(ctx.last_protocol()) : -1);
}

/// Seeded payload bytes. The bytes of an operation with key `k` at offset
/// `off` are the pattern's bytes at (k + off) mod its size, so a check
/// needs no copy of what was sent. Large transfers are filled and checked
/// in 64-byte blocks every kSparseStep bytes (and at the tail), so the
/// benchmark's own byte traffic stays small next to the runtime's.
class Pattern {
 public:
  static constexpr std::size_t kBytes = 1u << 20;
  static constexpr std::size_t kDenseMax = 64u << 10;
  static constexpr std::size_t kSparseStep = 16u << 10;

  explicit Pattern(std::uint64_t seed);
  void fill(void* dst, std::size_t n, std::uint64_t key) const;
  bool check(const void* src, std::size_t n, std::uint64_t key) const;

 private:
  template <typename F>
  void for_blocks(std::size_t n, F&& f) const;
  const std::byte* at(std::uint64_t key, std::size_t off) const {
    return bytes_.data() + ((key + off) & (kBytes - 1));
  }
  std::vector<std::byte> bytes_;  // kBytes + one block of wrap-around slack
};

/// Options every workload starts from: each knob the environment could
/// otherwise set is pinned here (fiber backend, timing-wheel queue, batched
/// wakeups, RC on one rail, no tracer, no faults).
core::RuntimeOptions pinned_options();

/// Scale of a run: full for measurements, smoke for the self-test.
enum class Scale { kFull, kSmoke };

/// A workload: generates its inputs from the seed once, then runs them as
/// often as the harness asks.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void run(Episode& ep) = 0;
};

/// The named workload with inputs generated from `seed`; null if unknown.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale);

/// Nearest-rank percentile (p in (0, 1]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(const std::vector<double>& v);

}  // namespace perfbench
