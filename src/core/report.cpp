#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/json.hpp"

namespace gdrshmem::core {

std::string format_report(Runtime& rt) {
  rt.snapshot_metrics();
  const OpStats st = rt.stats();
  Metrics& m = rt.metrics();
  auto count = [&m](const std::string& name) { return m.counter(name).value(); };
  std::ostringstream os;
  os << "=== gdrshmem runtime report (" << to_string(rt.options().transport)
     << ", " << rt.num_pes() << " PEs on " << rt.cluster().num_nodes()
     << " nodes) ===\n";
  os << "ops: " << st.puts << " puts, " << st.gets << " gets, " << st.atomics
     << " atomics, " << st.barriers << " barrier entries\n";
  os << "virtual time: " << std::fixed << std::setprecision(2)
     << rt.engine().now().to_ms() << " ms ("
     << rt.engine().events_executed() << " events)\n";
  os << std::left << std::setw(22) << "protocol" << std::right << std::setw(12)
     << "ops" << std::setw(16) << "bytes" << '\n';
  for (std::size_t i = 0; i < static_cast<std::size_t>(Protocol::kCount_); ++i) {
    if (st.ops_by_protocol[i] == 0) continue;
    os << std::left << std::setw(22) << to_string(static_cast<Protocol>(i))
       << std::right << std::setw(12) << st.ops_by_protocol[i] << std::setw(16)
       << st.bytes_by_protocol[i] << '\n';
  }
  os << "registration cache: " << count("reg_cache/hits") << " hits, "
     << count("reg_cache/misses") << " misses, " << count("reg_cache/evictions")
     << " evictions (cap " << rt.verbs().reg_cache().capacity() << ")\n";
  os << "ib transport: " << rt.ib().name() << ", " << rt.ib().rails()
     << " rail(s)\n";
  if (rt.proxies_enabled()) {
    os << "proxy daemons: " << count("proxy/gets_served") << " gets, "
       << count("proxy/puts_served") << " puts progressed\n";
  }
  if (rt.faults_enabled()) {
    os << "fault injection (plan: " << rt.faults().plan().spec() << ")\n";
    os << std::left << std::setw(22) << "  event" << std::right << std::setw(12)
       << "count" << '\n';
    for (std::size_t i = 0; i < static_cast<std::size_t>(sim::FaultEvent::kCount_);
         ++i) {
      const std::string ev = sim::to_string(static_cast<sim::FaultEvent>(i));
      os << std::left << std::setw(22) << ("  " + ev) << std::right
         << std::setw(12) << count("faults/" + ev) << '\n';
    }
  }
  os << "symmetric heaps: " << m.gauge("heap/host_used_bytes").value() / 1024
     << " KiB host, " << m.gauge("heap/gpu_used_bytes").value() / 1024
     << " KiB GPU";
  if (rt.options().pmem_heap_bytes > 0) {
    os << ", " << m.gauge("heap/pmem_used_bytes").value() / 1024 << " KiB pmem";
  }
  os << " in use across PEs\n";
  if (rt.tracer().enabled()) {
    os << "trace: " << count("trace/recorded") << " events retained, "
       << count("trace/dropped") << " dropped (cap " << rt.tracer().capacity()
       << ")\n";
  }
  return os.str();
}

std::string format_report_json(Runtime& rt) {
  rt.snapshot_metrics();
  json::Writer w;
  w.begin_object();
  w.field("schema", 2);
  w.field("transport", to_string(rt.options().transport));
  w.field("pes", rt.num_pes());
  w.field("nodes", rt.cluster().num_nodes());
  w.field_fixed("virtual_time_us", rt.engine().now().to_us(), 3);
  w.field("events_executed", rt.engine().events_executed());
  w.key("ib").begin_object();
  w.field("transport", rt.ib().name());
  w.field("rails", rt.ib().rails());
  w.end_object();
  if (rt.faults_enabled()) {
    w.key("faults").begin_object();
    w.field("plan", rt.faults().plan().spec());
    w.end_object();
  }
  w.key("trace").begin_object();
  w.field("enabled", rt.tracer().enabled());
  w.field("capacity", static_cast<std::uint64_t>(rt.tracer().capacity()));
  w.end_object();
  const Metrics& m = rt.metrics();
  w.key("metrics").begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : m.counters()) w.field(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : m.gauges()) {
    w.key(name).begin_object();
    w.field("value", g.value());
    w.field("max", g.max());
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : m.histograms()) {
    w.key(name).begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("min", h.min());
    w.field("max", h.max());
    w.field("p50", h.percentile(0.50));
    w.field("p99", h.percentile(0.99));
    w.field("p999", h.percentile(0.999));
    // Sparse bins as [floor, count] pairs — 65 mostly-empty slots would
    // dwarf the payload.
    w.key("bins").begin_array();
    for (int i = 0; i < Histogram::kBins; ++i) {
      std::uint64_t n = h.bins()[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      w.begin_array();
      w.value(Histogram::bin_floor(i));
      w.value(n);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

void print_report(Runtime& rt, std::ostream& os) { os << format_report(rt); }

}  // namespace gdrshmem::core
