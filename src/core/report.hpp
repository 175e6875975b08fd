// Post-run runtime diagnostics: which protocols carried how much traffic,
// registration-cache behaviour, proxy activity, heap usage — as a
// human-readable table (format_report) or as stable machine-readable JSON
// (format_report_json). Both are views: every count comes from the metrics
// registry (after Runtime::snapshot_metrics) or Runtime::stats().
#pragma once

#include <iosfwd>
#include <string>

#include "core/runtime.hpp"

namespace gdrshmem::core {

/// Render a post-run report (protocol table + resource counters).
std::string format_report(Runtime& rt);

/// Machine-readable equivalent (schema 2): the run's configuration plus the
/// full metrics registry (counters, gauges, log2 histograms), with stable
/// field order. The protocol table is the op_bytes/<kind>/<protocol>
/// histograms. Snapshots component counters into the registry first.
std::string format_report_json(Runtime& rt);

/// Convenience: stream it.
void print_report(Runtime& rt, std::ostream& os);

}  // namespace gdrshmem::core
