// RuntimeOptions::from_env: every GDRSHMEM_* environment variable is parsed
// and validated here, in one place. Unknown GDRSHMEM_* names are an error —
// a silently ignored typo in a tuning knob is worse than a refusal to start.
#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/collectives.hpp"
#include "core/runtime.hpp"

extern char** environ;

namespace gdrshmem::core {
namespace {

[[noreturn]] void bad(std::string_view var, const std::string& why) {
  throw ShmemError(std::string(var) + ": " + why);
}

double env_double(std::string_view var, const std::string& value) {
  try {
    std::size_t used = 0;
    double v = std::stod(value, &used);
    if (used != value.size()) bad(var, "trailing characters in \"" + value + "\"");
    return v;
  } catch (const std::invalid_argument&) {
    bad(var, "not a number: \"" + value + "\"");
  } catch (const std::out_of_range&) {
    bad(var, "number out of range: \"" + value + "\"");
  }
}

long long env_int(std::string_view var, const std::string& value) {
  try {
    std::size_t used = 0;
    long long v = std::stoll(value, &used);
    if (used != value.size()) bad(var, "trailing characters in \"" + value + "\"");
    return v;
  } catch (const std::exception&) {
    bad(var, "not an integer: \"" + value + "\"");
  }
}

/// Byte size with an optional K/M/G suffix (powers of 1024): "4M", "512K".
std::size_t env_size(std::string_view var, const std::string& value) {
  if (value.empty()) bad(var, "empty size");
  std::string digits = value;
  std::size_t mult = 1;
  char suffix = static_cast<char>(
      std::toupper(static_cast<unsigned char>(digits.back())));
  if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
    mult = suffix == 'K' ? (1u << 10) : suffix == 'M' ? (1u << 20) : (1u << 30);
    digits.pop_back();
  }
  long long v = env_int(var, digits);
  if (v < 0) bad(var, "size must be >= 0");
  auto uv = static_cast<std::size_t>(v);
  if (mult != 1 && uv > std::numeric_limits<std::size_t>::max() / mult) {
    bad(var, "size out of range: \"" + value + "\" overflows");
  }
  return uv * mult;
}

bool env_bool(std::string_view var, const std::string& value) {
  if (value == "1" || value == "true" || value == "on") return true;
  if (value == "0" || value == "false" || value == "off") return false;
  bad(var, "expected 0/1 (or true/false, on/off), got \"" + value + "\"");
}

}  // namespace

RuntimeOptions RuntimeOptions::from_env() {
  // The defaulted sim_backend member already consults GDRSHMEM_SIM_BACKEND
  // (and throws std::invalid_argument on garbage); surface that through the
  // same error type as every other variable here.
  RuntimeOptions opts = [] {
    try {
      return RuntimeOptions{};
    } catch (const std::invalid_argument& e) {
      throw ShmemError(e.what());
    }
  }();
  for (char** env = environ; *env != nullptr; ++env) {
    std::string_view entry(*env);
    if (entry.substr(0, 9) != "GDRSHMEM_") continue;
    auto eq = entry.find('=');
    if (eq == std::string_view::npos) continue;
    std::string_view key = entry.substr(0, eq);
    std::string value(entry.substr(eq + 1));

    if (key == "GDRSHMEM_SIM_BACKEND") {
      // Also consumed directly by the engine; validated here for the error
      // message and mirrored into the options for programmatic use.
      if (value == "fibers") {
        opts.sim_backend = sim::BackendKind::kFibers;
      } else if (value == "threads") {
        opts.sim_backend = sim::BackendKind::kThreads;
      } else {
        bad(key, "expected 'fibers' or 'threads', got \"" + value + "\"");
      }
    } else if (key == "GDRSHMEM_SIM_STACK_KB") {
      // Consumed by the fiber backend at spawn time; validate eagerly.
      // Units: KiB of usable stack per fiber (excluding the guard page).
      if (env_int(key, value) < 64) bad(key, "must be >= 64 (KiB per fiber)");
    } else if (key == "GDRSHMEM_SIM_STACK_POOL") {
      // Consumed by the fiber stack pool at first use; validate eagerly.
      // Units: number of stacks retained across engine lifetimes (0 disables
      // pooling).
      if (env_int(key, value) < 0) bad(key, "must be >= 0 (pooled stacks)");
    } else if (key == "GDRSHMEM_SIM_QUEUE") {
      // Also consumed directly by the engine; validated here for the error
      // message and mirrored into the options for programmatic use.
      if (value == "heap") {
        opts.sim_queue = sim::QueueKind::kHeap;
      } else if (value == "wheel") {
        opts.sim_queue = sim::QueueKind::kWheel;
      } else {
        bad(key, "expected 'heap' or 'wheel', got \"" + value + "\"");
      }
    } else if (key == "GDRSHMEM_SIM_BATCH") {
      opts.sim_batch = env_bool(key, value);
    } else if (key == "GDRSHMEM_SIM_FIBER_SWITCH") {
      // Consumed by the fiber backend at engine construction; validate
      // eagerly. ("fast" still runs as ucontext on non-x86-64 hosts, but the
      // spelling must be one of the two modes everywhere.)
      if (value != "fast" && value != "ucontext") {
        bad(key, "expected 'fast' or 'ucontext', got \"" + value + "\"");
      }
    } else if (key == "GDRSHMEM_TRANSPORT") {
      if (value == "naive") {
        opts.transport = TransportKind::kNaive;
      } else if (value == "host-pipeline") {
        opts.transport = TransportKind::kHostPipeline;
      } else if (value == "enhanced-gdr") {
        opts.transport = TransportKind::kEnhancedGdr;
      } else {
        bad(key, "expected naive | host-pipeline | enhanced-gdr, got \"" +
                     value + "\"");
      }
    } else if (key == "GDRSHMEM_HOST_HEAP") {
      opts.host_heap_bytes = env_size(key, value);
      if (opts.host_heap_bytes < (1u << 16)) bad(key, "heap must be >= 64K");
    } else if (key == "GDRSHMEM_GPU_HEAP") {
      opts.gpu_heap_bytes = env_size(key, value);
      if (opts.gpu_heap_bytes < (1u << 16)) bad(key, "heap must be >= 64K");
    } else if (key == "GDRSHMEM_PMEM_HEAP") {
      // 0 (the default) disables the pmem domain entirely; a present heap
      // obeys the same 64K floor as the host and GPU heaps.
      opts.pmem_heap_bytes = env_size(key, value);
      if (opts.pmem_heap_bytes > 0 && opts.pmem_heap_bytes < (1u << 16)) {
        bad(key, "heap must be >= 64K (or 0 to disable the pmem domain)");
      }
    } else if (key == "GDRSHMEM_SERVICE_THREAD") {
      opts.service_thread = env_bool(key, value);
    } else if (key == "GDRSHMEM_USE_PROXY") {
      opts.tuning.use_proxy = env_bool(key, value);
    } else if (key == "GDRSHMEM_EAGER_LIMIT") {
      opts.tuning.eager_limit = env_size(key, value);
    } else if (key == "GDRSHMEM_PIPELINE_CHUNK") {
      opts.tuning.pipeline_chunk = env_size(key, value);
      if (opts.tuning.pipeline_chunk == 0) bad(key, "chunk must be > 0");
    } else if (key == "GDRSHMEM_LOOPBACK_GDR_WRITE_LIMIT") {
      opts.tuning.loopback_gdr_write_limit = env_size(key, value);
    } else if (key == "GDRSHMEM_LOOPBACK_GDR_READ_LIMIT") {
      opts.tuning.loopback_gdr_read_limit = env_size(key, value);
    } else if (key == "GDRSHMEM_DIRECT_GDR_WRITE_LIMIT") {
      opts.tuning.direct_gdr_write_limit = env_size(key, value);
    } else if (key == "GDRSHMEM_DIRECT_GDR_READ_LIMIT") {
      opts.tuning.direct_gdr_read_limit = env_size(key, value);
    } else if (key == "GDRSHMEM_INTER_SOCKET_GDR_DIVISOR") {
      long long v = env_int(key, value);
      if (v < 1) bad(key, "divisor must be >= 1");
      opts.tuning.inter_socket_gdr_divisor = static_cast<std::size_t>(v);
    } else if (key == "GDRSHMEM_MAX_SW_REPLAYS") {
      long long v = env_int(key, value);
      if (v < 1) bad(key, "must be >= 1");
      opts.tuning.max_sw_replays = static_cast<int>(v);
    } else if (key == "GDRSHMEM_REPLAY_BACKOFF_US") {
      opts.tuning.replay_backoff_base_us = env_double(key, value);
      if (opts.tuning.replay_backoff_base_us <= 0) bad(key, "must be > 0");
    } else if (key == "GDRSHMEM_PROXY_TIMEOUT_US") {
      opts.tuning.proxy_timeout_us = env_double(key, value);
      if (opts.tuning.proxy_timeout_us <= 0) bad(key, "must be > 0");
    } else if (key == "GDRSHMEM_PROXY_MAX_REISSUES") {
      long long v = env_int(key, value);
      if (v < 1) bad(key, "must be >= 1");
      opts.tuning.proxy_max_reissues = static_cast<int>(v);
    } else if (key == "GDRSHMEM_COLL_CHUNK") {
      opts.tuning.coll_chunk = env_size(key, value);
      if (opts.tuning.coll_chunk < (1u << 12)) bad(key, "chunk must be >= 4K");
    } else if (key == "GDRSHMEM_COLL_ALGO") {
      // Either a single algorithm name (applied to every collective kind
      // that implements it; the rest stay on auto selection) or a comma
      // list of kind=algo pairs: "bcast=ring,allreduce=recdbl".
      auto parse_algo = [&](const std::string& name) {
        try {
          return coll::algo_from_string(name);
        } catch (const std::invalid_argument& e) {
          bad(key, e.what());
        }
      };
      if (value.find('=') == std::string::npos) {
        CollAlgo algo = parse_algo(value);
        bool any = false;
        for (std::size_t k = 0; k < static_cast<std::size_t>(CollKind::kCount_);
             ++k) {
          if (coll::algo_supported(static_cast<CollKind>(k), algo)) {
            opts.tuning.coll_force[k] = algo;
            any = true;
          }
        }
        if (!any && algo != CollAlgo::kAuto) {
          bad(key, "\"" + value + "\" applies to no collective kind");
        }
      } else {
        std::string rest = value;
        while (!rest.empty()) {
          auto comma = rest.find(',');
          std::string pair = rest.substr(0, comma);
          rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
          auto eq2 = pair.find('=');
          if (eq2 == std::string::npos || eq2 == 0 || eq2 + 1 == pair.size()) {
            bad(key, "expected kind=algo pairs, got \"" + pair + "\"");
          }
          std::string kind_name = pair.substr(0, eq2);
          CollAlgo algo = parse_algo(pair.substr(eq2 + 1));
          int kind = -1;
          for (std::size_t k = 0;
               k < static_cast<std::size_t>(CollKind::kCount_); ++k) {
            if (kind_name == to_string(static_cast<CollKind>(k))) {
              kind = static_cast<int>(k);
            }
          }
          if (kind < 0) {
            bad(key, "unknown collective kind \"" + kind_name +
                         "\" (known: barrier, bcast, allreduce, fcollect, "
                         "alltoall)");
          }
          if (!coll::algo_supported(static_cast<CollKind>(kind), algo)) {
            bad(key, std::string(to_string(algo)) + " is not a " + kind_name +
                         " algorithm");
          }
          opts.tuning.coll_force[static_cast<std::size_t>(kind)] = algo;
        }
      }
    } else if (key == "GDRSHMEM_IB_TRANSPORT") {
      if (value == "rc") {
        opts.ib_transport = ib::QpKind::kRc;
      } else if (value == "ud") {
        opts.ib_transport = ib::QpKind::kUd;
      } else if (value == "dc") {
        opts.ib_transport = ib::QpKind::kDc;
      } else if (value == "srd") {
        opts.ib_transport = ib::QpKind::kSrd;
      } else {
        bad(key, "expected rc | ud | dc | srd, got \"" + value + "\"");
      }
    } else if (key == "GDRSHMEM_IB_RAILS") {
      long long v = env_int(key, value);
      if (v != 1 && v != 2) bad(key, "expected 1 or 2 (HCA rails per node)");
      opts.ib_rails = static_cast<int>(v);
    } else if (key == "GDRSHMEM_IB_SRQ") {
      opts.ib_srq = env_bool(key, value);
    } else if (key == "GDRSHMEM_IB_SRD_SEED") {
      long long v = env_int(key, value);
      if (v < 0) bad(key, "seed must be >= 0");
      opts.ib_srd_seed = static_cast<std::uint64_t>(v);
    } else if (key == "GDRSHMEM_IB_SRD_JITTER_US") {
      opts.ib_srd_jitter_us = env_double(key, value);
      if (opts.ib_srd_jitter_us < 0.0) {
        bad(key, "jitter window must be >= 0 (us; 0 disables jitter)");
      }
    } else if (key == "GDRSHMEM_DEVICE_BACKEND") {
      if (value == "gpu-ib") {
        opts.device_backend = DeviceBackendKind::kGpuIb;
      } else if (value == "reverse") {
        opts.device_backend = DeviceBackendKind::kReverseOffload;
      } else {
        bad(key, "expected 'gpu-ib' or 'reverse', got \"" + value + "\"");
      }
    } else if (key == "GDRSHMEM_DEVICE_QUEUE_DEPTH") {
      long long v = env_int(key, value);
      if (v < 1) bad(key, "must be >= 1 (outstanding device commands)");
      opts.device_queue_depth = static_cast<std::size_t>(v);
    } else if (key == "GDRSHMEM_FAULTS") {
      try {
        opts.faults = sim::FaultPlan::parse(value);
      } catch (const std::invalid_argument& e) {
        bad(key, e.what());
      }
    } else if (key == "GDRSHMEM_TRACE") {
      opts.trace = env_bool(key, value);
    } else if (key == "GDRSHMEM_TRACE_CAP") {
      // Already consumed by the defaulted trace_cap member; re-parse here so
      // the error carries the uniform ShmemError shape.
      try {
        opts.trace_cap = trace_cap_from_env();
      } catch (const std::invalid_argument& e) {
        throw ShmemError(e.what());
      }
    } else {
      bad(key,
          "unknown GDRSHMEM_* variable (known: SIM_BACKEND, SIM_QUEUE, "
          "SIM_BATCH, SIM_FIBER_SWITCH, SIM_STACK_KB, SIM_STACK_POOL, "
          "TRANSPORT, HOST_HEAP, GPU_HEAP, PMEM_HEAP, SERVICE_THREAD, "
          "USE_PROXY, EAGER_LIMIT, PIPELINE_CHUNK, "
          "LOOPBACK_GDR_WRITE_LIMIT, LOOPBACK_GDR_READ_LIMIT, "
          "DIRECT_GDR_WRITE_LIMIT, DIRECT_GDR_READ_LIMIT, "
          "INTER_SOCKET_GDR_DIVISOR, COLL_ALGO, "
          "COLL_CHUNK, MAX_SW_REPLAYS, REPLAY_BACKOFF_US, PROXY_TIMEOUT_US, "
          "PROXY_MAX_REISSUES, DEVICE_BACKEND, DEVICE_QUEUE_DEPTH, "
          "IB_TRANSPORT, IB_RAILS, IB_SRQ, IB_SRD_SEED, IB_SRD_JITTER_US, "
          "FAULTS, TRACE, TRACE_CAP)");
    }
  }
  return opts;
}

}  // namespace gdrshmem::core
