// Portus-style GPU checkpoint/restore service over GPU-aware OpenSHMEM
// (ROADMAP item 4): the first `num_servers` PEs form a checkpoint-server
// group owning pmem arenas (Domain::kPmem symmetric heap); the remaining PEs
// are clients that snapshot GPU-resident model state into their home
// server's arena with one-sided put/put_signal, and restore it with
// one-sided get — the server never touches payload bytes on the data path.
//
// Protocol per checkpoint (client c, home server h = c % S):
//   1. c -> h   put_signal request {version, bytes} into c's ReqSlot
//   2. h        reserves a pool extent, put_signals a grant {arena offset}
//               — or a reject when nothing can make room. When no free run
//               fits, h first repacks: it slides down only the run of
//               committed extents whose gaps join into a large-enough run
//               at the fewest bytes moved (DESIGN §5h); when no such run
//               exists it LRU-evicts a cold checkpoint and tries again.
//   3. c -> h   putmem of the GPU payload into arena + offset, quiet()
//   4. c -> h   put_signal commit {payload sum}; h re-sums the payload in its
//               arena and checks it, publishes the (client, version) -> extent
//               directory entry to the replica server (h + 1) % S, and
//               put_signals the ack.
//               Only then is the checkpoint acknowledged — and an
//               acknowledged latest version is never evicted.
// Restore is fully one-sided: the client gets the directory entry from the
// replica, gets the payload from the home arena, then re-gets the entry and
// retries when the generation seqlock changed (repack moved the bytes
// underneath the read, or moved another extent onto them).
//
// Under a sim::FaultPlan, proxy crashes replay staged transfers and P2P
// revocation reroutes GPU-source puts through host staging; the ack rule
// above is what makes "zero lost acknowledged checkpoints" checkable.
#pragma once

#include <cstddef>
#include <cstdint>

#include "apps/checkpoint/traffic.hpp"
#include "core/runtime.hpp"

namespace gdrshmem::apps::ckpt {

struct CheckpointConfig {
  /// PEs [0, num_servers) serve; the rest are clients. At least 2 servers
  /// (the directory replica must live on a different PE than the home).
  int num_servers = 2;
  /// Pmem arena carved per server (<= RuntimeOptions::pmem_heap_bytes).
  std::size_t pool_bytes = 1u << 20;
  /// Pool chunk granularity (power of two).
  std::size_t chunk_bytes = 4096;
  /// Directory ring depth per client: version v lives in slot v % dir_slots,
  /// so at most dir_slots versions of one client are restorable at once.
  int dir_slots = 4;
  OpenLoopParams traffic;
  /// Byte-compare every restore against the regenerated model state (tests);
  /// the payload sum (XXH64) is checked on every restore regardless.
  bool verify_restores = true;
};

struct CheckpointResult {
  std::uint64_t checkpoints_acked = 0;
  std::uint64_t checkpoints_rejected = 0;
  std::uint64_t restores_ok = 0;
  /// Acked checkpoints whose restore failed or returned wrong bytes. The
  /// service's durability claim is exactly lost_acked == 0, fault plan or
  /// not.
  std::uint64_t lost_acked = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_restored = 0;
  std::uint64_t evictions = 0;   // cold checkpoints dropped for space
  std::uint64_t supersedes = 0;  // old versions displaced by their dir slot
  std::uint64_t repacks = 0;     // arena compactions that moved something
  std::uint64_t extents_moved = 0;  // summed over all repacks
  std::uint64_t restore_retries = 0;  // seqlock conflicts with repack
  double makespan_ms = 0;
  double goodput_mbps = 0;  // acked checkpoint bytes / makespan
  // Request latencies (virtual ns, measured from the scheduled open-loop
  // arrival so queueing is included), from core::Metrics histograms.
  std::uint64_t ckpt_p50_ns = 0, ckpt_p99_ns = 0, ckpt_p999_ns = 0;
  std::uint64_t restore_p50_ns = 0, restore_p99_ns = 0, restore_p999_ns = 0;
  /// Order-independent fold of every client's (version, sum, latency)
  /// stream: equal digests mean bit-identical application behavior AND
  /// bit-identical virtual-time latencies.
  std::uint64_t digest = 0;
};

/// Run the service on a fresh runtime built from `cluster`/`opts`.
/// Requires opts.pmem_heap_bytes >= cfg.pool_bytes and more PEs than
/// servers. Fault plans come in through opts.faults.
CheckpointResult run_checkpoint_service(const hw::ClusterConfig& cluster,
                                        const core::RuntimeOptions& opts,
                                        const CheckpointConfig& cfg);

}  // namespace gdrshmem::apps::ckpt
