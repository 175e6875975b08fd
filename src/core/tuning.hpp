// Protocol-selection thresholds of the Enhanced-GDR design. These are the
// "runtime parameters ... tuned for different architectures" of Section
// III-B: GDR is latency-optimal for small messages but its PCIe P2P
// bandwidth caps (Table III) make staging designs win past a crossover.
#pragma once

#include <array>
#include <cstddef>

#include "core/types.hpp"

namespace gdrshmem::core {

struct Tuning {
  // ---- intra-node hybrid (loopback GDR vs CUDA IPC / shmem_ptr) ----------
  /// Max size for loopback-GDR when the GPU leg is a P2P *write*
  /// (e.g. H-D put: HCA writes into the GPU). Crossover vs the one-copy
  /// CUDA IPC path measured by bench_ablation_thresholds.
  std::size_t loopback_gdr_write_limit = 64 * 1024;
  /// Max size when the GPU leg is a P2P *read* (lower: read bw is worse;
  /// throughput-tuned below the pairwise crossover, like the inter-node
  /// read window — see bench_fig12_lbm).
  std::size_t loopback_gdr_read_limit = 8 * 1024;

  // ---- inter-node hybrid (Direct GDR vs pipeline / proxy) ----------------
  /// Max size for Direct GDR when the GPU leg is a P2P write (the write cap
  /// of 6,396 MB/s is near wire speed, so the window is wide).
  std::size_t direct_gdr_write_limit = 256 * 1024;
  /// Max size when a GPU leg requires a P2P read (source on GPU, or a get).
  /// Pairwise latency crosses over near ~128 KB (bench_ablation_thresholds),
  /// but under concurrent application traffic the P2P read serializes on the
  /// source GPU's PCIe slot while the pipeline overlaps D->H with the wire —
  /// so the default window is throughput-tuned to 32 KB (bench_fig12_lbm).
  std::size_t direct_gdr_read_limit = 32 * 1024;
  /// When the PE's HCA and GPU sit on different sockets the P2P caps are
  /// catastrophic (247 / 1179 MB/s); shrink the GDR window by this divisor.
  std::size_t inter_socket_gdr_divisor = 16;

  /// Chunk size of every staged pipeline (pipeline-GDR-write, proxy-put,
  /// proxy-get, host-staged-get, the host rendezvous), each a ring of
  /// kStagingSlots chunks whose copies run on per-slot streams. The default
  /// is the smallest power of two whose wire serialization covers one
  /// host<->device copy launch (launch and hop): then a chunk's copy, issued
  /// while the chunks before it are copied and on the wire, hides its launch
  /// behind them and the pipeline stays wire-bound, while its fill (the
  /// first chunk's copy) and drain (the last one's) stay short. A smaller
  /// chunk pays its per-chunk costs, a launch and an RDMA read's request on
  /// the half-duplex port, more often than the wire can hide.
  std::size_t pipeline_chunk = 64 * 1024;

  /// Use the per-node proxy daemon for large transfers that would otherwise
  /// hit a P2P read bottleneck or require target involvement.
  bool use_proxy = true;

  // ---- baseline (host pipeline) -------------------------------------------
  /// Eager/rendezvous switch of the baseline transport.
  std::size_t eager_limit = 8 * 1024;

  // ---- collectives engine (core/collectives.*) ----------------------------
  /// Piece size of the chunked ring pipelines (allreduce reduce-scatter,
  /// ring broadcast). GDRSHMEM_COLL_CHUNK. Also sizes the per-team sync
  /// workspace (2 * coll_chunk per team slot, clamped to the heap).
  std::size_t coll_chunk = 64 * 1024;
  /// Allreduce: recursive doubling up to this many bytes, ring above.
  std::size_t coll_rd_max = 16 * 1024;
  /// Broadcast: binomial tree up to this size, chunked ring pipeline above.
  std::size_t coll_bcast_binomial_max = 64 * 1024;
  /// Fcollect: Bruck's log-step algorithm up to this per-PE block size
  /// (when np * nbytes also fits the workspace), ring above.
  std::size_t coll_bruck_max = 8 * 1024;
  /// Alltoall: linear blast below this block size, pairwise rounds above.
  std::size_t coll_pairwise_min = 32 * 1024;
  /// GPU-domain buffers divide the small-message ceilings above by this
  /// (kernel-launch overhead makes many small device combines costly, so
  /// the bandwidth algorithms take over earlier).
  std::size_t coll_gpu_ceiling_divisor = 4;
  /// Forced algorithm per collective kind (kAuto = select by size/team/
  /// domain). GDRSHMEM_COLL_ALGO.
  std::array<CollAlgo, static_cast<std::size_t>(CollKind::kCount_)> coll_force{};

  // ---- software fault recovery (tier 2) -----------------------------------
  // Only consulted when RuntimeOptions::faults is non-empty. Tier 1 (the
  // HCA retransmit envelope) lives in hw::SystemParams; these govern what
  // software does once a completion surfaces in error state or a proxy
  // request times out.
  /// Re-posts of one operation before the runtime gives up and throws.
  int max_sw_replays = 12;
  /// Backoff before replay k is base * 2^k, capped below.
  double replay_backoff_base_us = 25.0;
  double replay_backoff_cap_us = 4000.0;
  /// Requester-side timeout for one proxy request/window before re-issuing
  /// (scaled up with transfer size internally).
  double proxy_timeout_us = 4000.0;
  /// Re-issues of a proxy request before the runtime gives up.
  int proxy_max_reissues = 8;
};

}  // namespace gdrshmem::core
