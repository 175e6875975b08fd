// The hardware cost model: every latency/bandwidth constant the simulated
// cluster charges, in one tunable struct.
//
// Defaults are calibrated against the paper's published measurements on the
// Wilkes cluster (dual-socket IvyBridge, 2x Tesla K20, 2x FDR IB per node):
//   * Table III  — PCIe P2P read/write bandwidth, intra vs inter socket
//   * Table II   — 4 B put latency at IB and OpenSHMEM level
//   * Fig 6-9    — put/get latency curves for every configuration
// See EXPERIMENTS.md for the calibration evidence.
#pragma once

#include <cstddef>

namespace gdrshmem::hw {

struct SystemParams {
  // ---- PCIe fabric ----------------------------------------------------
  /// cudaMemcpy DMA bandwidth between host memory and a GPU (MB/s).
  double pcie_h2d_bw_mbps = 10000.0;
  double pcie_d2h_bw_mbps = 10000.0;
  /// Device-local copy bandwidth (src and dst on the same GPU).
  double gpu_local_copy_bw_mbps = 150000.0;
  /// CUDA IPC copy between two GPUs through the PCIe root complex.
  double pcie_gpu_peer_bw_mbps = 9000.0;

  /// PCIe peer-to-peer (HCA <-> GPU) bandwidth, Table III of the paper.
  double p2p_read_intra_socket_bw_mbps = 3421.0;
  double p2p_read_inter_socket_bw_mbps = 247.0;
  double p2p_write_intra_socket_bw_mbps = 6396.0;
  double p2p_write_inter_socket_bw_mbps = 1179.0;

  /// One PCIe traversal (root complex hop) and the extra QPI/socket hop.
  double pcie_hop_latency_us = 0.25;
  /// A P2P access into GPU BAR memory is slower than a host DMA hop.
  double gdr_hop_latency_us = 0.55;
  double qpi_hop_latency_us = 0.35;

  // ---- CUDA runtime ----------------------------------------------------
  /// Driver + copy-engine launch overhead charged by every cudaMemcpy.
  double cuda_copy_launch_us = 5.4;
  /// Kernel launch overhead.
  double cuda_kernel_launch_us = 6.0;
  /// One-time cost of cudaIpcOpenMemHandle (mapping a peer allocation).
  double cuda_ipc_open_us = 85.0;

  // ---- reduction combine cost -------------------------------------------
  /// Host-side elementwise combine (the collectives engine's CPU pass).
  double cpu_reduce_ns_per_byte = 0.25;
  /// Device-side combine rate; charged through the kernel-launch model
  /// (cuda_kernel_launch_us + bytes * this), so small GPU combines pay the
  /// realistic launch overhead.
  double gpu_reduce_ns_per_byte = 0.04;

  // ---- InfiniBand ------------------------------------------------------
  /// FDR 4x link bandwidth as measured by the paper (MB/s).
  double ib_bandwidth_mbps = 6397.0;
  /// HCA DMA bandwidth to/from host memory (not the bottleneck on Wilkes).
  double hca_host_dma_bw_mbps = 11000.0;
  /// Software cost to post a work request (write descriptor + doorbell).
  double ib_post_overhead_us = 0.30;
  /// Per-HCA processing of a work request / incoming packet.
  double hca_processing_us = 0.20;
  /// Cable propagation + port traversal (one direction, one cable).
  double wire_latency_us = 0.15;
  /// Switch crossing.
  double switch_latency_us = 0.10;
  /// Extra execution time of an IB hardware atomic at the target HCA.
  double ib_atomic_exec_us = 0.40;

  // ---- InfiniBand reliability (tier-1, HCA-transparent) -------------------
  // RC QPs retransmit a failed WQE in hardware before surfacing a
  // completion error; these model that retry envelope. Only consulted when
  // a fault plan is active — a healthy fabric never draws on them.
  /// Retransmit attempts before the CQ reports an error (IB retry_cnt).
  int ib_retry_count = 7;
  /// Base retransmit timeout; doubles per attempt (IB timeout encoding).
  double ib_retry_timeout_us = 12.0;
  /// Cap on the per-attempt retransmit timeout growth.
  double ib_retry_timeout_cap_us = 800.0;

  // ---- Memory registration ----------------------------------------------
  double mr_register_base_us = 55.0;
  double mr_register_per_mb_us = 90.0;
  /// Dynamically registered ranges the registration cache retains per PE
  /// before evicting the least-recently-used one (init-time registrations —
  /// heaps, eager slots, staging pools — are pinned and never evicted).
  /// 0 disables the bound (the pre-bounded unbounded behavior).
  std::size_t mr_cache_capacity = 128;

  // ---- Queue-pair transports (RC / UD / DC, SRQ, multi-rail) --------------
  // Connection-state model behind the ib::Transport endpoint API. The RC
  // mesh needs one QP per peer per PE, so its HCA-resident context set
  // outgrows the adapter's on-die QP cache at scale; UD needs one datagram
  // QP total; DC needs a small initiator pool plus one target (DCT).
  /// QP contexts the HCA caches on-die before it must fetch them from host
  /// memory (ConnectX-3-era ICM cache, in entries).
  int hca_qp_cache_entries = 2048;
  /// Extra per-op cost when the working set of connected QPs overflows the
  /// on-die cache (context fetch over PCIe), scaled by the overflow ratio.
  double hca_qp_cache_miss_us = 1.2;
  /// Host/HCA memory pinned per QP: the context itself plus the send ring.
  std::size_t ib_qp_context_bytes = 320;
  std::size_t ib_qp_ring_bytes = 8192;
  /// Per-QP receive buffering when each QP posts its own receives.
  std::size_t ib_recv_ring_bytes = 16384;
  /// One shared receive queue per endpoint (replaces per-QP recv rings for
  /// UD/DC, optional for RC).
  std::size_t ib_srq_bytes = 262144;
  /// UD datagram payload limit (one MTU; larger sends are rejected, RMA is
  /// segmented in software).
  std::size_t ud_mtu_bytes = 4096;
  /// Per-datagram software/header cost the UD path pays on top of the wire
  /// (header build + SRQ consume at the target).
  double ud_packet_overhead_us = 0.25;
  /// DC initiators (DCIs) pooled per endpoint; targeting a peer not among
  /// the initiators' current targets pays the reconnect handshake below.
  int dc_initiator_pool = 8;
  double dc_reconnect_us = 0.4;
  /// Messages at or above this size stripe across both rails (HCAs) when
  /// GDRSHMEM_IB_RAILS=2.
  std::size_t rail_stripe_min_bytes = 256 * 1024;

  // ---- SRD relaxed-ordering transport -------------------------------------
  // EFA/SRD-style fabric: every RMA op is segmented into MTU-sized packets
  // individually sprayed across rails/paths, so segments arrive out of order
  // and a target-side reorder/tracking buffer detects op completion. The
  // reordering is drawn deterministically from the run seed
  // (GDRSHMEM_IB_SRD_SEED), so every run is bit-identical per seed.
  /// SRD segment payload limit (EFA-like MTU).
  std::size_t srd_mtu_bytes = 8192;
  /// Per-segment software/header cost at the source (WQE build + path
  /// selection); cheaper than ud_packet_overhead_us — no per-datagram SRQ
  /// consume, the reorder buffer absorbs arrivals.
  double srd_segment_overhead_us = 0.12;
  /// Width of the per-segment delivery jitter window: each inter-node
  /// segment's arrival is deferred by uniform [0, this) us past the path's
  /// deterministic schedule. 0 disables jitter (in-order srd, for A/B
  /// isolation). Overridable via GDRSHMEM_IB_SRD_JITTER_US.
  double srd_jitter_window_us = 1.5;
  /// Reorder-buffer tracking entry per in-flight segment at the target
  /// (sequence bookkeeping only — payloads land in place on arrival).
  std::size_t srd_reorder_entry_bytes = 64;
  /// Reorder-buffer entries provisioned per endpoint (footprint model).
  int srd_reorder_entries = 1024;

  // ---- Host-side software -----------------------------------------------
  /// Shared-memory (process-to-process, same node) copy bandwidth.
  double host_memcpy_bw_mbps = 11000.0;
  double host_memcpy_overhead_us = 0.20;
  /// OpenSHMEM bookkeeping charged per API call (address translation,
  /// descriptor lookup).
  double shmem_sw_overhead_us = 0.15;
  /// Latency for an idle PE inside the progress engine to notice and start
  /// servicing an incoming runtime request (per control message).
  double progress_wakeup_us = 2.5;

  // ---- Device-initiated communication ------------------------------------
  // Costs of issuing OpenSHMEM operations from inside a running kernel
  // (NVSHMEM/ROC_SHMEM-style). The GPU-IB backend pays a WQE build plus a
  // doorbell ring per operation; the reverse-offload backend pays one
  // host-visible descriptor write and lets the proxy absorb the posting cost.
  /// A single GPU thread assembling a work-queue entry in registers/shared
  /// memory and writing it to the QP buffer (BAR or host-pinned).
  double gpu_wqe_build_us = 0.9;
  /// MMIO doorbell ring across PCIe from the GPU to the HCA.
  double gpu_doorbell_us = 1.1;
  /// Polling the completion queue from device code (one CQE read across
  /// the BAR) — charged by device-side quiet.
  double gpu_cq_poll_us = 0.5;
  /// One command descriptor written to the host-visible ring that the
  /// reverse-offload proxy polls (write-combined PCIe store + flag flip).
  double device_cmd_write_us = 0.4;
  /// Cooperative WQE assembly amortizes the build cost across lanes:
  /// warp-scope issues divide gpu_wqe_build_us by this...
  double wqe_warp_divisor = 4.0;
  /// ...and block-scope issues by this (doorbell cost is never divided —
  /// the ring itself is one MMIO store regardless of scope).
  double wqe_block_divisor = 8.0;

  /// Wilkes-like defaults (what the paper evaluated on).
  static SystemParams wilkes() { return SystemParams{}; }
};

}  // namespace gdrshmem::hw
