// The three transport designs compared in the paper (Table I).
#pragma once

#include "core/transport.hpp"

namespace gdrshmem::core {

class Runtime;

/// "Naive": the runtime moves host memory only; any GPU buffer is the
/// user's problem (explicit cudaMemcpy staging in application code).
class NaiveTransport final : public Transport {
 public:
  void put(Ctx& ctx, const RmaOp& op) override;
  void get(Ctx& ctx, const RmaOp& op) override;
  void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) override;
};

/// The CUDA-aware baseline of [15]: CUDA IPC copies intra-node; inter-node
/// D-D via a host-staged pipeline (eager below a threshold, rendezvous
/// above) whose last hop is performed *by the target PE* — breaking true
/// one-sidedness. Inter-node H-D / D-H are unsupported, as in the paper.
class HostPipelineTransport final : public Transport {
 public:
  explicit HostPipelineTransport(Runtime& rt) : rt_(rt) {}
  void put(Ctx& ctx, const RmaOp& op) override;
  void get(Ctx& ctx, const RmaOp& op) override;
  void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) override;

 private:
  void put_intra(Ctx& ctx, const RmaOp& op);
  void get_intra(Ctx& ctx, const RmaOp& op);
  void eager_put(Ctx& ctx, const RmaOp& op);
  void rendezvous_put(Ctx& ctx, const RmaOp& op);
  void remote_request_get(Ctx& ctx, const RmaOp& op);

  void on_eager_data(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void on_eager_get_req(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void on_rts(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void on_chunk(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void on_get_req(Ctx& ctx, CtrlMsg& msg, sim::Process& worker);
  void grant_cts(Ctx& ctx, CtrlMsg& rts, sim::Process& worker);

  Runtime& rt_;
};

/// This paper's design (Section III): GDR/IPC hybrids intra-node, Direct
/// GDR + pipeline-GDR-write + proxy inter-node. True one-sided everywhere.
class EnhancedGdrTransport final : public Transport {
 public:
  explicit EnhancedGdrTransport(Runtime& rt) : rt_(rt) {}
  void put(Ctx& ctx, const RmaOp& op) override;
  void get(Ctx& ctx, const RmaOp& op) override;
  void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) override;

 private:
  /// Count a gdr-fallback for an op with a revoked GPU leg, select its
  /// protocol and run it.
  void run(Ctx& ctx, const RmaOp& op, bool is_get);
  void pipeline_gdr_write(Ctx& ctx, const RmaOp& op);
  void host_staged_get(Ctx& ctx, const RmaOp& op);
  /// `stage_source`: copy a host source through the bounce slots too.
  void proxy_put(Ctx& ctx, const RmaOp& op, bool stage_source);
  /// `stage_dest`: land the bytes in the bounce slots, not in place.
  void proxy_get(Ctx& ctx, const RmaOp& op, bool stage_dest);

  Runtime& rt_;
};

}  // namespace gdrshmem::core
