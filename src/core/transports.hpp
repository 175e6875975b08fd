// The three transport designs compared in the paper (Table I).
#pragma once

#include "core/transport.hpp"

namespace gdrshmem::core {

class Runtime;

/// "Naive": the runtime moves host memory only; any GPU buffer is the
/// user's problem (explicit cudaMemcpy staging in application code).
class NaiveTransport final : public Transport {
 public:
  explicit NaiveTransport(Runtime& rt) : rt_(rt) {}
  std::string_view name() const override { return "naive"; }
  void put(Ctx& ctx, const RmaOp& op) override;
  void get(Ctx& ctx, const RmaOp& op) override;
  void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) override;

 private:
  Runtime& rt_;
};

/// The CUDA-aware baseline of [15]: CUDA IPC copies intra-node; inter-node
/// D-D via a host-staged pipeline (eager below a threshold, rendezvous
/// above) whose last hop is performed *by the target PE* — breaking true
/// one-sidedness. Inter-node H-D / D-H are unsupported, as in the paper.
class HostPipelineTransport final : public Transport {
 public:
  explicit HostPipelineTransport(Runtime& rt) : rt_(rt) {}
  std::string_view name() const override { return "host-pipeline"; }
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
  std::string_view name() const override { return "enhanced-gdr"; }
  void put(Ctx& ctx, const RmaOp& op) override;
  void get(Ctx& ctx, const RmaOp& op) override;
  void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) override;

 private:
  void pipeline_gdr_write(Ctx& ctx, const RmaOp& op);
  void host_staged_get(Ctx& ctx, const RmaOp& op);
  void proxy_put(Ctx& ctx, const RmaOp& op, const void* host_src);
  void proxy_get(Ctx& ctx, const RmaOp& op);

  /// Record a gdr-fallback event when a device leg of `op` sits on a node
  /// whose P2P capability has been revoked (only a fault plan revokes it).
  void note_gdr_fallback(const RmaOp& op);

  Runtime& rt_;
  /// PE issuing the operation being dispatched (set on entry; execution is
  /// serialized by the simulation, so a single slot is safe).
  int issuer_ = 0;
};

}  // namespace gdrshmem::core
