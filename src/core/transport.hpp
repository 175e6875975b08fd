// The transport strategy interface: how put/get are mapped onto hardware.
#pragma once

#include <cstddef>

#include "core/ctrl.hpp"
#include "sim/engine.hpp"
#include "core/types.hpp"

namespace gdrshmem::core {

class Ctx;

/// One RMA operation, fully resolved: symmetric address already translated
/// to the target's copy, buffer locations classified via UVA.
struct RmaOp {
  int target_pe = -1;
  void* remote = nullptr;          // address in the target PE's heap
  Domain remote_domain = Domain::kHost;
  void* local = nullptr;           // local buffer (source of put / dest of get)
  bool local_is_device = false;
  std::size_t bytes = 0;
  bool same_node = false;
  /// Blocking call (put/get) vs non-blocking-implicit (put_nbi/get_nbi).
  bool blocking = true;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Put: move op.bytes from op.local into op.remote at op.target_pe.
  /// On return the source buffer is reusable iff op.blocking; remote
  /// completion is tracked in ctx's pending set (drained by quiet()).
  virtual void put(Ctx& ctx, const RmaOp& op) = 0;

  /// Get: move op.bytes from op.remote at op.target_pe into op.local.
  /// Blocking gets return with the data in place; non-blocking gets
  /// complete at quiet().
  virtual void get(Ctx& ctx, const RmaOp& op) = 0;

  /// Service one control message addressed to `ctx` (target-side work).
  /// `worker` is the simulated process executing the work — the PE itself
  /// inside its progress engine, or its service thread when enabled.
  virtual void handle_ctrl(Ctx& ctx, CtrlMsg& msg, sim::Process& worker) = 0;
};

}  // namespace gdrshmem::core
