// Control messages exchanged between PEs and proxy daemons over IB send.
//
// Messages that require *work* at the receiver (copies, staging) are posted
// into the receiver's mailbox and serviced inside its progress engine —
// charging the receiver's time, which is exactly the target involvement the
// paper's baseline suffers from. Pure bookkeeping (ACKs, CTS flags) fires
// shared state directly, like a CQ entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace gdrshmem::core {

struct CtrlMsg {
  enum class Kind {
    kEagerData,      // baseline small put: payload parked in an eager slot
    kEagerGetReq,    // baseline small get: please eager-send me this range
    kRendezvousRts,  // baseline large transfer: request to send
    kRendezvousChunk,// baseline: one pipeline chunk has landed in staging
    kRendezvousGetReq,  // baseline large get: please rendezvous-send me this
    kProxyGet,       // enhanced: proxy, reverse-pipeline this device range
    kProxyPutReq,    // enhanced: proxy, I will stream into your staging
    kProxyPutFin,    // enhanced: streaming done, do the final H2D hop
    kProxyGetCredit, // enhanced: staged get, this chunk's bounce slot is free
    kDeviceCmd,      // device-initiated: reverse-offload command descriptor
  };

  Kind kind{};
  int from = -1;           // sending endpoint id
  void* local = nullptr;   // sender-side buffer involved (if any)
  void* remote = nullptr;  // receiver-side buffer involved (if any)
  std::size_t bytes = 0;
  std::size_t offset = 0;  // chunk offset (rendezvous chunk, fin, credit)
  /// True when this message answers a get request (the receiver is the
  /// original requester and completes locally instead of ACKing back).
  bool is_reply = false;
  /// Per-transfer shared state (cast by the protocol that created it);
  /// carrying the pointer models the 8-byte cookie real protocols embed.
  std::shared_ptr<void> state;
};

}  // namespace gdrshmem::core
