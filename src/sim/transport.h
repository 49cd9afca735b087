// Endpoint and TransportKind: the receiving side of the message-passing
// service and the selector for its implementation. Senders and receivers
// (rpc::RpcNode and everything above it) hold a sim::Network* (network.h);
// its endpoint handoff is the one virtual seam, so the delivery substrate is
// pluggable:
//
//   sim::Network              -- zero-copy in-process handoff (default)
//   wire::SerializingNetwork  -- every delivery round-trips encode -> bytes
//                                -> decode through the codec registry,
//                                enforcing value semantics at the boundary
//   wire::AuditingNetwork     -- in-process handoff plus an encoded
//                                before/after comparison that catches
//                                handlers mutating delivered messages
//
// Handlers must not block: every delivery runs on the one simulation loop,
// so a stalled handler stalls the whole run (scatter-lint rule
// `blocking-in-handler` polices the obvious offenders).

#ifndef SCATTER_SRC_SIM_TRANSPORT_H_
#define SCATTER_SRC_SIM_TRANSPORT_H_

#include "src/common/types.h"
#include "src/sim/message.h"

namespace scatter::sim {

// Receives messages addressed to the NodeId this endpoint is attached as.
// The delivered pointer is only guaranteed valid for the duration of the
// call; a handler that needs the message later must keep the shared_ptr.
// Handlers must never mutate a delivered message: the in-process transport
// shares one allocation across broadcast fan-out (wire::AuditingNetwork
// asserts this; wire::SerializingNetwork makes it structurally impossible).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void HandleMessage(const MessagePtr& message) = 0;
};

// Which transport implementation a cluster/harness should construct.
// kDefault defers to the SCATTER_TRANSPORT environment variable
// (inprocess | serializing | audit; unset = inprocess), which is how
// scripts/ci.sh runs the whole suite over the serializing transport
// without touching any test.
enum class TransportKind {
  kDefault,
  kInProcess,
  kSerializing,
  kAudit,
};

}  // namespace scatter::sim

#endif  // SCATTER_SRC_SIM_TRANSPORT_H_
