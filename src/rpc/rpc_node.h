// Typed request/response RPC over the simulated network.
//
// RpcNode is the base class for every protocol participant (Paxos replica,
// Scatter node, Chord node, client). It attaches itself to the network,
// matches responses to outstanding calls, enforces per-call timeouts, and
// funnels unmatched (request) messages to the subclass.
//
// Outstanding calls live in a flat table: a slab of PendingCalls recycled
// through a free list, plus a vector of (call id, slab index) sorted by call
// id. Call ids ascend, so registering a call appends to the index, and a
// reply's lookup is a binary search over the node's few outstanding calls.
// The callback is a small-buffer InlineFn, so a call whose closure fits
// inline allocates nothing once the slab and index have grown.
//
// Call timeouts share one simulator timer per node. Each pending call
// carries its deadline; the timer is pending exactly while some call is,
// and it is due at the earliest pending deadline. A new call moves it only
// when its deadline is earlier, and a call that leaves the table moves it
// to the next deadline (or cancels it once the table is empty), so a call
// answered in time costs no timer event of its own. When the timer fires it
// times out the earliest call by (deadline, call id), re-armed first for
// the calls left: k calls due at one instant take k events, as k timers
// did.

#ifndef SCATTER_SRC_RPC_RPC_NODE_H_
#define SCATTER_SRC_RPC_RPC_NODE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/message.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace scatter::rpc {

// Generic error response carrying only a Status; sent by ReplyError and
// synthesized locally on timeout.
struct RpcErrorMessage : sim::Message {
  RpcErrorMessage() : Message(sim::MessageType::kRpcError) {}
  Status status;
};

class RpcNode : public sim::Endpoint {
 public:
  // Attaches to the transport as `id`. The id must not be attached already.
  RpcNode(NodeId id, sim::Network* network);

  // Detaches and cancels all timers / outstanding calls.
  ~RpcNode() override;

  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  NodeId id() const { return id_; }

  void HandleMessage(const sim::MessagePtr& message) final;

  using RpcCallback = InlineFn<void(StatusOr<sim::MessagePtr>)>;

  // Sends `request` to `to` and invokes `callback` exactly once with either
  // the response or a TIMEOUT status. Returns a handle for CancelCall.
  uint64_t Call(NodeId to, sim::MessagePtr request, TimeMicros timeout,
                RpcCallback callback);

  // Drops an outstanding call; its callback will never run.
  void CancelCall(uint64_t call_id);

  // Fire-and-forget send (no response matching).
  void SendOneWay(NodeId to, sim::MessagePtr message);

  // Relays a received one-way message toward `to`, preserving the original
  // sender so replies flow back to it (leader-hint forwarding).
  void Forward(NodeId to, const sim::MessagePtr& message);

  // Sends `response` as the reply to `request`.
  void Reply(const sim::Message& request, sim::MessagePtr response);

  // Replies with an RpcErrorMessage carrying `status`.
  void ReplyError(const sim::Message& request, Status status);

 protected:
  // Invoked for every incoming message that is not a response to an
  // outstanding call (i.e. requests and one-way messages).
  virtual void OnRequest(const sim::MessagePtr& message) = 0;

  sim::Simulator* simulator() const { return network_->simulator(); }
  sim::Network* network() const { return network_; }
  TimeMicros now() const { return simulator()->now(); }
  sim::TimerOwner& timers() { return timers_; }
  Rng& rng() { return rng_; }

 private:
  static constexpr uint32_t kNoCall = 0xffffffffu;

  struct PendingCall {
    RpcCallback callback;
    TimeMicros deadline = 0;
    NodeId to = kInvalidNode;  // named by the timeout status
    uint32_t next_free = kNoCall;  // free-list link while the slot is free
  };

  // Removes the outstanding call `call_id` from the table, moves it into
  // *out and re-arms the timeout timer for the calls left. Returns false
  // when the call already completed, timed out or was cancelled.
  bool TakeCall(uint64_t call_id, PendingCall* out);
  // The call_index_ entry of the earliest pending call by (deadline, call
  // id); the table must not be empty.
  const std::pair<uint64_t, uint32_t>& EarliestCall() const;
  // Makes the timeout timer due at `at`, moving it when it is pending.
  void ArmTimeout(TimeMicros at);
  // The timeout timer's callback: times out the earliest call.
  void ExpireCall();

  NodeId id_;
  sim::Network* network_;
  Rng rng_;
  uint64_t next_call_id_ = 1;
  std::vector<PendingCall> calls_;  // slab; empty callback while free
  std::vector<std::pair<uint64_t, uint32_t>> call_index_;  // by call id
  uint32_t free_call_ = kNoCall;
  // Pending exactly while a call is; due at timeout_at_, the earliest
  // pending deadline.
  sim::TimerId timeout_timer_ = sim::kInvalidTimer;
  TimeMicros timeout_at_ = 0;
  // Destroyed first (declared last): cancels timers before members vanish.
  sim::TimerOwner timers_;
};

}  // namespace scatter::rpc

#endif  // SCATTER_SRC_RPC_RPC_NODE_H_
