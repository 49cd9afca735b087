#include "src/rpc/rpc_node.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/common/pooled.h"

namespace scatter::rpc {

RpcNode::RpcNode(NodeId id, sim::Network* network)
    : id_(id),
      network_(network),
      rng_(network->simulator()->rng().Fork()),
      timers_(network->simulator()) {
  SCATTER_CHECK(!network_->IsAttached(id_));
  network_->Attach(id_, this);
}

RpcNode::~RpcNode() {
  network_->Detach(id_);
  // Outstanding call callbacks are dropped, never invoked: the node is gone.
  call_index_.clear();
  calls_.clear();
}

bool RpcNode::TakeCall(uint64_t call_id, PendingCall* out) {
  auto it = std::lower_bound(
      call_index_.begin(), call_index_.end(), call_id,
      [](const std::pair<uint64_t, uint32_t>& e, uint64_t id) {
        return e.first < id;
      });
  if (it == call_index_.end() || it->first != call_id) {
    return false;
  }
  const uint32_t slot = it->second;
  call_index_.erase(it);
  PendingCall& call = calls_[slot];
  out->callback = std::move(call.callback);
  out->timeout_timer = call.timeout_timer;
  call.next_free = free_call_;
  free_call_ = slot;
  return true;
}

void RpcNode::HandleMessage(const sim::MessagePtr& message) {
  if (message->is_response) {
    PendingCall call;
    if (!TakeCall(message->rpc_id, &call)) {
      return;  // Response to a timed-out or cancelled call; drop.
    }
    timers_.Cancel(call.timeout_timer);
    if (message->type == sim::MessageType::kRpcError) {
      call.callback(sim::As<RpcErrorMessage>(message).status);
    } else {
      call.callback(message);
    }
    return;
  }
  OnRequest(message);
}

uint64_t RpcNode::Call(NodeId to, sim::MessagePtr request, TimeMicros timeout,
                       RpcCallback callback) {
  SCATTER_CHECK(timeout > 0);
  const uint64_t call_id = next_call_id_++;
  request->from = id_;
  request->to = to;
  request->rpc_id = call_id;
  request->is_response = false;

  const sim::TimerId timer =
      timers_.Schedule(timeout, [this, call_id, to]() {
        PendingCall call;
        if (TakeCall(call_id, &call)) {
          call.callback(TimeoutError("rpc to node " + std::to_string(to)));
        }
      });

  uint32_t slot = free_call_;
  if (slot != kNoCall) {
    free_call_ = calls_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(calls_.size());
    calls_.emplace_back();
  }
  calls_[slot].callback = std::move(callback);
  calls_[slot].timeout_timer = timer;
  call_index_.emplace_back(call_id, slot);
  network_->Send(std::move(request));
  return call_id;
}

void RpcNode::CancelCall(uint64_t call_id) {
  PendingCall call;
  if (TakeCall(call_id, &call)) {
    timers_.Cancel(call.timeout_timer);
  }
}

void RpcNode::SendOneWay(NodeId to, sim::MessagePtr message) {
  message->from = id_;
  message->to = to;
  message->rpc_id = 0;
  message->is_response = false;
  network_->Send(std::move(message));
}

void RpcNode::Forward(NodeId to, const sim::MessagePtr& message) {
  SCATTER_CHECK(message->rpc_id == 0);  // Only one-way messages relay safely.
  message->to = to;
  network_->Send(message);
}

void RpcNode::Reply(const sim::Message& request, sim::MessagePtr response) {
  SCATTER_CHECK(request.rpc_id != 0);
  response->from = id_;
  response->to = request.from;
  response->rpc_id = request.rpc_id;
  response->is_response = true;
  network_->Send(std::move(response));
}

void RpcNode::ReplyError(const sim::Message& request, Status status) {
  auto err = MakePooled<RpcErrorMessage>();
  err->status = std::move(status);
  Reply(request, std::move(err));
}

}  // namespace scatter::rpc
