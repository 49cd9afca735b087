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
  out->deadline = call.deadline;
  out->to = call.to;
  call.next_free = free_call_;
  free_call_ = slot;
  if (call_index_.empty()) {
    timers_.Cancel(timeout_timer_);
    timeout_timer_ = sim::kInvalidTimer;
  } else if (out->deadline == timeout_at_) {
    // The earliest call may have left: follow the next deadline. The timer
    // stays put when another call is due at the same instant, unless it is
    // the timer that just fired.
    const TimeMicros next = calls_[EarliestCall().second].deadline;
    if (next != timeout_at_ || timeout_timer_ == sim::kInvalidTimer) {
      ArmTimeout(next);
    }
  }
  return true;
}

const std::pair<uint64_t, uint32_t>& RpcNode::EarliestCall() const {
  const std::pair<uint64_t, uint32_t>* best = &call_index_.front();
  for (const auto& entry : call_index_) {
    if (calls_[entry.second].deadline < calls_[best->second].deadline) {
      best = &entry;
    }
  }
  return *best;
}

void RpcNode::ArmTimeout(TimeMicros at) {
  timeout_at_ = at;
  const TimeMicros delay = at - now();
  if (!timers_.Reschedule(timeout_timer_, delay)) {
    timeout_timer_ = timers_.Schedule(delay, [this]() { ExpireCall(); });
  }
}

void RpcNode::ExpireCall() {
  timeout_timer_ = sim::kInvalidTimer;  // fired
  PendingCall call;
  TakeCall(EarliestCall().first, &call);  // re-arms for the calls left
  call.callback(TimeoutError("rpc to node " + std::to_string(call.to)));
}

void RpcNode::HandleMessage(const sim::MessagePtr& message) {
  if (message->is_response) {
    PendingCall call;
    if (!TakeCall(message->rpc_id, &call)) {
      return;  // Response to a timed-out or cancelled call; drop.
    }
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

  const TimeMicros deadline = now() + timeout;
  uint32_t slot = free_call_;
  if (slot != kNoCall) {
    free_call_ = calls_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(calls_.size());
    calls_.emplace_back();
  }
  calls_[slot].callback = std::move(callback);
  calls_[slot].deadline = deadline;
  calls_[slot].to = to;
  call_index_.emplace_back(call_id, slot);
  if (timeout_timer_ == sim::kInvalidTimer || deadline < timeout_at_) {
    ArmTimeout(deadline);
  }
  network_->Send(std::move(request));
  return call_id;
}

void RpcNode::CancelCall(uint64_t call_id) {
  PendingCall call;
  TakeCall(call_id, &call);
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
