// Unit tests for the RPC layer: request/response matching, timeouts,
// cancellation, error envelopes, forwarding, and stray-response handling.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/rpc/rpc_node.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace scatter::rpc {
namespace {

struct EchoRequest : sim::Message {
  explicit EchoRequest(int v)
      : Message(sim::MessageType::kInvalid), value(v) {}
  int value;
};

struct EchoReply : sim::Message {
  explicit EchoReply(int v) : Message(sim::MessageType::kInvalid), value(v) {}
  int value;
};

// Echoes requests back (optionally with a delay or not at all).
class EchoNode : public RpcNode {
 public:
  EchoNode(NodeId id, sim::Network* net) : RpcNode(id, net) {}

  void OnRequest(const sim::MessagePtr& m) override {
    requests_seen++;
    if (mute) {
      return;
    }
    const auto& req = sim::As<EchoRequest>(m);
    if (reply_error) {
      ReplyError(*m, AbortedError("nope"));
      return;
    }
    if (forward_to != kInvalidNode && m->rpc_id == 0) {
      Forward(forward_to, m);
      return;
    }
    if (m->rpc_id != 0 && delay_by_value) {
      // Replies `value` ms late, so calls complete out of order.
      timers().Schedule(Millis(req.value), [this, m, v = req.value] {
        Reply(*m, std::make_shared<EchoReply>(v * 2));
      });
      return;
    }
    if (m->rpc_id != 0) {
      Reply(*m, std::make_shared<EchoReply>(req.value * 2));
    } else {
      one_way_values.push_back(req.value);
    }
  }

  int requests_seen = 0;
  bool mute = false;
  bool reply_error = false;
  bool delay_by_value = false;
  NodeId forward_to = kInvalidNode;
  std::vector<int> one_way_values;
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : sim_(1), net_(&sim_, NetConfig()) {
    a_ = std::make_unique<EchoNode>(1, &net_);
    b_ = std::make_unique<EchoNode>(2, &net_);
    c_ = std::make_unique<EchoNode>(3, &net_);
  }

  static sim::NetworkConfig NetConfig() {
    sim::NetworkConfig cfg;
    cfg.latency = sim::LatencyModel{.kind = sim::LatencyModel::Kind::kConstant,
                                    .base = Millis(2)};
    return cfg;
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<EchoNode> a_;
  std::unique_ptr<EchoNode> b_;
  std::unique_ptr<EchoNode> c_;
};

TEST_F(RpcTest, CallRoundTrip) {
  int result = 0;
  a_->Call(2, std::make_shared<EchoRequest>(21), Seconds(1),
           [&](StatusOr<sim::MessagePtr> r) {
             ASSERT_TRUE(r.ok());
             result = sim::As<EchoReply>(*r).value;
           });
  sim_.Run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim_.now(), Millis(4));  // One RTT.
}

TEST_F(RpcTest, TimeoutFiresExactlyOnce) {
  b_->mute = true;
  int calls = 0;
  Status status;
  a_->Call(2, std::make_shared<EchoRequest>(1), Millis(100),
           [&](StatusOr<sim::MessagePtr> r) {
             calls++;
             status = r.status();
           });
  sim_.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, LateReplyAfterTimeoutIsDropped) {
  // b replies, but after the caller's timeout.
  sim::NetworkConfig slow = NetConfig();
  slow.latency.base = Millis(200);
  sim::Network slow_net(&sim_, slow);
  EchoNode a(11, &slow_net);
  EchoNode b(12, &slow_net);
  int calls = 0;
  a.Call(12, std::make_shared<EchoRequest>(5), Millis(50),
         [&](StatusOr<sim::MessagePtr> r) {
           calls++;
           EXPECT_FALSE(r.ok());
         });
  sim_.Run();
  EXPECT_EQ(calls, 1);  // Only the timeout; the late reply vanished.
}

TEST_F(RpcTest, CancelSuppressesCallback) {
  int calls = 0;
  const uint64_t id = a_->Call(2, std::make_shared<EchoRequest>(1), Seconds(1),
                               [&](StatusOr<sim::MessagePtr>) { calls++; });
  a_->CancelCall(id);
  sim_.Run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(b_->requests_seen, 1);  // The request still arrived.
}

TEST_F(RpcTest, ErrorEnvelopeCarriesStatus) {
  b_->reply_error = true;
  Status status;
  a_->Call(2, std::make_shared<EchoRequest>(1), Seconds(1),
           [&](StatusOr<sim::MessagePtr> r) { status = r.status(); });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_EQ(status.message(), "nope");
}

TEST_F(RpcTest, OneWayDelivers) {
  a_->SendOneWay(2, std::make_shared<EchoRequest>(9));
  sim_.Run();
  ASSERT_EQ(b_->one_way_values.size(), 1u);
  EXPECT_EQ(b_->one_way_values[0], 9);
}

TEST_F(RpcTest, ForwardPreservesOriginalSender) {
  // a sends one-way to b; b forwards to c; c records and would reply to a.
  b_->forward_to = 3;
  a_->SendOneWay(2, std::make_shared<EchoRequest>(7));
  sim_.Run();
  ASSERT_EQ(c_->one_way_values.size(), 1u);
  EXPECT_EQ(c_->one_way_values[0], 7);
  EXPECT_EQ(b_->requests_seen, 1);
  // The message c saw claims to be from a (id 1), not from b.
  // (Verified indirectly: if from were rewritten to b, c's reply targeting
  // logic in real protocols would misroute — covered by the txn tests.)
}

TEST_F(RpcTest, ManyConcurrentCallsMatchCorrectly) {
  std::vector<int> results(50, 0);
  for (int i = 0; i < 50; ++i) {
    a_->Call(2, std::make_shared<EchoRequest>(i), Seconds(1),
             [&results, i](StatusOr<sim::MessagePtr> r) {
               ASSERT_TRUE(r.ok());
               results[i] = sim::As<EchoReply>(*r).value;
             });
  }
  sim_.Run();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(results[i], i * 2);
  }
}

TEST_F(RpcTest, DestructionDropsOutstandingCallbacks) {
  b_->mute = true;
  int calls = 0;
  a_->Call(2, std::make_shared<EchoRequest>(1), Seconds(1),
           [&](StatusOr<sim::MessagePtr>) { calls++; });
  a_.reset();  // Caller dies with the call outstanding.
  sim_.Run();
  EXPECT_EQ(calls, 0);
}

TEST_F(RpcTest, CallToCrashedNodeTimesOut) {
  b_.reset();
  Status status;
  a_->Call(2, std::make_shared<EchoRequest>(1), Millis(100),
           [&](StatusOr<sim::MessagePtr> r) { status = r.status(); });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

// --- The call table ---------------------------------------------------------
// Outstanding calls live in a recycled slab indexed by call id. These pin
// that a completed, timed-out or cancelled call's slot can be reused without
// its old reply ever reaching the new occupant's callback.

TEST_F(RpcTest, OutOfOrderRepliesMatchTheirCalls) {
  b_->delay_by_value = true;
  std::vector<int> completed;
  for (int v : {5, 1, 4, 2, 3}) {
    a_->Call(2, std::make_shared<EchoRequest>(v), Seconds(1),
             [&completed, v](StatusOr<sim::MessagePtr> r) {
               ASSERT_TRUE(r.ok());
               EXPECT_EQ(sim::As<EchoReply>(*r).value, v * 2);
               completed.push_back(v);
             });
  }
  sim_.Run();
  EXPECT_EQ(completed, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_F(RpcTest, ReplyAfterTimeoutNeverReachesTheSlotsNextCall) {
  b_->delay_by_value = true;
  std::vector<std::string> log;
  // Call 1's reply would land at 54 ms; it times out at 20 ms.
  a_->Call(2, std::make_shared<EchoRequest>(50), Millis(20),
           [&log](StatusOr<sim::MessagePtr> r) {
             log.push_back(r.ok() ? "first ok" : "first timeout");
           });
  sim_.RunUntil(Millis(30));
  ASSERT_EQ(log, (std::vector<std::string>{"first timeout"}));
  // Call 2 takes the freed slot; its reply lands at 74 ms, after call 1's.
  a_->Call(2, std::make_shared<EchoRequest>(40), Seconds(1),
           [&log](StatusOr<sim::MessagePtr> r) {
             ASSERT_TRUE(r.ok());
             log.push_back("second " +
                           std::to_string(sim::As<EchoReply>(*r).value));
           });
  sim_.Run();
  EXPECT_EQ(log,
            (std::vector<std::string>{"first timeout", "second 80"}));
}

TEST_F(RpcTest, CancelledCallsLateReplyIsDropped) {
  b_->delay_by_value = true;
  int cancelled_calls = 0;
  std::vector<int> next_values;
  const uint64_t id =
      a_->Call(2, std::make_shared<EchoRequest>(10), Seconds(1),
               [&](StatusOr<sim::MessagePtr>) { cancelled_calls++; });
  a_->CancelCall(id);
  a_->CancelCall(id);  // a second cancel is a no-op
  // Reuses the cancelled call's slot; the cancelled reply lands first.
  a_->Call(2, std::make_shared<EchoRequest>(20), Seconds(1),
           [&](StatusOr<sim::MessagePtr> r) {
             ASSERT_TRUE(r.ok());
             next_values.push_back(sim::As<EchoReply>(*r).value);
           });
  sim_.Run();
  EXPECT_EQ(cancelled_calls, 0);
  EXPECT_EQ(next_values, (std::vector<int>{40}));
  EXPECT_EQ(b_->requests_seen, 2);
}

TEST_F(RpcTest, DestroyedNodeNeverRunsPendingCallbacks) {
  b_->delay_by_value = true;
  auto token = std::make_shared<int>(0);
  int calls = 0;
  for (int v : {1, 5, 9}) {
    a_->Call(2, std::make_shared<EchoRequest>(v), Seconds(1),
             [&calls, token](StatusOr<sim::MessagePtr>) { calls++; });
  }
  EXPECT_EQ(token.use_count(), 4);
  a_.reset();  // replies are still in flight
  EXPECT_EQ(token.use_count(), 1);  // the callbacks were destroyed unrun
  sim_.Run();
  EXPECT_EQ(calls, 0);
}

TEST_F(RpcTest, RecycledSlotsNeverFireStaleCallbacks) {
  b_->delay_by_value = true;
  enum class Expect { kReply, kTimeout, kNothing };
  struct Outcome {
    Expect expect;
    int value;
    int fired = 0;
    bool ok = false;
    int got = 0;
  };
  std::vector<Outcome> outcomes;
  outcomes.reserve(400);
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint64_t> to_cancel;
    for (int k = 0; k < 8; ++k) {
      const int v = static_cast<int>(rng.Range(0, 30));
      // The reply lands v + 4 ms after the call; never tie the timeout.
      const bool times_out = rng.Below(4) == 0;
      const TimeMicros timeout = times_out ? Millis(v + 4) - 500 : Seconds(1);
      const size_t index = outcomes.size();
      outcomes.push_back({times_out ? Expect::kTimeout : Expect::kReply, v});
      const uint64_t id = a_->Call(
          2, std::make_shared<EchoRequest>(v), timeout,
          [&outcomes, index](StatusOr<sim::MessagePtr> r) {
            Outcome& o = outcomes[index];
            o.fired++;
            o.ok = r.ok();
            if (r.ok()) {
              o.got = sim::As<EchoReply>(*r).value;
            }
          });
      if (rng.Below(4) == 0) {
        outcomes[index].expect = Expect::kNothing;
        to_cancel.push_back(id);
      }
    }
    for (uint64_t id : to_cancel) {
      a_->CancelCall(id);
    }
    sim_.RunFor(Millis(rng.Range(0, 20)));
  }
  sim_.Run();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    SCOPED_TRACE(i);
    switch (o.expect) {
      case Expect::kReply:
        EXPECT_EQ(o.fired, 1);
        EXPECT_TRUE(o.ok);
        EXPECT_EQ(o.got, o.value * 2);
        break;
      case Expect::kTimeout:
        EXPECT_EQ(o.fired, 1);
        EXPECT_FALSE(o.ok);
        break;
      case Expect::kNothing:
        EXPECT_EQ(o.fired, 0);
        break;
    }
  }
}

// --- The timeout timer -------------------------------------------------------
// A node keeps one timer for all its calls, due at the earliest pending
// deadline. These pin that every call still times out exactly at its own
// deadline, that a call answered, cancelled or dropped leaves no timer
// event behind, and that ties time out in call order.

TEST_F(RpcTest, MixedTimeoutsExpireAtTheirDeadlines) {
  b_->mute = true;
  std::vector<std::pair<int, TimeMicros>> expired;  // (call, instant)
  auto call = [&](int tag, TimeMicros timeout) {
    a_->Call(2, std::make_shared<EchoRequest>(tag), timeout,
             [&expired, tag, this](StatusOr<sim::MessagePtr> r) {
               EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
               expired.emplace_back(tag, sim_.now());
             });
  };
  call(0, Millis(50));
  call(1, Millis(10));
  call(2, Millis(30));
  sim_.RunFor(Millis(5));
  call(3, Millis(5));    // ties call 1's deadline, issued later
  call(4, Millis(45));   // ties call 0's
  call(5, Millis(100));
  call(6, Millis(1));    // the new earliest
  sim_.Run();
  EXPECT_EQ(expired, (std::vector<std::pair<int, TimeMicros>>{
                         {6, Millis(6)},
                         {1, Millis(10)},
                         {3, Millis(10)},
                         {2, Millis(30)},
                         {0, Millis(50)},
                         {4, Millis(50)},
                         {5, Millis(105)}}));
  // One event per request delivery and one per timeout, as when each call
  // had a timer of its own.
  EXPECT_EQ(sim_.events_processed(), 14u);
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(RpcTest, AnsweredCallsLeaveNoTimerEvent) {
  const size_t baseline = sim_.pending_events();
  int replies = 0;
  for (int v = 0; v < 5; ++v) {
    a_->Call(2, std::make_shared<EchoRequest>(v), Seconds(1) - Millis(v),
             [&replies](StatusOr<sim::MessagePtr> r) {
               EXPECT_TRUE(r.ok());
               replies++;
             });
  }
  // Five requests in flight and a single timer.
  EXPECT_EQ(sim_.pending_events(), baseline + 6);
  sim_.RunFor(Millis(4));
  EXPECT_EQ(replies, 5);
  EXPECT_EQ(sim_.pending_events(), baseline);
  sim_.Run();
  EXPECT_EQ(sim_.now(), Millis(4));  // Run() drained at the last reply
  EXPECT_EQ(sim_.events_processed(), 10u);  // requests and replies only
}

TEST_F(RpcTest, CancelledCallsNeverCallBackAndReleaseTheTimer) {
  b_->mute = true;
  std::vector<int> expired;
  std::vector<uint64_t> ids;
  for (int tag = 0; tag < 4; ++tag) {
    ids.push_back(a_->Call(2, std::make_shared<EchoRequest>(tag),
                           Millis(10 * (tag + 1)),
                           [&expired, tag](StatusOr<sim::MessagePtr>) {
                             expired.push_back(tag);
                           }));
  }
  a_->CancelCall(ids[0]);  // the earliest: the timer moves to call 1's
  a_->CancelCall(ids[2]);
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(expired, (std::vector<int>{1}));
  a_->CancelCall(ids[3]);  // the last call: nothing is left to time out
  a_->CancelCall(ids[3]);
  EXPECT_EQ(sim_.pending_events(), 0u);
  sim_.Run();
  EXPECT_EQ(expired, (std::vector<int>{1}));
  EXPECT_EQ(sim_.now(), Millis(20));
}

// A timeout callback runs after the timer is re-armed for the calls left,
// so it may cancel the next due call or issue an earlier one.
TEST_F(RpcTest, TimeoutCallbacksMayCancelAndIssueCalls) {
  b_->mute = true;
  std::vector<std::pair<int, TimeMicros>> expired;
  auto on = [&expired, this](int tag) {
    return [&expired, tag, this](StatusOr<sim::MessagePtr> r) {
      EXPECT_FALSE(r.ok());
      expired.emplace_back(tag, sim_.now());
    };
  };
  uint64_t tied = 0;
  a_->Call(2, std::make_shared<EchoRequest>(0), Millis(10),
           [&, this](StatusOr<sim::MessagePtr> r) {
             on(0)(std::move(r));
             a_->CancelCall(tied);  // due at this very instant
             a_->Call(2, std::make_shared<EchoRequest>(3), Millis(1), on(3));
           });
  tied = a_->Call(2, std::make_shared<EchoRequest>(1), Millis(10), on(1));
  a_->Call(2, std::make_shared<EchoRequest>(2), Millis(20), on(2));
  sim_.Run();
  EXPECT_EQ(expired, (std::vector<std::pair<int, TimeMicros>>{
                         {0, Millis(10)}, {3, Millis(11)}, {2, Millis(20)}}));
}

TEST_F(RpcTest, DestroyedNodeCancelsItsTimeoutTimer) {
  b_->mute = true;
  int calls = 0;
  for (int v = 0; v < 3; ++v) {
    a_->Call(2, std::make_shared<EchoRequest>(v), Millis(100 + v),
             [&calls](StatusOr<sim::MessagePtr>) { calls++; });
  }
  EXPECT_EQ(sim_.pending_events(), 4u);  // three requests and the timer
  a_.reset();
  EXPECT_EQ(sim_.pending_events(), 3u);
  sim_.Run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(sim_.now(), Millis(2));  // the last delivery; no timeout fired
}

}  // namespace
}  // namespace scatter::rpc
