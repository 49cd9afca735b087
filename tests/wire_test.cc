// Wire-format tests: every registered message type must survive
// encode -> decode -> encode byte-identically (the canonical-encoding
// property the audit transport relies on), the codec registry must cover
// the whole MessageType table, and the frame decoder must reject malformed
// input (unknown versions, unregistered types, truncation, trailing bytes)
// instead of crashing. Samples are randomized so repeated rounds act as a
// deterministic fuzzer.

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/baseline/chord_messages.h"
#include "src/baseline/wire_codecs.h"
#include "src/common/hash.h"
#include "src/core/messages.h"
#include "src/core/wire_codecs.h"
#include "src/membership/commands.h"
#include "src/membership/group_state_machine.h"
#include "src/membership/wire_codecs.h"
#include "src/obs/metrics.h"
#include "src/paxos/journal.h"
#include "src/paxos/log.h"
#include "src/paxos/messages.h"
#include "src/paxos/payload_codec.h"
#include "src/paxos/replica.h"
#include "src/paxos/wire_codecs.h"
#include "src/rpc/rpc_node.h"
#include "src/rpc/wire_codecs.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/sim_disk.h"
#include "src/storage/wal.h"
#include "src/txn/messages.h"
#include "src/txn/wire_codecs.h"
#include "src/wire/buffer.h"
#include "src/wire/codec.h"
#include "src/wire/frame_view.h"
#include "src/wire/transport_factory.h"

namespace scatter::wire {
namespace {

// --- Compile-time codec completeness -----------------------------------------
//
// The union of the per-module X-macro message lists (each module's
// wire_codecs.h) must cover the transport's SCATTER_MESSAGE_TYPE_LIST
// exactly once. RegisterWireCodecs() is macro-generated from those same
// lists, so proving list coverage here proves registration coverage at
// compile time: a message type added to the transport table without a home
// in exactly one module list fails a static_assert, not a runtime test.

constexpr size_t CodecOwnerCount(sim::MessageType t) {
  size_t n = 0;
#define SCATTER_CLAIM(enumr, stem) n += (sim::MessageType::enumr == t) ? 1 : 0;
  SCATTER_RPC_WIRE_MESSAGES(SCATTER_CLAIM)
  SCATTER_PAXOS_WIRE_MESSAGES(SCATTER_CLAIM)
  SCATTER_TXN_WIRE_MESSAGES(SCATTER_CLAIM)
  SCATTER_CORE_WIRE_MESSAGES(SCATTER_CLAIM)
  SCATTER_CHORD_WIRE_MESSAGES(SCATTER_CLAIM)
#undef SCATTER_CLAIM
  return n;
}

constexpr bool EveryMessageTypeHasExactlyOneCodecOwner() {
  for (sim::MessageType t : sim::kAllMessageTypes) {
    if (CodecOwnerCount(t) != 1) {
      return false;
    }
  }
  return true;
}

static_assert(EveryMessageTypeHasExactlyOneCodecOwner(),
              "every SCATTER_MESSAGE_TYPE_LIST entry must appear in exactly "
              "one module's SCATTER_*_WIRE_MESSAGES list (rpc, paxos, txn, "
              "core, chord)");

using Rng = std::mt19937_64;

// --- Randomized field builders ----------------------------------------------

Value RandValue(Rng& rng, size_t max_len = 24) {
  const size_t len = rng() % (max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng() % 256));  // arbitrary bytes, incl. \0
  }
  return s;
}

Ballot RandBallot(Rng& rng) { return Ballot{rng(), rng() % 100}; }

ring::KeyRange RandRange(Rng& rng) {
  // Occasionally the full ring (begin == end).
  if (rng() % 8 == 0) {
    return ring::KeyRange::Full();
  }
  return ring::KeyRange{rng(), rng()};
}

std::vector<NodeId> RandNodes(Rng& rng) {
  std::vector<NodeId> ids(rng() % 5);
  for (NodeId& id : ids) {
    id = rng() % 1000;
  }
  return ids;
}

ring::GroupInfo RandInfo(Rng& rng) {
  ring::GroupInfo g;
  g.id = rng();
  g.range = RandRange(rng);
  g.epoch = rng();
  g.members = RandNodes(rng);
  g.leader = rng() % 50;
  g.key_count = rng();
  g.has_key_count = rng() % 2 == 0;
  g.op_rate = static_cast<double>(rng() % 1000000) / 7.0;
  g.has_op_rate = rng() % 2 == 0;
  return g;
}

std::vector<ring::GroupInfo> RandInfos(Rng& rng) {
  std::vector<ring::GroupInfo> infos(rng() % 4);
  for (auto& g : infos) {
    g = RandInfo(rng);
  }
  return infos;
}

store::KvStore RandStore(Rng& rng) {
  store::KvStore kv;
  const size_t n = rng() % 5;
  for (size_t i = 0; i < n; ++i) {
    const Key key = rng();  // sequenced: argument order is unspecified
    kv.Put(key, RandValue(rng));
  }
  return kv;
}

membership::DedupTable RandDedup(Rng& rng) {
  membership::DedupTable table;
  const size_t clients = rng() % 4;
  for (size_t i = 0; i < clients; ++i) {
    membership::DedupEntry& entry = table[rng() % 1000];
    entry.max_seq = rng();
    const size_t results = rng() % 4;
    for (size_t j = 0; j < results; ++j) {
      // Codes must be valid StatusCode values or decode rejects the frame.
      entry.results[rng()] = static_cast<uint8_t>(rng() % 10);
    }
  }
  return table;
}

membership::RingTxn RandTxn(Rng& rng) {
  membership::RingTxn t;
  t.id = rng();
  t.kind = static_cast<membership::RingTxn::Kind>(rng() % 2);
  t.coord_group = rng();
  t.part_group = rng();
  t.coord_range = RandRange(rng);
  t.part_range = RandRange(rng);
  t.coord_epoch = rng();
  t.part_epoch = rng();
  t.merged_id = rng();
  t.new_boundary = rng();
  return t;
}

membership::Contribution RandContribution(Rng& rng) {
  membership::Contribution c;
  c.members = RandNodes(rng);
  c.data = RandStore(rng);
  c.dedup = RandDedup(rng);
  c.outer = RandInfo(rng);
  return c;
}

Status RandStatus(Rng& rng) {
  const auto code = static_cast<StatusCode>(rng() % 10);
  return Status(code, RandValue(rng));
}

baseline::NodeRef RandRef(Rng& rng) {
  return baseline::NodeRef{rng() % 1000, rng()};
}

// One registered command of every concrete type, cycled by `pick`.
paxos::CommandPtr RandCommand(Rng& rng, size_t pick) {
  auto base = [&rng](auto cmd) -> paxos::CommandPtr {
    cmd->client_id = rng() % 1000;
    cmd->client_seq = rng();
    return cmd;
  };
  switch (pick % 11) {
    case 0:
      return nullptr;  // tag 0: entries may carry no command
    case 1:
      return std::make_shared<paxos::NoOpCommand>();
    case 2: {
      const auto op = static_cast<paxos::ConfigCommand::Op>(rng() % 2);
      return std::make_shared<paxos::ConfigCommand>(op, rng() % 1000);
    }
    case 3: {
      const Key key = rng();
      return base(std::make_shared<membership::PutCommand>(key,
                                                           RandValue(rng)));
    }
    case 4:
      return base(std::make_shared<membership::DeleteCommand>(rng()));
    case 5: {
      auto cmd = std::make_shared<membership::SplitCommand>();
      cmd->split_key = rng();
      cmd->left_id = rng();
      cmd->right_id = rng();
      cmd->left_members = RandNodes(rng);
      cmd->right_members = RandNodes(rng);
      return base(cmd);
    }
    case 6: {
      auto cmd = std::make_shared<membership::CoordStartCommand>();
      cmd->txn = RandTxn(rng);
      return base(cmd);
    }
    case 7: {
      auto cmd = std::make_shared<membership::CoordDecideCommand>();
      cmd->txn_id = rng();
      cmd->commit = rng() % 2 == 0;
      cmd->part = RandContribution(rng);
      return base(cmd);
    }
    case 8: {
      auto cmd = std::make_shared<membership::PrepareCommand>();
      cmd->txn = RandTxn(rng);
      cmd->coord = RandContribution(rng);
      return base(cmd);
    }
    case 9: {
      auto cmd = std::make_shared<membership::DecideCommand>();
      cmd->txn_id = rng();
      cmd->commit = rng() % 2 == 0;
      return base(cmd);
    }
    default: {
      auto cmd = std::make_shared<membership::UpdateNeighborCommand>();
      cmd->is_successor = rng() % 2 == 0;
      cmd->info = RandInfo(rng);
      return base(cmd);
    }
  }
}

std::vector<paxos::LogEntry> RandEntries(Rng& rng) {
  std::vector<paxos::LogEntry> entries(rng() % 4);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].index = rng();
    entries[i].ballot = RandBallot(rng);
    entries[i].command = RandCommand(rng, rng());
  }
  return entries;
}

membership::GroupState RandGroupState(Rng& rng) {
  membership::GroupState s;
  s.id = rng();
  s.range = RandRange(rng);
  s.epoch = rng();
  s.pred = RandInfo(rng);
  s.succ = RandInfo(rng);
  s.data = RandStore(rng);
  s.dedup = RandDedup(rng);
  if (rng() % 2 == 0) {
    membership::ActiveTxn active;
    active.txn = RandTxn(rng);
    active.is_coordinator = rng() % 2 == 0;
    active.my_members = RandNodes(rng);
    active.coord = RandContribution(rng);
    s.active = std::move(active);
  }
  const size_t outcomes = rng() % 4;
  for (size_t i = 0; i < outcomes; ++i) {
    s.txn_outcomes[rng()] = rng() % 2 == 0;
  }
  s.retired = rng() % 2 == 0;
  s.forward = RandInfos(rng);
  return s;
}

// Listener for a group state machine that only restores and encodes.
class NullGroupListener : public membership::GroupListener {
 public:
  void OnGroupsFounded(GroupId,
                       const std::vector<membership::FoundingGroup>&) override {}
};

// The bytes GroupStateMachine::EncodeState writes for `state`.
std::vector<uint8_t> StateBytes(membership::GroupState state) {
  NullGroupListener listener;
  const membership::GroupStateMachine sm(&listener, std::move(state));
  Buffer out;
  sm.EncodeState(out);
  return out.bytes();
}

// --- Per-type message samples ------------------------------------------------

// Randomizes the shared transport header so round trips exercise it too.
sim::MessagePtr Finish(std::shared_ptr<sim::Message> m, Rng& rng) {
  m->from = rng() % 1000 + 1;
  m->to = rng() % 1000 + 1;
  m->rpc_id = rng();
  m->is_response = rng() % 2 == 0;
  m->trace_id = rng();
  m->span_id = rng();
  return m;
}

// One randomized sample of EVERY message type in the X-macro table. A test
// below asserts the coverage really is exhaustive, so adding a message type
// without extending this factory fails loudly.
std::vector<sim::MessagePtr> SampleMessages(Rng& rng) {
  std::vector<sim::MessagePtr> out;
  auto add = [&](std::shared_ptr<sim::Message> m) {
    out.push_back(Finish(std::move(m), rng));
  };
  const GroupId g = rng() % 100 + 1;

  {
    auto m = std::make_shared<rpc::RpcErrorMessage>();
    m->status = RandStatus(rng);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::PrepareMsg>(g);
    m->ballot = RandBallot(rng);
    m->last_log_index = rng();
    m->last_log_ballot = RandBallot(rng);
    m->bypass_lease = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<paxos::PromiseMsg>(g);
    m->ballot = RandBallot(rng);
    m->granted = rng() % 2 == 0;
    m->promised = RandBallot(rng);
    m->lease_wait = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::AcceptMsg>(g);
    m->ballot = RandBallot(rng);
    m->prev_index = rng();
    m->prev_ballot = RandBallot(rng);
    m->entries = RandEntries(rng);
    m->commit_index = rng();
    m->sent_at = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::AcceptedMsg>(g);
    m->ballot = RandBallot(rng);
    m->ok = rng() % 2 == 0;
    m->promised = RandBallot(rng);
    m->match_index = rng();
    m->need_from = rng();
    m->applied_index = rng();
    m->leader_sent_at = static_cast<TimeMicros>(rng() % 1000000);
    m->centrality = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::SnapshotMsg>(g);
    m->ballot = RandBallot(rng);
    m->last_included_index = rng();
    m->last_included_ballot = RandBallot(rng);
    m->config = RandNodes(rng);
    m->config_index = rng();
    m->data = rng() % 4 == 0 ? std::vector<uint8_t>()
                             : StateBytes(RandGroupState(rng));
    m->sent_at = static_cast<TimeMicros>(rng() % 1000000);
    m->bootstrap = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<paxos::SnapshotAckMsg>(g);
    m->ballot = RandBallot(rng);
    m->last_included_index = rng();
    m->leader_sent_at = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::TimeoutNowMsg>(g);
    m->ballot = RandBallot(rng);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::PingMsg>(g);
    m->sent_at = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::PongMsg>(g);
    m->ping_sent_at = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnPrepareMsg>();
    m->txn = RandTxn(rng);
    m->coord = RandContribution(rng);
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnPrepareReplyMsg>();
    m->txn_id = rng();
    m->prepared = rng() % 2 == 0;
    m->part = RandContribution(rng);
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnDecisionMsg>();
    m->txn_id = rng();
    m->participant_group = rng();
    m->commit = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnDecisionAckMsg>();
    m->txn_id = rng();
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnStatusQueryMsg>();
    m->txn_id = rng();
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnStatusReplyMsg>();
    m->txn_id = rng();
    m->known = rng() % 2 == 0;
    m->committed = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<core::ClientRequestMsg>();
    m->op = static_cast<core::ClientOp>(rng() % 3);
    m->key = rng();
    m->value = RandValue(rng);
    m->client_id = rng();
    m->client_seq = rng();
    add(m);
  }
  {
    auto m = std::make_shared<core::ClientReplyMsg>();
    m->code = static_cast<StatusCode>(rng() % 10);
    m->found = rng() % 2 == 0;
    m->value = RandValue(rng);
    m->ring_updates = RandInfos(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::LookupRequestMsg>();
    m->key = rng();
    add(m);
  }
  {
    auto m = std::make_shared<core::LookupReplyMsg>();
    m->known = rng() % 2 == 0;
    m->authoritative = rng() % 2 == 0;
    m->info = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::JoinRequestMsg>();
    m->no_redirect = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<core::JoinReplyMsg>();
    m->code = static_cast<StatusCode>(rng() % 10);
    m->group = RandInfo(rng);
    m->seed_ring = RandInfos(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::GroupInfoRequestMsg>();
    m->group = rng();
    add(m);
  }
  {
    auto m = std::make_shared<core::GroupInfoReplyMsg>();
    m->known = rng() % 2 == 0;
    m->authoritative = rng() % 2 == 0;
    m->info = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::MigrateRequestMsg>();
    m->beneficiary = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::MigrateDirectiveMsg>();
    m->target_group = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::LeaveRequestMsg>();
    m->group = rng();
    add(m);
  }
  {
    auto m = std::make_shared<core::RingGossipMsg>();
    m->infos = RandInfos(rng);
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordFindSuccessorMsg>();
    m->target = rng();
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordFindSuccessorReplyMsg>();
    m->done = rng() % 2 == 0;
    m->result = RandRef(rng);
    m->next_hop = RandRef(rng);
    add(m);
  }
  add(std::make_shared<baseline::ChordGetNeighborsMsg>());
  {
    auto m = std::make_shared<baseline::ChordGetNeighborsReplyMsg>();
    m->predecessor = RandRef(rng);
    m->successors.resize(rng() % 4);
    for (auto& s : m->successors) {
      s = RandRef(rng);
    }
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordNotifyMsg>();
    m->candidate = RandRef(rng);
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordStoreMsg>();
    m->key = rng();
    m->value = RandValue(rng);
    m->version = static_cast<TimeMicros>(rng() % 1000000);
    m->replicate = static_cast<uint32_t>(rng() % 5);
    add(m);
  }
  add(std::make_shared<baseline::ChordStoreAckMsg>());
  {
    auto m = std::make_shared<baseline::ChordFetchMsg>();
    m->key = rng();
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordFetchReplyMsg>();
    m->found = rng() % 2 == 0;
    m->value = RandValue(rng);
    add(m);
  }
  add(std::make_shared<baseline::ChordPingMsg>());
  add(std::make_shared<baseline::ChordPongMsg>());

  return out;
}

// --- Round-trip machinery ----------------------------------------------------

void ExpectRoundTrips(const sim::MessagePtr& m) {
  Buffer first;
  EncodeFrame(*m, first);
  size_t consumed = 0;
  std::string error;
  sim::MessagePtr copy =
      DecodeFrame(first.data(), first.size(), &consumed, &error);
  ASSERT_NE(copy, nullptr) << sim::MessageTypeName(m->type) << ": " << error;
  EXPECT_EQ(consumed, first.size()) << sim::MessageTypeName(m->type);
  EXPECT_NE(copy.get(), m.get());  // a fresh object, never the original
  EXPECT_EQ(copy->type, m->type);
  EXPECT_EQ(copy->from, m->from);
  EXPECT_EQ(copy->to, m->to);
  EXPECT_EQ(copy->rpc_id, m->rpc_id);
  EXPECT_EQ(copy->is_response, m->is_response);
  EXPECT_EQ(copy->trace_id, m->trace_id);
  EXPECT_EQ(copy->span_id, m->span_id);
  Buffer second;
  EncodeFrame(*copy, second);
  EXPECT_EQ(first.bytes(), second.bytes())
      << sim::MessageTypeName(m->type)
      << ": encode -> decode -> encode is not byte-identical";
}

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RegisterScatterWireCodecs();
    baseline::RegisterWireCodecs();
  }
};

// --- Tests -------------------------------------------------------------------

TEST_F(WireTest, RegistryCoversEveryMessageType) {
  EXPECT_TRUE(MissingMessageCodecs().empty());
  for (sim::MessageType type : sim::kAllMessageTypes) {
    EXPECT_TRUE(HasMessageCodec(type)) << sim::MessageTypeName(type);
  }
  EXPECT_FALSE(HasMessageCodec(sim::MessageType::kInvalid));
}

TEST_F(WireTest, SampleFactoryIsExhaustive) {
  Rng rng(1);
  std::set<sim::MessageType> seen;
  for (const auto& m : SampleMessages(rng)) {
    seen.insert(m->type);
  }
  for (sim::MessageType type : sim::kAllMessageTypes) {
    EXPECT_TRUE(seen.count(type) > 0)
        << "no sample for " << sim::MessageTypeName(type);
  }
  EXPECT_EQ(seen.size(), sim::kMessageTypeCount);
}

TEST_F(WireTest, EveryTypeRoundTripsByteIdentically) {
  // Many rounds of randomized samples: a deterministic fuzz of field
  // combinations (empty containers, wrapping ranges, null commands, ...).
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    for (const auto& m : SampleMessages(rng)) {
      ExpectRoundTrips(m);
    }
  }
}

TEST_F(WireTest, BatchedGetRoundTrips) {
  // A 3-key Get and its 3-result reply: the extra keys and results ride in
  // the appended lists, each decoded field equal to what was sent.
  Rng rng(5);
  auto req = std::make_shared<core::ClientRequestMsg>();
  req->key = 11;
  req->more_keys = {22, 33};
  ExpectRoundTrips(Finish(req, rng));
  Buffer frame;
  EncodeFrame(*req, frame);
  size_t consumed = 0;
  std::string error;
  sim::MessagePtr got = DecodeFrame(frame.data(), frame.size(), &consumed,
                                    &error);
  ASSERT_NE(got, nullptr) << error;
  const auto& req_copy = sim::As<core::ClientRequestMsg>(got);
  ASSERT_EQ(req_copy.key_count(), 3u);
  EXPECT_EQ(req_copy.key_at(0), 11u);
  EXPECT_EQ(req_copy.key_at(1), 22u);
  EXPECT_EQ(req_copy.key_at(2), 33u);
  EXPECT_EQ(req_copy.ByteSize(), req->ByteSize());

  auto reply = std::make_shared<core::ClientReplyMsg>();
  reply->code = StatusCode::kOk;
  reply->found = true;
  reply->value = "first";
  reply->more_results = {
      core::KeyResult{StatusCode::kNotLeader, false, ""},
      core::KeyResult{StatusCode::kOk, true, "third"},
  };
  reply->ring_updates = RandInfos(rng);
  ExpectRoundTrips(Finish(reply, rng));
  frame.clear();
  EncodeFrame(*reply, frame);
  got = DecodeFrame(frame.data(), frame.size(), &consumed, &error);
  ASSERT_NE(got, nullptr) << error;
  const auto& reply_copy = sim::As<core::ClientReplyMsg>(got);
  ASSERT_EQ(reply_copy.more_results.size(), 2u);
  EXPECT_EQ(reply_copy.value, "first");
  EXPECT_EQ(reply_copy.more_results[0].code, StatusCode::kNotLeader);
  EXPECT_FALSE(reply_copy.more_results[0].found);
  EXPECT_EQ(reply_copy.more_results[1].code, StatusCode::kOk);
  EXPECT_TRUE(reply_copy.more_results[1].found);
  EXPECT_EQ(reply_copy.more_results[1].value, "third");
  EXPECT_EQ(reply_copy.ByteSize(), reply->ByteSize());
}

TEST_F(WireTest, EmptyAndMaxEdgesRoundTrip) {
  Rng rng(7);
  {
    // Empty everything.
    auto m = std::make_shared<core::ClientRequestMsg>();
    ExpectRoundTrips(Finish(m, rng));
  }
  {
    // Max-valued scalars and a bulk value.
    auto m = std::make_shared<core::ClientRequestMsg>();
    m->op = core::ClientOp::kPut;
    m->key = ~uint64_t{0};
    m->value = std::string(100 * 1024, '\xab');
    m->client_id = ~uint64_t{0};
    m->client_seq = ~uint64_t{0};
    auto finished = Finish(m, rng);
    finished->rpc_id = ~uint64_t{0};
    finished->trace_id = ~uint64_t{0};
    finished->span_id = ~uint64_t{0};
    ExpectRoundTrips(finished);
  }
  {
    // A batched Accept: many entries, every command kind, null commands.
    auto m = std::make_shared<paxos::AcceptMsg>(1);
    m->ballot = Ballot{~uint64_t{0}, ~uint64_t{0}};
    for (size_t i = 0; i < 64; ++i) {
      paxos::LogEntry e;
      e.index = i + 1;
      e.ballot = RandBallot(rng);
      e.command = RandCommand(rng, i);
      m->entries.push_back(std::move(e));
    }
    ExpectRoundTrips(Finish(m, rng));
  }
  {
    // Snapshot with no data vs. a fully populated group state.
    auto empty = std::make_shared<paxos::SnapshotMsg>(1);
    ExpectRoundTrips(Finish(empty, rng));
    auto full = std::make_shared<paxos::SnapshotMsg>(1);
    full->data = StateBytes(RandGroupState(rng));
    ExpectRoundTrips(Finish(full, rng));
  }
  {
    // Full-ring range inside routing metadata.
    auto m = std::make_shared<core::LookupReplyMsg>();
    m->known = true;
    m->info = RandInfo(rng);
    m->info.range = ring::KeyRange::Full();
    ExpectRoundTrips(Finish(m, rng));
  }
}

// The sample factory leaves AcceptMsg::want_ack at its default (true), so
// the commit-notification value is checked here: it survives the round
// trip and is the only byte that differs from the acknowledged form.
TEST_F(WireTest, AcceptWantAckRoundTrips) {
  Rng rng(7);
  auto acked = std::make_shared<paxos::AcceptMsg>(3);
  acked->ballot = RandBallot(rng);
  acked->prev_index = 41;
  acked->commit_index = 40;
  acked->sent_at = 1234;
  Finish(acked, rng);
  auto notify = std::make_shared<paxos::AcceptMsg>(*acked);
  notify->want_ack = false;
  Buffer acked_frame;
  Buffer notify_frame;
  EncodeFrame(*acked, acked_frame);
  EncodeFrame(*notify, notify_frame);
  ExpectRoundTrips(notify);
  size_t consumed = 0;
  std::string error;
  sim::MessagePtr copy = DecodeFrame(notify_frame.data(), notify_frame.size(),
                                     &consumed, &error);
  ASSERT_NE(copy, nullptr) << error;
  EXPECT_FALSE(static_cast<const paxos::AcceptMsg&>(*copy).want_ack);
  ASSERT_EQ(acked_frame.size(), notify_frame.size());
  size_t differing = 0;
  for (size_t i = 0; i < acked_frame.size(); ++i) {
    differing += acked_frame.data()[i] != notify_frame.data()[i] ? 1 : 0;
  }
  EXPECT_EQ(differing, 1u);
}

TEST_F(WireTest, ToFieldLivesAtTheDocumentedOffset) {
  // The audit transport masks the `to` slot when comparing before/after
  // frames (RpcNode::Forward legitimately rewrites it); this pins the
  // layout constant it relies on.
  Rng rng(11);
  auto m = Finish(std::make_shared<baseline::ChordPingMsg>(), rng);
  m->to = 0x1122334455667788ull;
  Buffer frame;
  EncodeFrame(*m, frame);
  ASSERT_GE(frame.size(), 4 + kFrameToOffset + kFrameToSize);
  uint64_t to = 0;
  for (size_t i = 0; i < kFrameToSize; ++i) {
    to |= static_cast<uint64_t>(frame.data()[4 + kFrameToOffset + i])
          << (8 * i);
  }
  EXPECT_EQ(to, m->to);
}

// One Buffer dirtied, cleared and rewritten over and over, the way a wire
// transport reuses its frame buffer. Every round must see exactly the bytes
// it wrote. Under ASan clear() marks the whole storage unaddressable, so a
// stale pointer into the previous round's frame dies here instead of
// reading the next frame's bytes.
TEST_F(WireTest, ReusedBufferComesBackCleanAfterDirtying) {
  Buffer frame;
  for (int round = 0; round < 64; ++round) {
    frame.Poison(0xA5);
    frame.clear();
    ASSERT_TRUE(frame.empty()) << "round " << round;
    // A round-specific dirty pattern of varying length.
    const size_t len = 16 + static_cast<size_t>(round) * 7 % 400;
    for (size_t i = 0; i < len; ++i) {
      frame.WriteU8(static_cast<uint8_t>(round * 31 + i));
    }
    ASSERT_EQ(frame.size(), len);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(frame.data()[i], static_cast<uint8_t>(round * 31 + i));
    }
  }
}

TEST_F(WireTest, RejectsUnknownVersion) {
  Rng rng(3);
  auto m = Finish(std::make_shared<baseline::ChordPingMsg>(), rng);
  Buffer frame;
  EncodeFrame(*m, frame);
  std::vector<uint8_t> bytes(frame.data(), frame.data() + frame.size());
  bytes[4] = 0xff;  // version u16 lives right after the length prefix
  bytes[5] = 0xff;
  size_t consumed = 1;
  std::string error;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &consumed, &error),
            nullptr);
  EXPECT_EQ(consumed, 0u);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(WireTest, RejectsUnregisteredType) {
  Rng rng(4);
  auto m = Finish(std::make_shared<baseline::ChordPingMsg>(), rng);
  Buffer frame;
  EncodeFrame(*m, frame);
  std::vector<uint8_t> bytes(frame.data(), frame.data() + frame.size());
  bytes[6] = 0xff;  // type u16 follows the version
  bytes[7] = 0x7f;
  size_t consumed = 1;
  std::string error;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &consumed, &error),
            nullptr);
  EXPECT_EQ(consumed, 0u);
  EXPECT_FALSE(error.empty());
}

TEST_F(WireTest, RejectsEveryTruncation) {
  Rng rng(5);
  auto m = std::make_shared<core::ClientRequestMsg>();
  m->op = core::ClientOp::kPut;
  m->key = 42;
  m->value = "truncate-me";
  Buffer frame;
  EncodeFrame(*Finish(m, rng), frame);
  for (size_t n = 0; n < frame.size(); ++n) {
    size_t consumed = 1;
    std::string error;
    EXPECT_EQ(DecodeFrame(frame.data(), n, &consumed, &error), nullptr)
        << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(consumed, 0u);
  }
}

TEST_F(WireTest, RejectsCorruptedFrameLength) {
  Rng rng(6);
  auto m = std::make_shared<core::ClientRequestMsg>();
  m->value = "payload";
  Buffer frame;
  EncodeFrame(*Finish(m, rng), frame);
  const uint32_t len = static_cast<uint32_t>(frame.size() - 4);

  // Shrunk length: the payload is cut mid-field.
  std::vector<uint8_t> shrunk(frame.data(), frame.data() + frame.size() - 1);
  const uint32_t short_len = len - 1;
  for (int i = 0; i < 4; ++i) {
    shrunk[i] = static_cast<uint8_t>(short_len >> (8 * i));
  }
  size_t consumed = 1;
  std::string error;
  EXPECT_EQ(DecodeFrame(shrunk.data(), shrunk.size(), &consumed, &error),
            nullptr);
  EXPECT_EQ(consumed, 0u);

  // Grown length: one byte of trailing garbage inside the frame.
  std::vector<uint8_t> grown(frame.data(), frame.data() + frame.size());
  grown.push_back(0);
  const uint32_t long_len = len + 1;
  for (int i = 0; i < 4; ++i) {
    grown[i] = static_cast<uint8_t>(long_len >> (8 * i));
  }
  consumed = 1;
  EXPECT_EQ(DecodeFrame(grown.data(), grown.size(), &consumed, &error),
            nullptr);
  EXPECT_EQ(consumed, 0u);
  EXPECT_FALSE(error.empty());
}

TEST_F(WireTest, NullAndUnknownCommandTags) {
  {
    Buffer out;
    paxos::EncodeCommand(nullptr, out);  // tag 0
    Reader in(out);
    EXPECT_EQ(paxos::DecodeCommand(in), nullptr);
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.AtEnd());
  }
  {
    Buffer out;
    out.WriteU16(0x7777);  // never registered
    Reader in(out);
    EXPECT_EQ(paxos::DecodeCommand(in), nullptr);
    EXPECT_FALSE(in.ok());
  }
}

// --- Lazy decode (FrameView) -------------------------------------------------

// The lazy path must be observationally identical to the eager decoder on
// every accepted input: same header fields at peek time, same message after
// materialization (checked byte-for-byte through re-encode), same consumed
// size.
TEST_F(WireTest, LazyViewMatchesEagerDecodeOnEveryType) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    for (const auto& m : SampleMessages(rng)) {
      Buffer frame;
      EncodeFrame(*m, frame);

      size_t consumed = 0;
      std::string eager_error;
      sim::MessagePtr eager =
          DecodeFrame(frame.data(), frame.size(), &consumed, &eager_error);
      ASSERT_NE(eager, nullptr)
          << sim::MessageTypeName(m->type) << ": " << eager_error;

      FrameView view;
      std::string lazy_error;
      ASSERT_TRUE(view.Parse(frame.data(), frame.size(), &lazy_error))
          << sim::MessageTypeName(m->type) << ": " << lazy_error;
      // Header peek alone must expose the routing/tracing fields.
      EXPECT_EQ(view.type(), m->type);
      EXPECT_EQ(view.from(), m->from);
      EXPECT_EQ(view.to(), m->to);
      EXPECT_EQ(view.rpc_id(), m->rpc_id);
      EXPECT_EQ(view.is_response(), m->is_response);
      EXPECT_EQ(view.trace_id(), m->trace_id);
      EXPECT_EQ(view.span_id(), m->span_id);
      EXPECT_EQ(view.frame_size(), consumed);
      EXPECT_EQ(view.frame_size(), 4 + kFrameHeaderSize + view.payload_size());

      const sim::MessagePtr lazy = view.Materialize(&lazy_error);
      ASSERT_NE(lazy, nullptr)
          << sim::MessageTypeName(m->type) << ": " << lazy_error;
      // Byte-identical re-encode pins lazy == eager on every field without
      // per-type comparison code.
      Buffer from_eager;
      EncodeFrame(*eager, from_eager);
      Buffer from_lazy;
      EncodeFrame(*lazy, from_lazy);
      EXPECT_EQ(from_eager.bytes(), from_lazy.bytes())
          << sim::MessageTypeName(m->type);
    }
  }
}

// Header-level rejections happen at peek time: Parse fails before any
// payload work, with the same error string the eager decoder reports.
TEST_F(WireTest, HeaderPeekRejectsUnknownVersionTypeAndTruncation) {
  Rng rng(13);
  auto m = std::make_shared<core::ClientRequestMsg>();
  m->op = core::ClientOp::kPut;
  m->key = 42;
  m->value = "peek-reject";
  Buffer frame;
  EncodeFrame(*Finish(m, rng), frame);

  auto expect_same_rejection = [](const uint8_t* data, size_t size) {
    size_t consumed = 1;
    std::string eager_error;
    ASSERT_EQ(DecodeFrame(data, size, &consumed, &eager_error), nullptr);
    ASSERT_EQ(consumed, 0u);
    FrameView view;
    std::string lazy_error;
    EXPECT_FALSE(view.Parse(data, size, &lazy_error));
    EXPECT_EQ(lazy_error, eager_error);
  };

  {
    std::vector<uint8_t> bytes(frame.data(), frame.data() + frame.size());
    bytes[4] = 0xff;  // version u16 lives right after the length prefix
    bytes[5] = 0xff;
    expect_same_rejection(bytes.data(), bytes.size());
  }
  {
    std::vector<uint8_t> bytes(frame.data(), frame.data() + frame.size());
    bytes[6] = 0xff;  // type u16 follows the version
    bytes[7] = 0x7f;
    expect_same_rejection(bytes.data(), bytes.size());
  }
  // Every truncation that cuts the length prefix or fixed header must be
  // rejected by Parse; payload truncations parse but fail to materialize.
  for (size_t n = 0; n < 4 + kFrameHeaderSize; ++n) {
    expect_same_rejection(frame.data(), n);
  }
}

// Exhaustive lazy-vs-eager agreement on hostile input: truncations at every
// byte boundary and garbage payloads across all message types must produce
// the same verdict AND the same error text on both paths.
TEST_F(WireTest, LazyViewFuzzAgreesWithEagerDecode) {
  Rng rng(17);

  auto expect_agreement = [](const uint8_t* data, size_t size,
                             const char* what) {
    size_t consumed = 1;
    std::string eager_error;
    sim::MessagePtr eager = DecodeFrame(data, size, &consumed, &eager_error);

    FrameView view;
    std::string lazy_error;
    sim::MessagePtr lazy;
    if (view.Parse(data, size, &lazy_error)) {
      lazy = view.Materialize(&lazy_error);
    }
    ASSERT_EQ(eager == nullptr, lazy == nullptr)
        << what << ": eager=" << eager_error << " lazy=" << lazy_error;
    if (eager == nullptr) {
      EXPECT_EQ(lazy_error, eager_error) << what;
    } else {
      EXPECT_EQ(view.frame_size(), consumed) << what;
      Buffer a;
      EncodeFrame(*eager, a);
      Buffer b;
      EncodeFrame(*lazy, b);
      EXPECT_EQ(a.bytes(), b.bytes()) << what;
    }
  };

  // Truncations of a real frame of every sampled type.
  for (const auto& m : SampleMessages(rng)) {
    Buffer frame;
    EncodeFrame(*m, frame);
    for (size_t n = 0; n <= frame.size(); n += 1 + n / 8) {
      expect_agreement(frame.data(), n, sim::MessageTypeName(m->type));
    }
  }
  // Garbage payloads under a valid header.
  for (int round = 0; round < 200; ++round) {
    const sim::MessageType type =
        sim::kAllMessageTypes[rng() % sim::kMessageTypeCount];
    Buffer b;
    const size_t at = b.ReserveU32();
    b.WriteU16(kWireVersion);
    b.WriteU16(static_cast<uint16_t>(type));
    const size_t garbage = rng() % 128;
    for (size_t i = 0; i < garbage; ++i) {
      b.WriteU8(static_cast<uint8_t>(rng() % 256));
    }
    b.PatchU32(at, static_cast<uint32_t>(b.size() - 4));
    expect_agreement(b.data(), b.size(), sim::MessageTypeName(type));
  }
}

// --- Encode-side payload memo ------------------------------------------------

// The scatter-gather encode invariants: a command's canonical bytes are
// produced once and reused on every later encode (byte-identically), and the
// memo never crosses to the decode side — a decoded copy re-encodes through
// the real per-type encoder, which is what keeps the audit transport's
// stability check honest.
TEST_F(WireTest, CommandEncodeMemoReusesBytesOnFanOut) {
  auto cmd = std::make_shared<membership::PutCommand>(7, "memo-me");
  cmd->client_id = 3;
  cmd->client_seq = 11;
  const paxos::CommandPtr shared = cmd;
  ASSERT_EQ(shared->wire_memo, nullptr);

  const paxos::PayloadEncodeStats before = paxos::GetPayloadEncodeStats();
  Buffer first;
  paxos::EncodeCommand(shared, first);
  ASSERT_NE(shared->wire_memo, nullptr);
  EXPECT_EQ(shared->wire_memo->size(), first.size());

  // Fan-out: five more encodes of the same object, as ReplicateTo does when
  // replicating one entry to five peers. All served from the memo, all
  // byte-identical.
  for (int peer = 0; peer < 5; ++peer) {
    Buffer again;
    paxos::EncodeCommand(shared, again);
    EXPECT_EQ(again.bytes(), first.bytes());
  }
  const paxos::PayloadEncodeStats after = paxos::GetPayloadEncodeStats();
  EXPECT_EQ(after.memo_fills - before.memo_fills, 1u);
  EXPECT_EQ(after.memo_hits - before.memo_hits, 5u);
  EXPECT_EQ(after.memo_bytes_reused - before.memo_bytes_reused,
            5 * first.size());

  // Decode side: fresh object, no memo attached.
  Reader in(first);
  paxos::CommandPtr decoded = paxos::DecodeCommand(in);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(decoded->wire_memo, nullptr);
  // And its re-encode (through the real encoder) matches the memo bytes.
  Buffer re;
  paxos::EncodeCommand(decoded, re);
  EXPECT_EQ(re.bytes(), first.bytes());
}

TEST_F(WireTest, GarbagePayloadNeverCrashes) {
  // Random bytes with a valid version+type header: decoders must run to
  // completion and reject, exercising the Reader's sticky-failure path.
  Rng rng(9);
  for (int round = 0; round < 200; ++round) {
    const sim::MessageType type =
        sim::kAllMessageTypes[rng() % sim::kMessageTypeCount];
    Buffer b;
    const size_t at = b.ReserveU32();
    b.WriteU16(kWireVersion);
    b.WriteU16(static_cast<uint16_t>(type));
    const size_t garbage = rng() % 128;
    for (size_t i = 0; i < garbage; ++i) {
      b.WriteU8(static_cast<uint8_t>(rng() % 256));
    }
    b.PatchU32(at, static_cast<uint32_t>(b.size() - 4));
    size_t consumed = 1;
    std::string error;
    sim::MessagePtr m = DecodeFrame(b.data(), b.size(), &consumed, &error);
    // Most garbage is rejected; anything accepted must round-trip stably.
    if (m != nullptr) {
      EXPECT_EQ(consumed, b.size());
      ExpectRoundTrips(m);
    } else {
      EXPECT_EQ(consumed, 0u);
    }
  }
}

// --- Pinned bytes ------------------------------------------------------------
//
// Round trips cannot catch a change made symmetrically to an encoder and its
// decoder. These digests pin the exact bytes instead: they were recorded from
// the hand-written codecs that the field lists replaced, and any change to
// the frame, command, group state or journal layout must show up here.

uint64_t Digest(const uint8_t* data, size_t size) {
  return HashBytes(
      std::string_view(reinterpret_cast<const char*>(data), size));
}

uint64_t Digest(const Buffer& b) { return Digest(b.data(), b.size()); }

TEST_F(WireTest, FrameBytesArePinned) {
  // Per message type, folded over the samples of seeds 1-25. ClientRequest
  // and ClientReply were re-pinned when batched Gets appended more_keys and
  // more_results, and PaxosSnapshot when its data became length-prefixed
  // state bytes (PROTOCOL.md §6.2 lists the old and new digests).
  const std::map<std::string, uint64_t> expected = {
      {"ChordFetch", 0x6a216f577c6b1bf4ull},
      {"ChordFetchReply", 0x054e388acd0bbe71ull},
      {"ChordFindSuccessor", 0x5da698fa2131d224ull},
      {"ChordFindSuccessorReply", 0x4b6abcd5adc8f234ull},
      {"ChordGetNeighbors", 0x3ecb4783fed7d701ull},
      {"ChordGetNeighborsReply", 0x4e877f537f4d39e0ull},
      {"ChordNotify", 0xc512b64e11550ae4ull},
      {"ChordPing", 0xb14be85eef73be35ull},
      {"ChordPong", 0xa1897825dee74abeull},
      {"ChordStore", 0xf4013e952bf81f37ull},
      {"ChordStoreAck", 0x8c8593497bf4deb2ull},
      {"ClientReply", 0x10348cca360e4cdaull},
      {"ClientRequest", 0xfe24c2834dbb4e68ull},
      {"GroupInfoReply", 0x3b5828b5510f5a2dull},
      {"GroupInfoRequest", 0x5e15ef1076db79f7ull},
      {"JoinReply", 0xd2d8fd2929b7c2f1ull},
      {"JoinRequest", 0x2c2c718f456213acull},
      {"LeaveRequest", 0x79a7c0ba62bd7676ull},
      {"LookupReply", 0xa2c3db650dff088cull},
      {"LookupRequest", 0xc2cebe795c23ee56ull},
      {"MigrateDirective", 0x42d8c31e23bd5f5dull},
      {"MigrateRequest", 0x70d3af665c0bb98dull},
      {"PaxosAccept", 0xad34768d1d8ba237ull},
      {"PaxosAccepted", 0x3ac26585646cbce3ull},
      {"PaxosPing", 0x21c5006e3244e7bcull},
      {"PaxosPong", 0x4c0f561407b3bf66ull},
      {"PaxosPrepare", 0x71cd6b00e1b095c9ull},
      {"PaxosPromise", 0x82cb3990a5a28f90ull},
      {"PaxosSnapshot", 0x2d3a281c79e5e182ull},
      {"PaxosSnapshotAck", 0xb1a9d2b8f7099a55ull},
      {"PaxosTimeoutNow", 0x4746e852844d4db5ull},
      {"RingGossip", 0xee02a81b01861556ull},
      {"RpcError", 0x09a51146a5bd6eafull},
      {"TxnDecision", 0x4b7ec71bc07039a4ull},
      {"TxnDecisionAck", 0xd6c2bab3c5a1d7f2ull},
      {"TxnPrepare", 0x4a981371ab8723ebull},
      {"TxnPrepareReply", 0x9ef44942701744dbull},
      {"TxnStatusQuery", 0xdeca6b4f0d2bdc4dull},
      {"TxnStatusReply", 0x201f7e20bc99030eull},
  };
  std::map<std::string, uint64_t> got;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    for (const auto& m : SampleMessages(rng)) {
      Buffer frame;
      EncodeFrame(*m, frame);
      uint64_t& fold = got[sim::MessageTypeName(m->type)];
      fold = MixHash(fold, Digest(frame));
    }
  }
  EXPECT_EQ(got, expected);
}

TEST_F(WireTest, PayloadBytesArePinned) {
  // One sample of every command tag (pick 0 is the null command), then the
  // state bytes of one group (GroupStateMachine::EncodeState).
  Rng rng(29);
  std::vector<uint64_t> got;
  for (size_t pick = 0; pick < 11; ++pick) {
    Buffer out;
    paxos::EncodeCommand(RandCommand(rng, pick), out);
    got.push_back(Digest(out));
  }
  const std::vector<uint8_t> state = StateBytes(RandGroupState(rng));
  got.push_back(Digest(state.data(), state.size()));
  const std::vector<uint64_t> expected = {
      0x7bc210046bd616ccull,
      0x096fb4607e99c43eull,
      0xc9507b5f7a1f35a9ull,
      0x49c95cd427cd441cull,
      0xac293de69dc2e6fdull,
      0xe4e5ed3399d677d2ull,
      0x0ff5864fc193f08aull,
      0x78f78dbbc3b124aeull,
      0xa596c94637c1f589ull,
      0xf7adfe19679309e1ull,
      0x9923279f71253ceaull,
      0xeb73c92eeef72d88ull,
  };
  EXPECT_EQ(got, expected);
}

TEST_F(WireTest, JournalBytesArePinned) {
  // A scripted journal writes every record type: checkpoint, promise,
  // accept, commit and truncate, then a second checkpoint that rewrites the
  // WAL down to a residual suffix. The two snapshot-file digests were
  // re-pinned when a checkpoint's state lost its snapshot tag (PROTOCOL.md
  // §6.2); the WAL digests never moved.
  storage::SimDisk disk;
  obs::MetricsRegistry metrics;
  const GroupId group = 7;
  paxos::GroupJournal journal(&disk, &metrics, /*node=*/1, group);
  Rng rng(31);
  NullGroupListener listener;
  membership::GroupState initial;
  initial.id = 1;
  membership::GroupStateMachine sm(&listener, std::move(initial));
  paxos::Log log;
  std::vector<uint8_t> state = StateBytes(RandGroupState(rng));
  ASSERT_TRUE(sm.Restore(state.data(), state.size()));
  journal.WriteCheckpoint({0, Ballot{}, {1, 2, 3}, 0, Ballot{1, 1}, 0}, sm, log);
  journal.LogPromise(Ballot{2, 3});
  for (uint64_t i = 1; i <= 11; ++i) {
    paxos::LogEntry e;
    e.index = i;
    e.ballot = Ballot{2, 3};
    e.command = RandCommand(rng, i);
    journal.LogAccept(e);
    if (i < 9) {  // the live log holds what survives the truncation below
      log.Set(i, e.ballot, e.command);
    }
  }
  journal.LogCommit(5);
  journal.LogTruncateSuffix(9);
  journal.Sync();

  auto file_digest = [&disk](const std::string& file) {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(disk.Read(file, &bytes)) << file;
    return Digest(bytes.data(), bytes.size());
  };
  std::vector<uint64_t> got;
  got.push_back(file_digest(paxos::SnapFileName(group)));
  got.push_back(file_digest(paxos::WalFileName(group)));

  // The residual suffix is the log's entries 5..8, above the new base.
  state = StateBytes(RandGroupState(rng));
  ASSERT_TRUE(sm.Restore(state.data(), state.size()));
  journal.WriteCheckpoint({4, Ballot{2, 3}, {1, 2, 3, 4}, 3, Ballot{2, 3}, 5},
                          sm, log);
  journal.LogCommit(8);
  journal.Sync();
  got.push_back(file_digest(paxos::SnapFileName(group)));
  got.push_back(file_digest(paxos::WalFileName(group)));

  membership::GroupState empty;
  empty.id = group;
  membership::GroupStateMachine restored(&listener, std::move(empty));
  paxos::RecoveredState recovered;
  ASSERT_TRUE(paxos::GroupJournal::Recover(disk, group, &restored, &recovered));
  EXPECT_EQ(recovered.snap_base_index, 4u);
  EXPECT_EQ(recovered.entries.size(), 4u);
  EXPECT_EQ(recovered.commit_index, 8u);
  Buffer restored_state;
  restored.EncodeState(restored_state);
  EXPECT_EQ(restored_state.bytes(), state);

  const std::vector<uint64_t> expected = {
      0xca3f213d11985670ull,
      0x8f3f5c0b4c580c45ull,
      0x21335080d9c30c21ull,
      0xd7f4d8b87df2869dull,
  };
  EXPECT_EQ(got, expected);
}

// --- One state encoding --------------------------------------------------------
//
// A group's state has one byte encoding, GroupStateMachine::EncodeState.
// A leader ships it to a joiner in SnapshotMsg::data, and every checkpoint
// stores it after its header.

// One replica of a group over GroupStateMachine, journaling to `disk`.
// Records the state bytes of every SnapshotMsg it receives.
class GroupReplicaNode : public rpc::RpcNode, public paxos::ReplicaHost {
 public:
  GroupReplicaNode(NodeId id, sim::Network* network, GroupId group,
                   membership::GroupState initial,
                   std::vector<NodeId> members, storage::SimDisk* disk)
      : RpcNode(id, network), sm_(&listener_, std::move(initial)) {
    replica_ = std::make_unique<paxos::Replica>(
        simulator(), this, &sm_, paxos::PaxosConfig(), group, id,
        std::move(members),
        std::make_unique<paxos::GroupJournal>(disk, &simulator()->metrics(),
                                              id, group));
  }

  void SendPaxos(NodeId to, std::shared_ptr<paxos::PaxosMessage> m) override {
    SendOneWay(to, std::move(m));
  }
  void OnRequest(const sim::MessagePtr& m) override {
    if (m->type == sim::MessageType::kPaxosSnapshot) {
      installs.push_back(static_cast<const paxos::SnapshotMsg&>(*m).data);
    }
    replica_->OnMessage(std::static_pointer_cast<paxos::PaxosMessage>(m));
  }

  paxos::Replica& replica() { return *replica_; }
  std::vector<uint8_t> StateBytes() const {
    Buffer out;
    sm_.EncodeState(out);
    return out.bytes();
  }

  std::vector<std::vector<uint8_t>> installs;

 private:
  NullGroupListener listener_;
  membership::GroupStateMachine sm_;
  std::unique_ptr<paxos::Replica> replica_;
};

// The state bytes of the checkpoint in `disk`'s snapshot file: the record's
// payload after its CheckpointHeader.
std::vector<uint8_t> CheckpointStateBytes(const storage::SimDisk& disk,
                                          GroupId group) {
  storage::WalRecord record;
  EXPECT_TRUE(storage::ReadSnapshotFile(disk, paxos::SnapFileName(group),
                                        &record));
  Reader in(record.payload.data(), record.payload.size());
  paxos::CheckpointHeader header;
  in(header);
  EXPECT_TRUE(in.ok());
  return std::vector<uint8_t>(record.payload.end() - in.remaining(),
                              record.payload.end());
}

// The state holds keys, dedup windows, an active transaction and a forward
// list. Three founders start from it; a fourth node joins over the
// serializing transport, so its snapshot crosses the wire as frame bytes.
TEST_F(WireTest, SnapshotsAndCheckpointsCarryOneStateEncoding) {
  constexpr GroupId kGroup = 5;
  membership::GroupState state;
  state.id = kGroup;
  state.range = ring::KeyRange{100, 900};
  state.epoch = 4;
  for (Key k = 100; k < 160; ++k) {
    state.data.Put(k, "v" + std::to_string(k));
  }
  for (uint64_t client = 1; client <= 3; ++client) {
    membership::DedupEntry& entry = state.dedup[client];
    entry.max_seq = 10 * client;
    entry.results[10 * client] = 0;
    entry.results[10 * client - 1] = 3;
  }
  membership::ActiveTxn active;
  active.txn.id = 77;
  active.txn.kind = membership::RingTxn::Kind::kMerge;
  active.my_members = {1, 2, 3};
  active.coord.members = {8, 9};
  active.coord.data.Put(950, "coord");
  active.coord.dedup[6].max_seq = 2;
  state.active = std::move(active);
  state.txn_outcomes = {{5, true}, {6, false}};
  state.forward = {ring::GroupInfo{6, ring::KeyRange{100, 500}, 5, {1, 2},
                                   kInvalidNode},
                   ring::GroupInfo{7, ring::KeyRange{500, 900}, 5, {3},
                                   kInvalidNode}};
  const std::vector<uint8_t> expected = StateBytes(state);

  sim::Simulator sim(5);
  sim::NetworkConfig net_config;
  net_config.latency = sim::LatencyModel::Lan();
  auto net = MakeNetwork(&sim, net_config, sim::TransportKind::kSerializing);
  std::map<NodeId, storage::SimDisk> disks;
  std::map<NodeId, std::unique_ptr<GroupReplicaNode>> nodes;
  for (NodeId id : {1, 2, 3}) {
    nodes[id] = std::make_unique<GroupReplicaNode>(
        id, net.get(), kGroup, state, std::vector<NodeId>{1, 2, 3},
        &disks[id]);
  }
  membership::GroupState blank;
  blank.id = kGroup;
  nodes[4] = std::make_unique<GroupReplicaNode>(
      4, net.get(), kGroup, blank, std::vector<NodeId>{}, &disks[4]);

  GroupReplicaNode* leader = nullptr;
  for (int i = 0; i < 2000 && leader == nullptr; ++i) {
    sim.RunFor(Millis(10));
    for (auto& [id, node] : nodes) {
      if (node->replica().is_leader()) {
        leader = node.get();
      }
    }
  }
  ASSERT_NE(leader, nullptr);
  bool added = false;
  leader->replica().ProposeConfigChange(
      paxos::ConfigCommand::Op::kAddMember, 4,
      [&added](StatusOr<uint64_t> result) { added = result.ok(); });
  for (int i = 0; i < 2000 && !added; ++i) {
    sim.RunFor(Millis(10));
  }
  ASSERT_TRUE(added);
  GroupReplicaNode& joiner = *nodes[4];
  ASSERT_TRUE(joiner.replica().has_started());
  ASSERT_FALSE(joiner.installs.empty());

  // The bytes the leader put in SnapshotMsg are the state bytes its
  // checkpoint wrote.
  EXPECT_EQ(leader->StateBytes(), expected);
  EXPECT_EQ(joiner.installs.front(), expected);
  EXPECT_EQ(CheckpointStateBytes(disks[leader->id()], kGroup), expected);
  // The joiner re-encodes byte-identical state and checkpointed it.
  EXPECT_EQ(joiner.StateBytes(), expected);
  EXPECT_EQ(CheckpointStateBytes(disks[4], kGroup), expected);
  // A replica recovered from either checkpoint re-encodes it too.
  for (NodeId id : {leader->id(), NodeId{4}}) {
    SCOPED_TRACE(id);
    NullGroupListener listener;
    membership::GroupStateMachine recovered_sm(&listener, blank);
    paxos::RecoveredState recovered;
    ASSERT_TRUE(paxos::GroupJournal::Recover(disks[id], kGroup, &recovered_sm,
                                             &recovered));
    Buffer out;
    recovered_sm.EncodeState(out);
    EXPECT_EQ(out.bytes(), expected);
  }
}

// --- Enum range checks -------------------------------------------------------
//
// Every enum-valued field is one byte on the wire, and decode rejects a byte
// above the enum's last value. make(v) builds a message whose enum field is
// v; encoding it with 0 and with `last` locates the field's byte as the only
// byte that differs. The frame must decode with `last` there and be
// rejected, with the same error on the eager and lazy paths, at last + 1.
template <typename Make>
void ExpectEnumByteRejected(const char* what, Make make, uint8_t last) {
  SCOPED_TRACE(what);
  Buffer low;
  EncodeFrame(*make(0), low);
  Buffer high;
  EncodeFrame(*make(last), high);
  ASSERT_EQ(low.size(), high.size());
  std::vector<size_t> diff;
  for (size_t i = 0; i < low.size(); ++i) {
    if (low.data()[i] != high.data()[i]) {
      diff.push_back(i);
    }
  }
  ASSERT_EQ(diff.size(), 1u);
  std::vector<uint8_t> bytes = high.bytes();
  ASSERT_EQ(bytes[diff[0]], last);

  size_t consumed = 0;
  std::string error;
  ASSERT_NE(DecodeFrame(bytes.data(), bytes.size(), &consumed, &error),
            nullptr)
      << error;

  bytes[diff[0]] = static_cast<uint8_t>(last + 1);
  std::string eager_error;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &consumed, &eager_error),
            nullptr);
  EXPECT_EQ(consumed, 0u);
  EXPECT_FALSE(eager_error.empty());
  FrameView view;
  std::string lazy_error;
  ASSERT_TRUE(view.Parse(bytes.data(), bytes.size(), &lazy_error))
      << lazy_error;
  EXPECT_EQ(view.Materialize(&lazy_error), nullptr);
  EXPECT_EQ(lazy_error, eager_error);
}

TEST_F(WireTest, EveryEnumFieldRejectsAByteAboveItsLastValue) {
  ExpectEnumByteRejected(
      "ConfigCommand::Op",
      [](uint8_t v) {
        auto m = std::make_shared<paxos::AcceptMsg>(1);
        paxos::LogEntry e;
        e.index = 1;
        e.command = std::make_shared<paxos::ConfigCommand>(
            static_cast<paxos::ConfigCommand::Op>(v), 5);
        m->entries.push_back(e);
        return m;
      },
      static_cast<uint8_t>(paxos::ConfigCommand::Op::kRemoveMember));
  ExpectEnumByteRejected(
      "ClientOp",
      [](uint8_t v) {
        auto m = std::make_shared<core::ClientRequestMsg>();
        m->op = static_cast<core::ClientOp>(v);
        return m;
      },
      static_cast<uint8_t>(core::ClientOp::kDelete));

  const uint8_t last_kind =
      static_cast<uint8_t>(membership::RingTxn::Kind::kRepartition);
  ExpectEnumByteRejected(
      "RingTxn::Kind in TxnPrepare",
      [](uint8_t v) {
        auto m = std::make_shared<txn::TxnPrepareMsg>();
        m->txn.kind = static_cast<membership::RingTxn::Kind>(v);
        return m;
      },
      last_kind);
  ExpectEnumByteRejected(
      "RingTxn::Kind in CoordStartCommand",
      [](uint8_t v) {
        auto cmd = std::make_shared<membership::CoordStartCommand>();
        cmd->txn.kind = static_cast<membership::RingTxn::Kind>(v);
        auto m = std::make_shared<paxos::AcceptMsg>(1);
        paxos::LogEntry e;
        e.index = 1;
        e.command = cmd;
        m->entries.push_back(e);
        return m;
      },
      last_kind);
  {
    // A group's state rides in SnapshotMsg and checkpoints as opaque
    // bytes, so Restore is what rejects the byte.
    SCOPED_TRACE("RingTxn::Kind in GroupState");
    auto state_bytes = [](uint8_t v) {
      membership::GroupState s;
      s.id = 1;
      s.active.emplace();
      s.active->txn.kind = static_cast<membership::RingTxn::Kind>(v);
      return StateBytes(std::move(s));
    };
    const std::vector<uint8_t> low = state_bytes(0);
    std::vector<uint8_t> high = state_bytes(last_kind);
    ASSERT_EQ(low.size(), high.size());
    std::vector<size_t> diff;
    for (size_t i = 0; i < low.size(); ++i) {
      if (low[i] != high[i]) {
        diff.push_back(i);
      }
    }
    ASSERT_EQ(diff.size(), 1u);
    NullGroupListener listener;
    membership::GroupState initial;
    initial.id = 1;
    membership::GroupStateMachine sm(&listener, std::move(initial));
    EXPECT_TRUE(sm.Restore(high.data(), high.size()));
    high[diff[0]] = static_cast<uint8_t>(last_kind + 1);
    EXPECT_FALSE(sm.Restore(high.data(), high.size()));
  }

  const uint8_t last_code = static_cast<uint8_t>(StatusCode::kInternal);
  ExpectEnumByteRejected(
      "StatusCode in ClientReply",
      [](uint8_t v) {
        auto m = std::make_shared<core::ClientReplyMsg>();
        m->code = static_cast<StatusCode>(v);
        return m;
      },
      last_code);
  ExpectEnumByteRejected(
      "StatusCode in JoinReply",
      [](uint8_t v) {
        auto m = std::make_shared<core::JoinReplyMsg>();
        m->code = static_cast<StatusCode>(v);
        return m;
      },
      last_code);
  ExpectEnumByteRejected(
      "Status in RpcError",
      [](uint8_t v) {
        auto m = std::make_shared<rpc::RpcErrorMessage>();
        m->status = Status(static_cast<StatusCode>(v), "why");
        return m;
      },
      last_code);
}

// --- Map-shaped fields decode as the std::map codec did ----------------------
//
// KvStore and DedupTable are sorted runs and sorted vectors in memory, but
// their bytes are a std::map's. A hand-built frame whose keys arrive out of
// order and repeated must decode exactly as the std::map decoder reads it
// (sorted; a repeated key reads over the value already there) and re-encode
// to the same canonical bytes.

// DedupEntry as it was laid out with std::map windows.
struct MapDedupEntry {
  uint64_t max_seq = 0;
  std::map<uint64_t, uint8_t> results;
};
template <class IO>
void Fields(MapDedupEntry& e, IO& io) {
  io(e.max_seq, e.results);
}

template <typename T>
std::vector<uint8_t> Encoded(const T& value) {
  Buffer out;
  Write(value, out);
  return std::vector<uint8_t>(out.data(), out.data() + out.size());
}

TEST_F(WireTest, UnsortedKvStoreFrameDecodesAsStdMap) {
  const std::vector<std::pair<Key, std::string>> pairs = {
      {9, "nine"}, {2, "two"},         {9, "NINE"}, {5, "five"},
      {2, ""},     {~Key{0}, "max"},   {0, "zero"}, {5, "FIVE!"}};
  Buffer frame;
  frame.WriteU32(static_cast<uint32_t>(pairs.size()));
  for (const auto& [key, value] : pairs) {
    frame.WriteU64(key);
    frame.WriteString(value);
  }

  std::map<Key, Value> expected;
  Reader map_reader(frame);
  map_reader(expected);
  ASSERT_TRUE(map_reader.ok());
  ASSERT_EQ(map_reader.remaining(), 0u);
  ASSERT_EQ(expected.size(), 5u);
  ASSERT_EQ(expected.at(9), "NINE");

  store::KvStore store;
  Reader store_reader(frame);
  store_reader(store);
  ASSERT_TRUE(store_reader.ok());
  EXPECT_EQ(store_reader.remaining(), 0u);
  std::vector<std::pair<Key, Value>> got;
  store.ForEach([&got](Key k, const Value& v) { got.emplace_back(k, v); });
  const std::vector<std::pair<Key, Value>> want(expected.begin(),
                                                expected.end());
  EXPECT_EQ(got, want);
  size_t bytes = 0;
  for (const auto& [k, v] : expected) {
    bytes += 8 + v.size();
  }
  EXPECT_EQ(store.byte_size(), bytes);
  EXPECT_EQ(Encoded(store), Encoded(expected));
}

TEST_F(WireTest, UnsortedDedupTableFrameDecodesAsStdMap) {
  struct Raw {
    uint64_t client;
    uint64_t max_seq;
    std::vector<std::pair<uint64_t, uint8_t>> results;
  };
  // Client 7 twice: the second entry reads over the first one's max_seq
  // and adds to its window, as std::map's operator[] did.
  const std::vector<Raw> entries = {
      {7, 10, {{4, 0}, {2, 1}, {4, 2}}},
      {3, 5, {{1, 0}}},
      {7, 12, {{3, 0}, {2, 3}, {9, 1}}},
      {1, 0, {}},
  };
  Buffer frame;
  frame.WriteU32(static_cast<uint32_t>(entries.size()));
  for (const Raw& e : entries) {
    frame.WriteU64(e.client);
    frame.WriteU64(e.max_seq);
    frame.WriteU32(static_cast<uint32_t>(e.results.size()));
    for (const auto& [seq, code] : e.results) {
      frame.WriteU64(seq);
      frame.WriteU8(code);
    }
  }

  std::map<uint64_t, MapDedupEntry> expected;
  Reader map_reader(frame);
  map_reader(expected);
  ASSERT_TRUE(map_reader.ok());
  ASSERT_EQ(map_reader.remaining(), 0u);
  ASSERT_EQ(expected.size(), 3u);
  ASSERT_EQ(expected.at(7).max_seq, 12u);
  ASSERT_EQ(expected.at(7).results.size(), 4u);

  membership::DedupTable table;
  Reader table_reader(frame);
  table_reader(table);
  ASSERT_TRUE(table_reader.ok());
  EXPECT_EQ(table_reader.remaining(), 0u);
  ASSERT_EQ(table.size(), expected.size());
  auto it = table.begin();
  for (const auto& [client, entry] : expected) {
    SCOPED_TRACE(client);
    EXPECT_EQ(it->first, client);
    EXPECT_EQ(it->second.max_seq, entry.max_seq);
    using Window = std::vector<std::pair<uint64_t, uint8_t>>;
    EXPECT_EQ(Window(it->second.results.begin(), it->second.results.end()),
              Window(entry.results.begin(), entry.results.end()));
    ++it;
  }
  EXPECT_EQ(Encoded(table), Encoded(expected));
}

}  // namespace
}  // namespace scatter::wire
