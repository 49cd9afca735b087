// Unit tests for the group state machine: write semantics, dedup, split,
// merge and repartition apply logic, freezing, snapshots, and checkpoints
// of the live state — driven directly (no Paxos) with a recording listener.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/membership/commands.h"
#include "src/membership/group_state_machine.h"
#include "src/obs/metrics.h"
#include "src/paxos/journal.h"
#include "src/paxos/log.h"
#include "src/storage/sim_disk.h"
#include "src/wire/buffer.h"
#include "tests/alloc_counter.h"

namespace scatter::membership {
namespace {

using ring::GroupInfo;
using ring::KeyRange;

class RecordingListener : public GroupListener {
 public:
  void OnGroupsFounded(GroupId retired,
                       const std::vector<FoundingGroup>& groups) override {
    retired_groups.push_back(retired);
    founded.insert(founded.end(), groups.begin(), groups.end());
  }
  std::vector<GroupId> retired_groups;
  std::vector<FoundingGroup> founded;
};

GroupState MakeState(GroupId id, KeyRange range, uint64_t epoch = 1) {
  GroupState s;
  s.id = id;
  s.range = range;
  s.epoch = epoch;
  return s;
}

class GroupSmTest : public ::testing::Test {
 protected:
  GroupSmTest() { Reset(MakeState(1, KeyRange{0, 1000})); }

  void Reset(GroupState initial) {
    sm_ = std::make_unique<GroupStateMachine>(&listener_, std::move(initial));
    sm_->BindConfigProvider([this]() { return members_; });
  }

  void Put(Key k, Value v, uint64_t client = 0, uint64_t seq = 0) {
    auto cmd = std::make_shared<PutCommand>(k, std::move(v));
    cmd->client_id = client;
    cmd->client_seq = seq;
    sm_->Apply(++index_, *cmd);
  }

  RecordingListener listener_;
  std::unique_ptr<GroupStateMachine> sm_;
  std::vector<NodeId> members_{1, 2, 3};
  uint64_t index_ = 0;
};

TEST_F(GroupSmTest, PutAppliesInRange) {
  Put(5, "x");
  EXPECT_EQ(sm_->state().data.Get(5), "x");
  EXPECT_EQ(sm_->stats().puts_applied, 1u);
}

TEST_F(GroupSmTest, PutOutsideRangeRejected) {
  Put(5000, "x", /*client=*/9, /*seq=*/1);
  EXPECT_FALSE(sm_->state().data.Get(5000).has_value());
  EXPECT_EQ(sm_->ResultFor(9, 1), StatusCode::kWrongGroup);
}

TEST_F(GroupSmTest, DedupSuppressesRetry) {
  Put(5, "first", /*client=*/7, /*seq=*/1);
  Put(5, "retry-should-not-apply", /*client=*/7, /*seq=*/1);
  EXPECT_EQ(sm_->state().data.Get(5), "first");
  EXPECT_EQ(sm_->ResultFor(7, 1), StatusCode::kOk);
  EXPECT_EQ(sm_->ResultFor(7, 2), std::nullopt);
}

TEST_F(GroupSmTest, DedupRecordsOutOfOrderStragglersOnce) {
  // Pipelined ops of one session can commit out of seq order. Every
  // straggler inside the window applies exactly once; its retry does not.
  const std::vector<uint64_t> order = {200, 150, 90, 199, 73, 151};
  for (uint64_t seq : order) {
    Put(seq, "v" + std::to_string(seq), /*client=*/4, seq);
  }
  for (uint64_t seq : order) {
    Put(seq, "retry", /*client=*/4, seq);
  }
  EXPECT_EQ(sm_->stats().puts_applied, order.size());
  for (uint64_t seq : order) {
    EXPECT_EQ(sm_->state().data.Get(seq), "v" + std::to_string(seq));
    EXPECT_EQ(sm_->ResultFor(4, seq), StatusCode::kOk);
  }
  const DedupEntry& entry = sm_->state().dedup.find(4)->second;
  EXPECT_EQ(entry.max_seq, 200u);
  EXPECT_EQ(entry.results.size(), order.size());
  // In the window but never applied: unknown, not applied.
  EXPECT_EQ(sm_->ResultFor(4, 100), std::nullopt);
}

TEST_F(GroupSmTest, DedupTreatsSeqsBelowTheHorizonAsApplied) {
  for (uint64_t seq = 1; seq <= 10; ++seq) {
    Put(seq, "old", /*client=*/5, seq);
  }
  Put(372, "edge", /*client=*/5, /*seq=*/372);
  Put(500, "new", /*client=*/5, /*seq=*/500);
  // The horizon is now 500 - kDedupWindow = 372: seqs 1..10 and 372 itself
  // are pruned, and anything at or below the horizon reads as applied.
  const DedupEntry& entry = sm_->state().dedup.find(5)->second;
  ASSERT_EQ(entry.results.size(), 1u);
  EXPECT_EQ(entry.results.begin()->first, 500u);
  EXPECT_EQ(sm_->ResultFor(5, 3), StatusCode::kOk);
  EXPECT_EQ(sm_->ResultFor(5, 500 - kDedupWindow), StatusCode::kOk);
  EXPECT_EQ(sm_->ResultFor(5, 500 - kDedupWindow + 1), std::nullopt);
  // A late arrival below the horizon is a duplicate and must not apply.
  Put(300, "late", /*client=*/5, /*seq=*/300);
  EXPECT_FALSE(sm_->state().data.Get(300).has_value());
  EXPECT_EQ(sm_->stats().puts_applied, 12u);
}

TEST(DedupMergeTest, MergePrunesToTheMergedMaxSeq) {
  DedupTable into;
  DedupTable from;
  // Client 7 wrote to both groups; the other group saw later seqs.
  into[7].max_seq = 100;
  for (uint64_t seq = 1; seq <= 100; seq += 3) {
    into[7].results[seq] = static_cast<uint8_t>(StatusCode::kOk);
  }
  from[7].max_seq = 300;
  for (uint64_t seq = 200; seq <= 300; seq += 2) {
    from[7].results[seq] = static_cast<uint8_t>(StatusCode::kWrongGroup);
  }
  from[7].results[180] = static_cast<uint8_t>(StatusCode::kOk);
  from[7].results[172] = static_cast<uint8_t>(StatusCode::kOk);  // horizon
  into[2].max_seq = 4;
  into[2].results[4] = 0;
  from[9].max_seq = 8;
  from[9].results[8] = 0;

  MergeDedup(into, from);

  ASSERT_EQ(into.size(), 3u);
  const DedupEntry& merged = into.find(7)->second;
  EXPECT_EQ(merged.max_seq, 300u);
  // Every result at or below 300 - kDedupWindow = 172 is gone: all of the
  // first group's window, none of the second's.
  ASSERT_FALSE(merged.results.empty());
  EXPECT_EQ(merged.results.begin()->first, 180u);
  EXPECT_EQ(merged.results.size(), 1u + 51u);
  EXPECT_EQ(into.find(2)->second.results.size(), 1u);
  EXPECT_EQ(into.find(9)->second.max_seq, 8u);
}

TEST_F(GroupSmTest, DeleteRemoves) {
  Put(5, "x");
  DeleteCommand del(5);
  sm_->Apply(++index_, del);
  EXPECT_FALSE(sm_->state().data.Get(5).has_value());
}

TEST_F(GroupSmTest, SplitPartitionsStateAndRetires) {
  for (Key k = 0; k < 1000; k += 100) {
    Put(k, "v" + std::to_string(k));
  }
  SplitCommand split;
  split.split_key = 500;
  split.left_id = 10;
  split.right_id = 11;
  split.left_members = {1, 2};
  split.right_members = {3};
  sm_->Apply(++index_, split);

  EXPECT_TRUE(sm_->IsRetired());
  ASSERT_EQ(listener_.founded.size(), 2u);
  const FoundingGroup& left = listener_.founded[0];
  const FoundingGroup& right = listener_.founded[1];
  EXPECT_EQ(left.info.id, 10u);
  EXPECT_EQ(left.info.range, (KeyRange{0, 500}));
  EXPECT_EQ(right.info.range, (KeyRange{500, 1000}));
  EXPECT_EQ(left.info.epoch, 2u);
  EXPECT_EQ(left.data.size(), 5u);
  EXPECT_EQ(right.data.size(), 5u);
  EXPECT_TRUE(left.data.Get(400).has_value());
  EXPECT_TRUE(right.data.Get(500).has_value());
  // Children are each other's neighbors.
  EXPECT_EQ(left.succ.id, right.info.id);
  EXPECT_EQ(right.pred.id, left.info.id);
  // Redirects point at the children.
  ASSERT_EQ(sm_->state().forward.size(), 2u);
}

TEST_F(GroupSmTest, SplitRejectedWhileFrozen) {
  RingTxn txn;
  txn.id = 99;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = sm_->range();
  txn.coord_epoch = sm_->epoch();
  CoordStartCommand start;
  start.txn = txn;
  sm_->Apply(++index_, start);
  ASSERT_TRUE(sm_->IsFrozen());

  SplitCommand split;
  split.split_key = 500;
  split.left_id = 10;
  split.right_id = 11;
  split.left_members = {1};
  split.right_members = {2};
  sm_->Apply(++index_, split);
  EXPECT_FALSE(sm_->IsRetired());
  EXPECT_TRUE(listener_.founded.empty());
}

TEST_F(GroupSmTest, WritesRejectedWhileFrozen) {
  RingTxn txn;
  txn.id = 99;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = sm_->range();
  txn.coord_epoch = sm_->epoch();
  CoordStartCommand start;
  start.txn = txn;
  sm_->Apply(++index_, start);

  Put(5, "x", /*client=*/3, /*seq=*/1);
  EXPECT_FALSE(sm_->state().data.Get(5).has_value());
  // The rejection is NOT recorded in the dedup table: under group-commit
  // batching a write can ride the same broadcast as the freeze command, and
  // a recorded rejection would answer every retry of that seq forever.
  EXPECT_EQ(sm_->ResultFor(3, 1), std::nullopt);

  // Abort unfreezes; a retry of the SAME seq now applies.
  CoordDecideCommand abort_cmd;
  abort_cmd.txn_id = 99;
  abort_cmd.commit = false;
  sm_->Apply(++index_, abort_cmd);
  EXPECT_FALSE(sm_->IsFrozen());
  EXPECT_EQ(sm_->OutcomeOf(99), false);
  Put(5, "y", /*client=*/3, /*seq=*/1);
  EXPECT_EQ(sm_->state().data.Get(5), "y");
  EXPECT_EQ(sm_->ResultFor(3, 1), StatusCode::kOk);
}

TEST_F(GroupSmTest, CoordStartEpochMismatchAbortsImmediately) {
  RingTxn txn;
  txn.id = 42;
  txn.coord_group = 1;
  txn.coord_range = sm_->range();
  txn.coord_epoch = sm_->epoch() + 5;  // stale/future epoch
  CoordStartCommand start;
  start.txn = txn;
  sm_->Apply(++index_, start);
  EXPECT_FALSE(sm_->IsFrozen());
  EXPECT_EQ(sm_->OutcomeOf(42), false);
}

// Drives a full merge across two state machines the way the log entries
// would on the coordinator and participant groups, and checks both compute
// identical successor groups.
TEST(GroupSmMergeTest, BothSidesDeriveIdenticalMergedGroup) {
  RecordingListener lc;
  RecordingListener lp;
  GroupStateMachine coord(&lc, MakeState(1, KeyRange{0, 500}));
  GroupStateMachine part(&lp, MakeState(2, KeyRange{500, 1000}));
  coord.BindConfigProvider([]() { return std::vector<NodeId>{1, 2}; });
  part.BindConfigProvider([]() { return std::vector<NodeId>{3, 4}; });

  uint64_t ic = 0;
  uint64_t ip = 0;
  {
    PutCommand p(100, "coord-data");
    coord.Apply(++ic, p);
    PutCommand q(700, "part-data");
    part.Apply(++ip, q);
  }

  RingTxn txn;
  txn.id = 77;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = KeyRange{0, 500};
  txn.part_range = KeyRange{500, 1000};
  txn.coord_epoch = 1;
  txn.part_epoch = 1;
  txn.merged_id = 9;

  CoordStartCommand start;
  start.txn = txn;
  coord.Apply(++ic, start);
  ASSERT_TRUE(coord.IsFrozen());

  PrepareCommand prep;
  prep.txn = txn;
  prep.coord = coord.OwnContribution();
  part.Apply(++ip, prep);
  ASSERT_TRUE(part.IsFrozen());

  CoordDecideCommand decide;
  decide.txn_id = 77;
  decide.commit = true;
  decide.part = part.OwnContribution();
  coord.Apply(++ic, decide);

  DecideCommand pdecide;
  pdecide.txn_id = 77;
  pdecide.commit = true;
  part.Apply(++ip, pdecide);

  EXPECT_TRUE(coord.IsRetired());
  EXPECT_TRUE(part.IsRetired());
  ASSERT_EQ(lc.founded.size(), 1u);
  ASSERT_EQ(lp.founded.size(), 1u);
  const FoundingGroup& a = lc.founded[0];
  const FoundingGroup& b = lp.founded[0];
  EXPECT_EQ(a.info.id, b.info.id);
  EXPECT_EQ(a.info.id, 9u);
  EXPECT_EQ(a.info.range, b.info.range);
  EXPECT_EQ(a.info.range, (KeyRange{0, 1000}));
  EXPECT_EQ(a.info.epoch, b.info.epoch);
  EXPECT_EQ(a.info.members, b.info.members);
  EXPECT_EQ(a.info.members, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(a.data, b.data);
  EXPECT_TRUE(a.data.Get(100).has_value());
  EXPECT_TRUE(a.data.Get(700).has_value());
  EXPECT_EQ(a.inherited_txns.at(77), true);
  EXPECT_EQ(coord.OutcomeOf(77), true);
  EXPECT_EQ(part.OutcomeOf(77), true);
}

TEST(GroupSmRepartitionTest, BoundaryMovesDataCoordinatorSheds) {
  RecordingListener lc;
  RecordingListener lp;
  GroupStateMachine coord(&lc, MakeState(1, KeyRange{0, 500}));
  GroupStateMachine part(&lp, MakeState(2, KeyRange{500, 1000}));
  coord.BindConfigProvider([]() { return std::vector<NodeId>{1, 2}; });
  part.BindConfigProvider([]() { return std::vector<NodeId>{3, 4}; });

  uint64_t ic = 0;
  uint64_t ip = 0;
  for (Key k = 0; k < 500; k += 50) {
    PutCommand p(k, "c");
    coord.Apply(++ic, p);
  }

  // Move the boundary from 500 down to 300: [300, 500) moves coord -> part.
  RingTxn txn;
  txn.id = 88;
  txn.kind = RingTxn::Kind::kRepartition;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = KeyRange{0, 500};
  txn.part_range = KeyRange{500, 1000};
  txn.coord_epoch = 1;
  txn.part_epoch = 1;
  txn.new_boundary = 300;

  CoordStartCommand start;
  start.txn = txn;
  coord.Apply(++ic, start);

  PrepareCommand prep;
  prep.txn = txn;
  prep.coord = coord.OwnContribution();
  EXPECT_EQ(prep.coord.data.size(), 4u);  // Keys 300, 350, 400 and 450.
  part.Apply(++ip, prep);
  ASSERT_TRUE(part.IsFrozen());

  CoordDecideCommand decide;
  decide.txn_id = 88;
  decide.commit = true;
  decide.part = part.OwnContribution();
  EXPECT_TRUE(decide.part.data.empty());  // The participant gains.
  coord.Apply(++ic, decide);

  DecideCommand pdecide;
  pdecide.txn_id = 88;
  pdecide.commit = true;
  part.Apply(++ip, pdecide);

  EXPECT_FALSE(coord.IsRetired());
  EXPECT_FALSE(part.IsRetired());
  EXPECT_EQ(coord.range(), (KeyRange{0, 300}));
  EXPECT_EQ(part.range(), (KeyRange{300, 1000}));
  EXPECT_EQ(coord.epoch(), 2u);
  EXPECT_EQ(part.epoch(), 2u);
  // Data at 300..450 now lives in the participant, not the coordinator.
  EXPECT_FALSE(coord.state().data.Get(350).has_value());
  EXPECT_TRUE(part.state().data.Get(350).has_value());
  EXPECT_TRUE(coord.state().data.Get(250).has_value());
  // Neighbor links updated with the new geometry.
  EXPECT_EQ(coord.state().succ.range, (KeyRange{300, 1000}));
  EXPECT_EQ(part.state().pred.range, (KeyRange{0, 300}));
}

// Structural operations across the ring's 0 boundary (wrapping arcs).
TEST(GroupSmWrapTest, SplitWrappingRange) {
  RecordingListener l;
  // Range wraps: [2^64-1000, 500).
  const Key begin = ~uint64_t{0} - 999;
  GroupStateMachine sm(&l, MakeState(1, KeyRange{begin, 500}));
  sm.BindConfigProvider([]() { return std::vector<NodeId>{1, 2}; });
  uint64_t i = 0;
  PutCommand high(~uint64_t{0} - 5, "high");
  sm.Apply(++i, high);
  PutCommand low(100, "low");
  sm.Apply(++i, low);

  SplitCommand split;
  split.split_key = 0;  // Exactly at the wrap point.
  split.left_id = 10;
  split.right_id = 11;
  split.left_members = {1};
  split.right_members = {2};
  sm.Apply(++i, split);
  ASSERT_TRUE(sm.IsRetired());
  ASSERT_EQ(l.founded.size(), 2u);
  EXPECT_EQ(l.founded[0].info.range, (KeyRange{begin, 0}));
  EXPECT_EQ(l.founded[1].info.range, (KeyRange{0, 500}));
  EXPECT_TRUE(l.founded[0].data.Get(~uint64_t{0} - 5).has_value());
  EXPECT_FALSE(l.founded[0].data.Get(100).has_value());
  EXPECT_TRUE(l.founded[1].data.Get(100).has_value());
}

TEST(GroupSmWrapTest, MergeAcrossZeroBoundary) {
  RecordingListener lc;
  RecordingListener lp;
  const Key begin = ~uint64_t{0} - 999;
  GroupStateMachine coord(&lc, MakeState(1, KeyRange{begin, 0}));
  GroupStateMachine part(&lp, MakeState(2, KeyRange{0, 500}));
  coord.BindConfigProvider([]() { return std::vector<NodeId>{1}; });
  part.BindConfigProvider([]() { return std::vector<NodeId>{2}; });
  uint64_t ic = 0;
  uint64_t ip = 0;

  RingTxn txn;
  txn.id = 5;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = KeyRange{begin, 0};
  txn.part_range = KeyRange{0, 500};
  txn.coord_epoch = 1;
  txn.part_epoch = 1;
  txn.merged_id = 9;

  CoordStartCommand start;
  start.txn = txn;
  coord.Apply(++ic, start);
  PrepareCommand prep;
  prep.txn = txn;
  prep.coord = coord.OwnContribution();
  part.Apply(++ip, prep);
  CoordDecideCommand decide;
  decide.txn_id = 5;
  decide.commit = true;
  decide.part = part.OwnContribution();
  coord.Apply(++ic, decide);

  ASSERT_EQ(lc.founded.size(), 1u);
  // Merged arc wraps: [2^64-1000, 500).
  EXPECT_EQ(lc.founded[0].info.range, (KeyRange{begin, 500}));
  EXPECT_TRUE(lc.founded[0].info.range.Contains(0));
  EXPECT_TRUE(lc.founded[0].info.range.Contains(~uint64_t{0}));
  EXPECT_FALSE(lc.founded[0].info.range.Contains(1000));
}

TEST(GroupSmWrapTest, RepartitionAcrossZeroBoundary) {
  RecordingListener lc;
  RecordingListener lp;
  const Key begin = ~uint64_t{0} - 999;
  GroupStateMachine coord(&lc, MakeState(1, KeyRange{begin, 0}));
  GroupStateMachine part(&lp, MakeState(2, KeyRange{0, 500}));
  coord.BindConfigProvider([]() { return std::vector<NodeId>{1}; });
  part.BindConfigProvider([]() { return std::vector<NodeId>{2}; });
  uint64_t ic = 0;
  uint64_t ip = 0;
  PutCommand p(~uint64_t{0} - 5, "moves");
  coord.Apply(++ic, p);

  // Move the boundary from 0 back to 2^64-500: [2^64-500, 0) moves
  // coordinator -> participant, and the participant's arc now wraps.
  const Key b = ~uint64_t{0} - 499;
  RingTxn txn;
  txn.id = 6;
  txn.kind = RingTxn::Kind::kRepartition;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = KeyRange{begin, 0};
  txn.part_range = KeyRange{0, 500};
  txn.coord_epoch = 1;
  txn.part_epoch = 1;
  txn.new_boundary = b;

  CoordStartCommand start;
  start.txn = txn;
  coord.Apply(++ic, start);
  ASSERT_TRUE(coord.IsFrozen());
  PrepareCommand prep;
  prep.txn = txn;
  prep.coord = coord.OwnContribution();
  EXPECT_EQ(prep.coord.data.size(), 1u);  // The arc [b, 0) holds one key.
  part.Apply(++ip, prep);
  ASSERT_TRUE(part.IsFrozen());
  CoordDecideCommand decide;
  decide.txn_id = 6;
  decide.commit = true;
  decide.part = part.OwnContribution();
  coord.Apply(++ic, decide);
  DecideCommand pdecide;
  pdecide.txn_id = 6;
  pdecide.commit = true;
  part.Apply(++ip, pdecide);

  EXPECT_EQ(coord.range(), (KeyRange{begin, b}));
  EXPECT_EQ(part.range(), (KeyRange{b, 500}));
  EXPECT_TRUE(part.range().Contains(0));
  EXPECT_FALSE(coord.state().data.Get(~uint64_t{0} - 5).has_value());
  EXPECT_TRUE(part.state().data.Get(~uint64_t{0} - 5).has_value());
}

TEST(GroupSmSnapshotTest, RoundTripPreservesState) {
  RecordingListener l;
  GroupStateMachine sm(&l, MakeState(1, KeyRange{0, 1000}));
  sm.BindConfigProvider([]() { return std::vector<NodeId>{1}; });
  uint64_t i = 0;
  PutCommand p(5, "x");
  p.client_id = 3;
  p.client_seq = 4;
  sm.Apply(++i, p);

  wire::Buffer bytes;
  sm.EncodeState(bytes);
  GroupStateMachine other(&l, MakeState(1, KeyRange::Full()));
  other.BindConfigProvider([]() { return std::vector<NodeId>{1}; });
  ASSERT_TRUE(other.Restore(bytes.data(), bytes.size()));
  EXPECT_EQ(other.range(), (KeyRange{0, 1000}));
  EXPECT_EQ(other.state().data.Get(5), "x");
  EXPECT_EQ(other.ResultFor(3, 4), StatusCode::kOk);
}

// A state that fills every GroupState field: store data, dedup windows, an
// active transaction, decided outcomes and forwards.
GroupState FullState(size_t keys) {
  GroupState s = MakeState(9, KeyRange{100, 900}, 4);
  s.pred.id = 8;
  s.pred.range = KeyRange{0, 100};
  s.pred.epoch = 2;
  s.pred.members = {1, 2, 3};
  s.succ.id = 10;
  s.succ.range = KeyRange{900, 0};
  s.succ.epoch = 3;
  s.succ.members = {4, 5, 6};
  s.succ.leader = 5;
  for (size_t k = 0; k < keys; ++k) {
    s.data.Put(100 + k, "v" + std::to_string(k % 97) + ":" +
                            std::to_string(k));
  }
  for (uint64_t client = 1; client <= 4; ++client) {
    DedupEntry& entry = s.dedup[client];
    entry.max_seq = 10 * client;
    entry.results[10 * client] = 0;
    entry.results[10 * client - 1] = 3;
  }
  ActiveTxn active;
  active.txn.id = 77;
  active.txn.kind = RingTxn::Kind::kMerge;
  active.txn.coord_group = 9;
  active.txn.part_group = 10;
  active.my_members = {1, 2, 3};
  active.coord.members = {4, 5};
  active.coord.data.Put(950, "coord");
  active.coord.dedup[6].max_seq = 2;
  active.coord.outer = s.pred;
  s.active = std::move(active);
  s.txn_outcomes = {{5, true}, {6, false}};
  s.forward = {s.pred, s.succ};
  return s;
}

// Every GroupState field survives EncodeState -> Restore: the restored
// machine re-encodes the same bytes. Bytes that do not decode to exactly
// one state are refused and leave the state as it was.
TEST(GroupCheckpointTest, StateBytesRestoreToTheSameState) {
  RecordingListener l;
  GroupStateMachine sm(&l, FullState(/*keys=*/50));
  wire::Buffer bytes;
  sm.EncodeState(bytes);

  GroupStateMachine other(&l, MakeState(1, KeyRange::Full()));
  ASSERT_TRUE(other.Restore(bytes.data(), bytes.size()));
  wire::Buffer again;
  other.EncodeState(again);
  EXPECT_EQ(again.bytes(), bytes.bytes());
  EXPECT_TRUE(other.IsFrozen());
  EXPECT_EQ(other.OutcomeOf(6), false);
  EXPECT_EQ(other.state().forward.size(), 2u);

  std::vector<uint8_t> over = bytes.bytes();
  over.push_back(0);
  EXPECT_FALSE(other.Restore(over.data(), over.size()));
  EXPECT_FALSE(other.Restore(bytes.data(), bytes.size() - 1));
  wire::Buffer unchanged;
  other.EncodeState(unchanged);
  EXPECT_EQ(unchanged.bytes(), bytes.bytes());
}

// A checkpoint copies no state, so what it allocates does not depend on how
// much state there is (wire::Buffer grows through malloc and is not
// counted; the disk's file vectors are, and keep their capacity).
TEST(GroupCheckpointTest, AllocationsDoNotGrowWithKeyCount) {
  auto checkpoint_allocations = [](size_t keys) {
    RecordingListener l;
    GroupStateMachine sm(&l, FullState(keys));
    storage::SimDisk disk;
    obs::MetricsRegistry metrics;
    paxos::GroupJournal journal(&disk, &metrics, /*node=*/1, /*group=*/9);
    paxos::Log log;
    const paxos::CheckpointHeader header{0, Ballot{}, {1, 2, 3}, 0, Ballot{},
                                         0};
    journal.WriteCheckpoint(header, sm, log);  // grows the scratch buffer
    const uint64_t before = alloc_counter::AllocationCount();
    journal.WriteCheckpoint(header, sm, log);
    return alloc_counter::AllocationCount() - before;
  };
  EXPECT_EQ(checkpoint_allocations(10), checkpoint_allocations(10000));
}

TEST_F(GroupSmTest, UpdateNeighborRespectsEpoch) {
  GroupInfo fresh;
  fresh.id = 50;
  fresh.range = KeyRange{1000, 2000};
  fresh.epoch = 3;
  UpdateNeighborCommand update;
  update.is_successor = true;
  update.info = fresh;
  sm_->Apply(++index_, update);
  EXPECT_EQ(sm_->state().succ.id, 50u);

  GroupInfo stale = fresh;
  stale.epoch = 2;
  stale.range = KeyRange{1000, 3000};
  UpdateNeighborCommand update2;
  update2.is_successor = true;
  update2.info = stale;
  sm_->Apply(++index_, update2);
  EXPECT_EQ(sm_->state().succ.epoch, 3u);
  EXPECT_EQ(sm_->state().succ.range, (KeyRange{1000, 2000}));
}

TEST_F(GroupSmTest, RetiredGroupRejectsEverything) {
  SplitCommand split;
  split.split_key = 500;
  split.left_id = 10;
  split.right_id = 11;
  split.left_members = {1};
  split.right_members = {2};
  sm_->Apply(++index_, split);
  ASSERT_TRUE(sm_->IsRetired());

  Put(5, "x", /*client=*/1, /*seq=*/1);
  EXPECT_EQ(sm_->ResultFor(1, 1), StatusCode::kWrongGroup);
  EXPECT_FALSE(sm_->state().data.Get(5).has_value());
}

}  // namespace
}  // namespace scatter::membership
