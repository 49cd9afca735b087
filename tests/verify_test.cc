// Unit tests for the verification tooling itself: the linearizability
// checker, the staleness audit and the ring cover check must accept legal
// histories and rings and reject illegal ones — otherwise a "zero violations" experiment result means
// nothing.

#include <gtest/gtest.h>

#include "src/verify/history.h"
#include "src/verify/linearizability.h"
#include "src/verify/ring_checker.h"
#include "src/verify/staleness.h"

namespace scatter::verify {
namespace {

Operation Write(uint64_t id, Key key, const Value& v, TimeMicros inv,
                TimeMicros comp, Outcome outcome = Outcome::kOk) {
  Operation op;
  op.op_id = id;
  op.type = OpType::kWrite;
  op.key = key;
  op.value = v;
  op.invoked_at = inv;
  op.completed_at = comp;
  op.outcome = outcome;
  return op;
}

Operation Read(uint64_t id, Key key, const Value& v, TimeMicros inv,
               TimeMicros comp, Outcome outcome = Outcome::kOk) {
  Operation op;
  op.op_id = id;
  op.type = OpType::kRead;
  op.key = key;
  op.value = v;
  op.invoked_at = inv;
  op.completed_at = comp;
  op.outcome = outcome;
  return op;
}

TEST(LinearizabilityTest, EmptyHistoryOk) {
  LinearizabilityChecker checker;
  EXPECT_EQ(checker.CheckKey({}), 1);
}

TEST(LinearizabilityTest, SequentialHistoryOk) {
  LinearizabilityChecker checker;
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Read(2, 1, "a", 20, 30),
      Write(3, 1, "b", 40, 50),
      Read(4, 1, "b", 60, 70),
  };
  EXPECT_EQ(checker.CheckKey(h), 1);
}

TEST(LinearizabilityTest, StaleReadRejected) {
  LinearizabilityChecker checker;
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "b", 20, 30),
      Read(3, 1, "a", 40, 50),  // returns the overwritten value
  };
  EXPECT_EQ(checker.CheckKey(h), 0);
}

TEST(LinearizabilityTest, ConcurrentWritesEitherOrderOk) {
  LinearizabilityChecker checker;
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 100),
      Write(2, 1, "b", 0, 100),
      Read(3, 1, "a", 150, 160),
  };
  EXPECT_EQ(checker.CheckKey(h), 1);
  h[2].value = "b";
  EXPECT_EQ(checker.CheckKey(h), 1);
}

TEST(LinearizabilityTest, ReadOverlappingWriteMaySeeEitherState) {
  LinearizabilityChecker checker;
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "b", 20, 60),
      Read(3, 1, "a", 30, 40),  // concurrent with write b: old value OK
  };
  EXPECT_EQ(checker.CheckKey(h), 1);
  h[2].value = "b";  // new value also OK
  EXPECT_EQ(checker.CheckKey(h), 1);
}

TEST(LinearizabilityTest, NotFoundBeforeAnyWriteOk) {
  LinearizabilityChecker checker;
  std::vector<Operation> h{
      Read(1, 1, "", 0, 5, Outcome::kNotFound),
      Write(2, 1, "a", 10, 20),
      Read(3, 1, "a", 30, 40),
  };
  EXPECT_EQ(checker.CheckKey(h), 1);
}

TEST(LinearizabilityTest, NotFoundAfterCompletedWriteRejected) {
  LinearizabilityChecker checker;
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Read(2, 1, "", 20, 30, Outcome::kNotFound),
  };
  EXPECT_EQ(checker.CheckKey(h), 0);
}

TEST(LinearizabilityTest, IndeterminateWriteMayOrMayNotApply) {
  LinearizabilityChecker checker;
  // The timed-out write may be linearized late, so both reads are legal.
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "b", 20, 30, Outcome::kIndeterminate),
      Read(3, 1, "a", 40, 50),
      Read(4, 1, "b", 60, 70),
  };
  EXPECT_EQ(checker.CheckKey(h), 1);
  // And a history where it never applies is legal too.
  std::vector<Operation> h2{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "b", 20, 30, Outcome::kIndeterminate),
      Read(3, 1, "a", 40, 50),
      Read(4, 1, "a", 60, 70),
  };
  EXPECT_EQ(checker.CheckKey(h2), 1);
}

TEST(LinearizabilityTest, IndeterminateCannotUnapply) {
  LinearizabilityChecker checker;
  // Once a read observed the indeterminate write, later reads must not
  // regress to the older value.
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "b", 20, 30, Outcome::kIndeterminate),
      Read(3, 1, "b", 40, 50),
      Read(4, 1, "a", 60, 70),
  };
  EXPECT_EQ(checker.CheckKey(h), 0);
}

TEST(LinearizabilityTest, FailedWriteValueMustNeverBeRead) {
  LinearizabilityChecker checker;
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10, Outcome::kFailed),
      Read(2, 1, "a", 20, 30),
  };
  EXPECT_EQ(checker.CheckKey(h), 0);
}

TEST(LinearizabilityTest, ValueFromNowhereRejected) {
  LinearizabilityChecker checker;
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Read(2, 1, "phantom", 20, 30),
  };
  EXPECT_EQ(checker.CheckKey(h), 0);
}

TEST(LinearizabilityTest, PendingOpsAtHistoryEndAreOptional) {
  LinearizabilityChecker checker;
  // A write still pending when the history closes (client never heard
  // back) may have applied at any point after its invocation — or never.
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "b", 20, /*comp=*/0, Outcome::kPending),
      Read(3, 1, "b", 40, 50),  // observed the pending write: legal
  };
  EXPECT_EQ(checker.CheckKey(h), 1);
  h[2].value = "a";  // never observed: equally legal
  EXPECT_EQ(checker.CheckKey(h), 1);
  // But it cannot apply before its invocation.
  std::vector<Operation> h2{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "b", 100, /*comp=*/0, Outcome::kPending),
      Read(3, 1, "b", 20, 30),  // completed before the write was invoked
  };
  EXPECT_EQ(checker.CheckKey(h2), 0);
}

TEST(LinearizabilityTest, DuplicateClientIdsDoNotConfuseMatching) {
  LinearizabilityChecker checker;
  // Two clients reusing the same op id: operations are matched by value,
  // not id, so a legal history stays legal...
  std::vector<Operation> h{
      Write(7, 1, "a", 0, 10),
      Write(7, 1, "b", 20, 30),
      Read(7, 1, "b", 40, 50),
  };
  EXPECT_EQ(checker.CheckKey(h), 1);
  // ...and a stale read is still caught even when ids collide.
  std::vector<Operation> h2{
      Write(7, 1, "a", 0, 10),
      Write(7, 1, "b", 20, 30),
      Read(7, 1, "a", 40, 50),
  };
  EXPECT_EQ(checker.CheckKey(h2), 0);
}

TEST(LinearizabilityTest, MinimalNonLinearizableHistoryRejected) {
  LinearizabilityChecker checker;
  // The smallest rejection where every read returns a genuinely written,
  // non-overwritten-at-read-time value: the two reads observe the writes
  // in an order that contradicts real time (a regression to "a" after "b"
  // was returned, with all four ops strictly sequential).
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "b", 20, 30),
      Read(3, 1, "b", 40, 50),
      Read(4, 1, "a", 60, 70),
  };
  EXPECT_EQ(checker.CheckKey(h), 0);
}

TEST(LinearizabilityTest, LongSequentialHistoryFast) {
  LinearizabilityChecker checker;
  std::vector<Operation> h;
  TimeMicros t = 0;
  for (uint64_t i = 0; i < 500; ++i) {
    h.push_back(Write(2 * i + 1, 1, "v" + std::to_string(i), t, t + 5));
    h.push_back(Read(2 * i + 2, 1, "v" + std::to_string(i), t + 10, t + 15));
    t += 20;
  }
  EXPECT_EQ(checker.CheckKey(h), 1);
}

TEST(LinearizabilityTest, CheckAllAggregates) {
  LinearizabilityChecker checker;
  std::map<Key, std::vector<Operation>> histories;
  histories[1] = {Write(1, 1, "a", 0, 10), Read(2, 1, "a", 20, 30)};
  histories[2] = {Write(3, 2, "x", 0, 10), Write(4, 2, "y", 20, 30),
                  Read(5, 2, "x", 40, 50)};  // violation
  auto result = checker.CheckAll(histories);
  EXPECT_FALSE(result.linearizable);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0], 2u);
  EXPECT_EQ(result.keys_checked, 2u);
}

TEST(LinearizabilityTest, TombstoneDeleteModel) {
  LinearizabilityChecker checker;
  // write a; delete; NotFound read is the ONLY legal outcome.
  std::vector<Operation> h{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "", 20, 30),  // tombstone (delete)
      Read(3, 1, "", 40, 50, Outcome::kNotFound),
  };
  EXPECT_EQ(checker.CheckKey(h), 1);
  // Reading the deleted value afterwards is a violation.
  std::vector<Operation> h2{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "", 20, 30),
      Read(3, 1, "a", 40, 50),
  };
  EXPECT_EQ(checker.CheckKey(h2), 0);
  // Delete then re-write: the new value must be readable, NotFound is not.
  std::vector<Operation> h3{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "", 20, 30),
      Write(3, 1, "b", 40, 50),
      Read(4, 1, "b", 60, 70),
  };
  EXPECT_EQ(checker.CheckKey(h3), 1);
  std::vector<Operation> h4{
      Write(1, 1, "a", 0, 10),
      Write(2, 1, "", 20, 30),
      Write(3, 1, "b", 40, 50),
      Read(4, 1, "", 60, 70, Outcome::kNotFound),
  };
  EXPECT_EQ(checker.CheckKey(h4), 0);
}

TEST(StalenessTest, NotFoundAfterDeleteIsFine) {
  HistoryRecorder rec;
  uint64_t w = rec.RecordInvoke(OpType::kWrite, 1, "a", 0);
  rec.RecordComplete(w, Outcome::kOk, "", 10);
  uint64_t d = rec.RecordInvoke(OpType::kWrite, 1, "", 20);  // delete
  rec.RecordComplete(d, Outcome::kOk, "", 30);
  uint64_t r = rec.RecordInvoke(OpType::kRead, 1, "", 40);
  rec.RecordComplete(r, Outcome::kNotFound, "", 50);
  rec.Close(100);
  auto report = AuditStaleness(rec);
  EXPECT_EQ(report.stale_reads, 0u);
}

TEST(HistoryRecorderTest, RoundTrip) {
  HistoryRecorder rec;
  uint64_t w = rec.RecordInvoke(OpType::kWrite, 5, "val", 100);
  uint64_t r = rec.RecordInvoke(OpType::kRead, 5, "", 150);
  rec.RecordComplete(w, Outcome::kOk, "", 200);
  rec.RecordComplete(r, Outcome::kOk, "val", 250);
  rec.Close(1000);
  auto per_key = rec.PerKeyHistories();
  ASSERT_EQ(per_key.size(), 1u);
  ASSERT_EQ(per_key[5].size(), 2u);
  EXPECT_EQ(per_key[5][1].value, "val");
}

TEST(HistoryRecorderTest, CloseMarksPendingIndeterminate) {
  HistoryRecorder rec;
  rec.RecordInvoke(OpType::kWrite, 5, "val", 100);
  rec.Close(500);
  EXPECT_EQ(rec.ops()[0].outcome, Outcome::kIndeterminate);
  EXPECT_EQ(rec.ops()[0].completed_at, 500);
}

TEST(HistoryRecorderTest, UnansweredReadsDropped) {
  HistoryRecorder rec;
  rec.RecordInvoke(OpType::kRead, 5, "", 100);
  rec.Close(500);
  EXPECT_TRUE(rec.PerKeyHistories().empty());
}

// Op ids index the op list directly (id N is the Nth invoke), so a
// completion for an id that was never issued must fail loudly rather than
// land on another op.
TEST(HistoryRecorderDeathTest, CompletingAnUnissuedIdDies) {
  HistoryRecorder rec;
  const uint64_t w = rec.RecordInvoke(OpType::kWrite, 5, "val", 100);
  EXPECT_DEATH(rec.RecordComplete(0, Outcome::kOk, "", 200), "op_id");
  EXPECT_DEATH(rec.RecordComplete(w + 1, Outcome::kOk, "", 200), "op_id");
  rec.RecordComplete(w, Outcome::kOk, "", 200);
  EXPECT_EQ(rec.ops()[0].outcome, Outcome::kOk);
}

TEST(StalenessTest, CleanHistoryHasNoStaleReads) {
  HistoryRecorder rec;
  uint64_t w1 = rec.RecordInvoke(OpType::kWrite, 1, "a", 0);
  rec.RecordComplete(w1, Outcome::kOk, "", 10);
  uint64_t r1 = rec.RecordInvoke(OpType::kRead, 1, "", 20);
  rec.RecordComplete(r1, Outcome::kOk, "a", 30);
  rec.Close(100);
  auto report = AuditStaleness(rec);
  EXPECT_EQ(report.reads, 1u);
  EXPECT_EQ(report.stale_reads, 0u);
}

TEST(StalenessTest, DetectsStaleValue) {
  HistoryRecorder rec;
  uint64_t w1 = rec.RecordInvoke(OpType::kWrite, 1, "a", 0);
  rec.RecordComplete(w1, Outcome::kOk, "", 10);
  uint64_t w2 = rec.RecordInvoke(OpType::kWrite, 1, "b", 20);
  rec.RecordComplete(w2, Outcome::kOk, "", 30);
  uint64_t r1 = rec.RecordInvoke(OpType::kRead, 1, "", 40);
  rec.RecordComplete(r1, Outcome::kOk, "a", 50);
  rec.Close(100);
  auto report = AuditStaleness(rec);
  EXPECT_EQ(report.stale_reads, 1u);
}

TEST(StalenessTest, DetectsLostWrite) {
  HistoryRecorder rec;
  uint64_t w1 = rec.RecordInvoke(OpType::kWrite, 1, "a", 0);
  rec.RecordComplete(w1, Outcome::kOk, "", 10);
  uint64_t r1 = rec.RecordInvoke(OpType::kRead, 1, "", 20);
  rec.RecordComplete(r1, Outcome::kNotFound, "", 30);
  rec.Close(100);
  auto report = AuditStaleness(rec);
  EXPECT_EQ(report.stale_reads, 1u);
}

TEST(StalenessTest, ConcurrentWriteEitherValueFine) {
  HistoryRecorder rec;
  uint64_t w1 = rec.RecordInvoke(OpType::kWrite, 1, "a", 0);
  uint64_t w2 = rec.RecordInvoke(OpType::kWrite, 1, "b", 5);
  rec.RecordComplete(w1, Outcome::kOk, "", 50);
  rec.RecordComplete(w2, Outcome::kOk, "", 60);
  uint64_t r1 = rec.RecordInvoke(OpType::kRead, 1, "", 70);
  rec.RecordComplete(r1, Outcome::kOk, "a", 80);
  rec.Close(100);
  // w1 and w2 overlapped; either final value is linearizable.
  auto report = AuditStaleness(rec);
  EXPECT_EQ(report.stale_reads, 0u);
}

ring::GroupInfo Arc(GroupId id, Key begin, Key end) {
  return ring::GroupInfo{id, ring::KeyRange{begin, end}, 1, {1}, kInvalidNode};
}

TEST(RingCoverTest, AcceptsOneFullGroupAndAnExactTiling) {
  EXPECT_TRUE(CheckCover({Arc(1, 0, 0)}).ok);
  EXPECT_TRUE(CheckCover({Arc(1, 7, 7)}).ok);
  EXPECT_TRUE(CheckCover({Arc(1, 100, 500), Arc(2, 500, 100)}).ok);
  // Listed out of ring order, the last arc wrapping past 0.
  EXPECT_TRUE(
      CheckCover({Arc(3, 900, 100), Arc(1, 100, 500), Arc(2, 500, 900)}).ok);
}

TEST(RingCoverTest, RejectsTwoFullGroups) {
  // Both groups claim the whole ring: what a repartition to the
  // coordinator's own begin would leave behind.
  const RingCheckOutcome out = CheckCover({Arc(1, 0, 0), Arc(2, 0, 0)});
  EXPECT_FALSE(out.ok);
  ASSERT_EQ(out.problems.size(), 1u);
  EXPECT_NE(out.problems[0].find("not a disjoint cover"), std::string::npos);
}

TEST(RingCoverTest, RejectsOverlapGapAndEmptyList) {
  EXPECT_FALSE(
      CheckCover({Arc(1, 100, 600), Arc(2, 500, 900), Arc(3, 900, 100)}).ok);
  EXPECT_FALSE(
      CheckCover({Arc(1, 100, 400), Arc(2, 500, 900), Arc(3, 900, 100)}).ok);
  EXPECT_FALSE(CheckCover({Arc(1, 100, 500)}).ok);
  EXPECT_FALSE(CheckCover({}).ok);
}

}  // namespace
}  // namespace scatter::verify
