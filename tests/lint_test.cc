// Tests for scatter-lint (tools/scatter_lint): each rule fires on a bad
// fixture, stays quiet on the fixed idiom, and the suppression comment
// absorbs exactly one finding. Two mutation self-checks reintroduce a bug
// into a real source file — an unordered-iteration fingerprint, a raw
// Schedule capturing `this` — and assert the tool reports it, proving the CI
// gate actually guards the invariant it claims to.
//
// Fixture sources are assembled from fragments ("LINT" "-ALLOW") so that
// scatter-lint, which also scans this file, does not parse the fixtures'
// suppression markers as this file's own.

#include "tools/scatter_lint/lint.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace scatter::lint {
namespace {

constexpr char kAllowMarker[] =
    "LINT"
    "-ALLOW";

LintReport Lint(const std::vector<SourceFile>& files,
               const std::string& layers_json = "") {
  LintOptions options;
  options.layers_json = layers_json;
  return RunLint(files, options);
}

int CountRule(const LintReport& report, const std::string& rule) {
  int n = 0;
  for (const Finding& f : report.findings) {
    if (f.rule == rule) {
      ++n;
    }
  }
  return n;
}

TEST(LintRules, CatalogueIsNonEmptyAndNamed) {
  ASSERT_FALSE(Rules().empty());
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(rule.name, nullptr);
    EXPECT_NE(rule.description, nullptr);
  }
}

// --- determinism-ambient -----------------------------------------------------

TEST(DeterminismAmbient, FiresOnWallClockAndRandomDevice) {
  const LintReport report = Lint({{"src/sim/bad.cc",
                                  "#include <chrono>\n"
                                  "#include <random>\n"
                                  "void F() {\n"
                                  "  auto t = std::chrono::steady_clock::now();\n"
                                  "  std::random_device rd;\n"
                                  "  (void)t; (void)rd;\n"
                                  "}\n"}});
  EXPECT_EQ(CountRule(report, "determinism-ambient"), 2);
}

TEST(DeterminismAmbient, FiresOnBareLibcCalls) {
  const LintReport report = Lint({{"src/core/bad.cc",
                                  "int F() { return rand() + time(nullptr); }\n"}});
  EXPECT_EQ(CountRule(report, "determinism-ambient"), 2);
}

TEST(DeterminismAmbient, QuietOnFieldsNamedLikeLibc) {
  // msg.time / obj->clock are member accesses, and Foo::time is a
  // class-scoped call — none of them are the libc functions.
  const LintReport report = Lint({{"src/core/ok.cc",
                                  "int F(M m, M* p) {\n"
                                  "  return m.time + p->clock + Foo::time(1);\n"
                                  "}\n"}});
  EXPECT_EQ(CountRule(report, "determinism-ambient"), 0);
}

TEST(DeterminismAmbient, QuietInBenchAndTools) {
  const std::string body = "#include <chrono>\n"
                           "auto T() { return std::chrono::steady_clock::now(); }\n";
  const LintReport report =
      Lint({{"bench/bad.cc", body}, {"tools/x/bad.cc", body}});
  EXPECT_EQ(CountRule(report, "determinism-ambient"), 0);
}

TEST(DeterminismAmbient, QuietInsideStringLiterals) {
  const LintReport report = Lint(
      {{"src/core/ok.cc", "const char* k = \"use steady_clock here\";\n"}});
  EXPECT_EQ(CountRule(report, "determinism-ambient"), 0);
}

TEST(DeterminismAmbient, FiresOnWallClockHealthProbe) {
  // The tempting bug in a health monitor: stamping conditions or measuring
  // detection windows with the host's wall clock instead of the simulated
  // clock the Tick caller passes in. Every seeded run would then disagree
  // about when (or whether) a condition raised. The obs layer lives under
  // src/, so the rule must fire on both the clock read and gettimeofday.
  const LintReport report =
      Lint({{"src/obs/bad_probe.cc",
             "#include <chrono>\n"
             "#include <sys/time.h>\n"
             "void ProbeHealth(Monitor* m) {\n"
             "  auto now = std::chrono::system_clock::now();\n"
             "  timeval tv;\n"
             "  gettimeofday(&tv, nullptr);\n"
             "  m->Tick(tv.tv_sec * 1000000 + tv.tv_usec);\n"
             "  (void)now;\n"
             "}\n"}});
  EXPECT_EQ(CountRule(report, "determinism-ambient"), 2);
}

// --- unordered-iteration -----------------------------------------------------

TEST(UnorderedIteration, FiresOnRangeForOverUnorderedMember) {
  const LintReport report =
      Lint({{"src/core/bad.cc",
            "#include <unordered_map>\n"
            "std::unordered_map<int, int> table_;\n"
            "int Sum() {\n"
            "  int s = 0;\n"
            "  for (const auto& kv : table_) { s += kv.second; }\n"
            "  return s;\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "unordered-iteration"), 1);
}

TEST(UnorderedIteration, QuietWhenDrainedThroughSort) {
  const LintReport report =
      Lint({{"src/core/ok.cc",
            "#include <algorithm>\n"
            "#include <unordered_map>\n"
            "#include <vector>\n"
            "std::unordered_map<int, int> table_;\n"
            "std::vector<int> Keys() {\n"
            "  std::vector<int> out;\n"
            "  for (const auto& kv : table_) { out.push_back(kv.first); }\n"
            "  std::sort(out.begin(), out.end());\n"
            "  return out;\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "unordered-iteration"), 0);
}

TEST(UnorderedIteration, SeesDeclarationsAcrossIncludes) {
  const LintReport report =
      Lint({{"src/core/state.h",
            "#include <unordered_set>\n"
            "struct S { std::unordered_set<int> members_; };\n"},
           {"src/core/bad.cc",
            "#include \"src/core/state.h\"\n"
            "int F(S& s) {\n"
            "  int n = 0;\n"
            "  for (int m : s.members_) { n += m; }\n"
            "  return n;\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "unordered-iteration"), 1);
}

TEST(UnorderedIteration, AmbiguousNameWithOrderedDeclElsewhereIsQuiet) {
  // `pending_` is unordered in one header and a deque in another; iterating
  // the deque must not be flagged just because the name collides.
  const LintReport report =
      Lint({{"src/rpc/client.h",
            "#include <unordered_map>\n"
            "struct C { std::unordered_map<int, int> pending_; };\n"},
           {"src/mc/harness.h",
            "#include <deque>\n"
            "struct H { std::deque<int> pending_; };\n"},
           {"src/mc/ok.cc",
            "#include \"src/mc/harness.h\"\n"
            "#include \"src/rpc/client.h\"\n"
            "int F(H& h) {\n"
            "  int n = 0;\n"
            "  for (int m : h.pending_) { n += m; }\n"
            "  return n;\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "unordered-iteration"), 0);
}

// --- check-side-effects ------------------------------------------------------

TEST(CheckSideEffects, FiresOnIncrementAndAssignment) {
  const LintReport report =
      Lint({{"src/core/bad.cc",
            "void F(int i, int j) {\n"
            "  SCATTER_CHECK(++i > 0);\n"
            "  SCATTER_CHECK(j = 1);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "check-side-effects"), 2);
}

TEST(CheckSideEffects, FiresOnMutatingCall) {
  const LintReport report =
      Lint({{"src/core/bad.cc",
            "void F(std::vector<int>& v) {\n"
            "  SCATTER_CHECK(v.erase(v.begin()) != v.end());\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "check-side-effects"), 1);
}

TEST(CheckSideEffects, QuietOnComparisonsAndConstCalls) {
  const LintReport report =
      Lint({{"src/core/ok.cc",
            "void F(int i, const std::vector<int>& v) {\n"
            "  SCATTER_CHECK(i == 1);\n"
            "  SCATTER_CHECK(i >= 0 && i <= 9);\n"
            "  SCATTER_CHECK(v.size() != 0);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "check-side-effects"), 0);
}

// --- layer-dag ---------------------------------------------------------------

constexpr char kLayers[] =
    "{\"layers\": {\"common\": [], \"sim\": [\"common\"],"
    " \"wire\": [\"common\", \"sim\"]}}";

TEST(LayerDag, FiresOnBackEdge) {
  // sim including wire is a back-edge: wire sits above sim.
  const LintReport report =
      Lint({{"src/sim/bad.cc", "#include \"src/wire/codec.h\"\n"}}, kLayers);
  EXPECT_EQ(CountRule(report, "layer-dag"), 1);
}

TEST(LayerDag, QuietOnDeclaredDependencyAndOwnModule) {
  const LintReport report =
      Lint({{"src/wire/ok.cc",
            "#include \"src/common/logging.h\"\n"
            "#include \"src/sim/message.h\"\n"
            "#include \"src/wire/codec.h\"\n"
            "#include <vector>\n"},
           {"tests/free.cc", "#include \"src/wire/codec.h\"\n"}},
          kLayers);
  EXPECT_EQ(CountRule(report, "layer-dag"), 0);
}

TEST(LayerDag, FiresOnUndeclaredModule) {
  const LintReport report =
      Lint({{"src/mystery/x.cc", "int x;\n"}}, kLayers);
  EXPECT_EQ(CountRule(report, "layer-dag"), 1);
}

TEST(LayerDag, RejectsCyclicTable) {
  const LintReport report = Lint(
      {{"src/sim/x.cc", "int x;\n"}},
      "{\"layers\": {\"sim\": [\"wire\"], \"wire\": [\"sim\"]}}");
  ASSERT_EQ(CountRule(report, "layer-dag"), 1);
  EXPECT_NE(report.findings[0].message.find("cyclic"), std::string::npos);
}

TEST(LayerDag, RealLayersFileIsAcceptedAndAcyclic) {
  std::ifstream in(std::string(SCATTER_SOURCE_DIR) + "/scripts/layers.json");
  ASSERT_TRUE(in.is_open());
  std::ostringstream ss;
  ss << in.rdbuf();
  const LintReport report = Lint({{"src/common/ok.cc", "int x;\n"}}, ss.str());
  EXPECT_EQ(CountRule(report, "layer-dag"), 0);
}

// --- transport-seam ----------------------------------------------------------

TEST(TransportSeam, FiresOutsideSimAndWire) {
  const LintReport report =
      Lint({{"src/core/bad.cc",
            "void F(Node* n, MessagePtr m) { n->HandleMessage(m); }\n"}});
  EXPECT_EQ(CountRule(report, "transport-seam"), 1);
}

TEST(TransportSeam, QuietInSimWireAndTests) {
  const std::string body =
      "void F(Node* n, MessagePtr m) { n->HandleMessage(m); }\n";
  const LintReport report = Lint({{"src/sim/ok.cc", body},
                                 {"src/wire/ok.cc", body},
                                 {"tests/ok.cc", body}});
  EXPECT_EQ(CountRule(report, "transport-seam"), 0);
}

// --- wire-hot-alloc ----------------------------------------------------------

TEST(WireHotAlloc, FiresOnNewAndRawByteVectorInWire) {
  const LintReport report =
      Lint({{"src/wire/bad.cc",
            "#include <vector>\n"
            "void Encode() {\n"
            "  std::vector<uint8_t> frame;\n"
            "  auto* b = new int(0);\n"
            "  (void)b;\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "wire-hot-alloc"), 2);
}

TEST(WireHotAlloc, QuietOutsideWireAndInPoolSources) {
  const std::string body =
      "#include <vector>\n"
      "std::vector<uint8_t> Copy() { return std::vector<uint8_t>(); }\n";
  const LintReport report = Lint({{"src/core/ok.cc", body},
                                 {"src/wire/buffer.h", body},
                                 {"tests/ok.cc", body}});
  EXPECT_EQ(CountRule(report, "wire-hot-alloc"), 0);
}

TEST(WireHotAlloc, QuietOnPooledIdiomAndOtherVectors) {
  const LintReport report =
      Lint({{"src/wire/ok.cc",
            "#include <vector>\n"
            "#include \"src/wire/buffer.h\"\n"
            "void Encode(const Message& m, Buffer& frame) {\n"
            "  frame.clear();\n"
            "  EncodeFrame(m, frame);\n"
            "  std::vector<int> offsets;\n"
            "  (void)offsets;\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "wire-hot-alloc"), 0);
}

TEST(WireHotAlloc, AllowAbsorbsStartupAllocation) {
  const std::string src =
      std::string("struct Registry {};\n"
                  "Registry* Get() {\n"
                  "  // ") +
      kAllowMarker +
      "(wire-hot-alloc): one-time static registry, not per-frame.\n"
      "  static Registry* r = new Registry();\n"
      "  return r;\n"
      "}\n";
  const LintReport report = Lint({{"src/wire/reg.cc", src}});
  EXPECT_EQ(CountRule(report, "wire-hot-alloc"), 0);
  EXPECT_EQ(report.suppressed.at("wire-hot-alloc"), 1);
}

// --- durability-io -----------------------------------------------------------

TEST(DurabilityIo, FiresOnStreamTypesAndLibcCallsOutsideStorage) {
  const LintReport report =
      Lint({{"src/core/bad_persist.cc",
            "#include <cstdio>\n"
            "#include <fstream>\n"
            "void Persist(const char* path) {\n"
            "  std::ofstream out(path);\n"
            "  FILE* f = fopen(path, \"wb\");\n"
            "  fwrite(path, 1, 1, f);\n"
            "  fclose(f);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "durability-io"), 4);
}

TEST(DurabilityIo, QuietInStorageToolsBenchAndTests) {
  const std::string body =
      "#include <fstream>\n"
      "void W(const char* p) { std::ofstream out(p); }\n";
  const LintReport report = Lint({{"src/storage/sim_disk.cc", body},
                                 {"tools/scatter_top.cc", body},
                                 {"bench/bench_io.cc", body},
                                 {"tests/io_test.cc", body}});
  EXPECT_EQ(CountRule(report, "durability-io"), 0);
}

TEST(DurabilityIo, QuietOnMethodsNamedLikeFileApi) {
  // disk->Remove / journal.rename are seam methods, and Pool::unlink is a
  // class-scoped call — none of them touch the filesystem directly.
  const LintReport report =
      Lint({{"src/paxos/ok.cc",
            "void F(Disk* d, J j) {\n"
            "  d->Remove(\"x\");\n"
            "  j.rename(1);\n"
            "  Pool::unlink(2);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(report, "durability-io"), 0);
}

TEST(DurabilityIo, AllowAbsorbsDeveloperArtifactWrite) {
  const std::string src =
      std::string("#include <fstream>\n"
                  "void Dump(const char* p) {\n"
                  "  // ") +
      kAllowMarker +
      "(durability-io): debug artifact, not durable protocol state.\n"
      "  std::ofstream out(p);\n"
      "}\n";
  const LintReport report = Lint({{"src/analysis/dump.cc", src}});
  EXPECT_EQ(CountRule(report, "durability-io"), 0);
  EXPECT_EQ(report.suppressed.at("durability-io"), 1);
}

// --- suppression semantics ---------------------------------------------------

TEST(Suppression, AllowAbsorbsExactlyOneFinding) {
  // Two findings on consecutive lines; the allow above the first covers only
  // that line, so exactly one finding survives.
  const std::string src = std::string("void F(int i, int j) {\n") +
                          "  // " + kAllowMarker +
                          "(check-side-effects): fixture exercises one.\n"
                          "  SCATTER_CHECK(++i > 0);\n"
                          "  SCATTER_CHECK(++j > 0);\n"
                          "}\n";
  const LintReport report = Lint({{"src/core/two.cc", src}});
  EXPECT_EQ(CountRule(report, "check-side-effects"), 1);
  EXPECT_EQ(report.fired.at("check-side-effects"), 2);
  EXPECT_EQ(report.suppressed.at("check-side-effects"), 1);
  EXPECT_EQ(CountRule(report, "unused-suppression"), 0);
}

TEST(Suppression, TrailingAllowCoversItsOwnLine) {
  const std::string src = std::string("void F(int i) {\n") +
                          "  SCATTER_CHECK(++i > 0);  // " + kAllowMarker +
                          "(check-side-effects): fixture.\n"
                          "}\n";
  const LintReport report = Lint({{"src/core/trail.cc", src}});
  EXPECT_EQ(CountRule(report, "check-side-effects"), 0);
  EXPECT_EQ(report.suppressed.at("check-side-effects"), 1);
}

TEST(Suppression, UnusedAllowIsItselfAFinding) {
  const std::string src = std::string("// ") + kAllowMarker +
                          "(determinism-ambient): nothing here needs it.\n"
                          "int x = 1;\n";
  const LintReport report = Lint({{"src/core/stale.cc", src}});
  ASSERT_EQ(CountRule(report, "unused-suppression"), 1);
}

TEST(Suppression, UnknownRuleNameIsAFinding) {
  const std::string src =
      std::string("// ") + kAllowMarker + "(no-such-rule): typo.\n int x;\n";
  const LintReport report = Lint({{"src/core/typo.cc", src}});
  ASSERT_EQ(CountRule(report, "unused-suppression"), 1);
  EXPECT_NE(report.findings[0].message.find("unknown rule"), std::string::npos);
}

TEST(Suppression, WrongRuleDoesNotSuppress) {
  const std::string src = std::string("void F(int i) {\n") + "  // " +
                          kAllowMarker +
                          "(determinism-ambient): wrong rule for this line.\n"
                          "  SCATTER_CHECK(++i > 0);\n"
                          "}\n";
  const LintReport report = Lint({{"src/core/wrong.cc", src}});
  EXPECT_EQ(CountRule(report, "check-side-effects"), 1);
  EXPECT_EQ(CountRule(report, "unused-suppression"), 1);
}

// --- mutation self-check -----------------------------------------------------

// Reintroduce the unordered-iteration bug class into the real mc harness
// source, whose capture ids must follow send order for a recorded schedule
// to replay, and assert scatter-lint catches it. This guards the guard: if
// the rule engine regresses, this test fails before a real mutation could
// slip through CI.
TEST(MutationSelfCheck, LintCatchesUnorderedIterationInFingerprint) {
  const std::string path =
      std::string(SCATTER_SOURCE_DIR) + "/src/mc/harness.cc";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string content = ss.str();

  // The real file is clean.
  const LintReport before = Lint({{"src/mc/harness.cc", content}});
  EXPECT_EQ(CountRule(before, "unordered-iteration"), 0);

  // Mutation: append a helper that feeds unordered_map iteration order
  // straight into a fingerprint without a sorted drain.
  content +=
      "\nnamespace scatter::mc {\n"
      "std::unordered_map<uint64_t, uint64_t> mutation_table_;\n"
      "uint64_t MutatedFingerprint() {\n"
      "  uint64_t h = 0;\n"
      "  for (const auto& kv : mutation_table_) {\n"
      "    h = h * 31 + kv.second;\n"
      "  }\n"
      "  return h;\n"
      "}\n"
      "}  // namespace scatter::mc\n";
  const LintReport after = Lint({{"src/mc/harness.cc", content}});
  EXPECT_EQ(CountRule(after, "unordered-iteration"), 1)
      << "scatter-lint failed to catch a hash-order-dependent fingerprint";
}


// --- blocking-in-handler -----------------------------------------------------

TEST(BlockingInHandler, FiresOnSleepFsyncAndUnboundedLoop) {
  const LintReport report =
      Lint({{"src/core/bad.cc",
             "void Node::HandlePing(const PingMsg& m) {\n"
             "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
             "  fsync(fd_);\n"
             "  while (true) {\n"
             "    Poll();\n"
             "  }\n"
             "}\n"}});
  EXPECT_EQ(CountRule(report, "blocking-in-handler"), 3);
}

TEST(BlockingInHandler, QuietOnBoundedLoopsAndNonHandlers) {
  const LintReport report =
      Lint({{"src/core/ok.cc",
             // Bounded loops and early exits are fine inside a handler.
             "void Node::HandlePing(const PingMsg& m) {\n"
             "  for (int i = 0; i < 3; ++i) Poll();\n"
             "  while (true) {\n"
             "    if (Done()) break;\n"
             "  }\n"
             "}\n"
             // Blocking work outside a Handle* body is another rule's
             // business (durability-io), not this one's.
             "void Node::FlushLoop() {\n"
             "  fsync(fd_);\n"
             "}\n"}});
  EXPECT_EQ(CountRule(report, "blocking-in-handler"), 0);
}

TEST(BlockingInHandler, QuietInStorageAndOutsideSrc) {
  const std::string body =
      "void Journal::HandleFlush() {\n"
      "  fsync(fd_);\n"
      "}\n";
  const LintReport report = Lint(
      {{"src/storage/journal.cc", body}, {"tests/fake_test.cc", body}});
  EXPECT_EQ(CountRule(report, "blocking-in-handler"), 0);
}

TEST(BlockingInHandler, AllowAbsorbsJustifiedBlockingCall) {
  const std::string src =
      std::string("void Node::HandleSync(const M& m) {\n  // ") +
      kAllowMarker +
      "(blocking-in-handler): bootstrap path, loop not running yet.\n"
      "  fsync(fd_);\n"
      "}\n";
  const LintReport report = Lint({{"src/core/boot.cc", src}});
  EXPECT_EQ(CountRule(report, "blocking-in-handler"), 0);
  EXPECT_EQ(CountRule(report, "unused-suppression"), 0);
}

// --- callback-capture-lifetime -----------------------------------------------

TEST(CallbackCaptureLifetime, FiresOnRawScheduleCapturingThis) {
  const LintReport report =
      Lint({{"src/core/bad.cc",
             "void C::Arm() {\n"
             "  sim_->Schedule(delay_, [this]() { Tick(); });\n"
             "}\n"}});
  EXPECT_EQ(CountRule(report, "callback-capture-lifetime"), 1);
}

TEST(CallbackCaptureLifetime, FiresOnDefaultCapture) {
  const LintReport report =
      Lint({{"src/core/bad.cc",
             "void C::Arm() {\n"
             "  sim().Schedule(delay_, [&]() { Tick(); });\n"
             "}\n"}});
  EXPECT_EQ(CountRule(report, "callback-capture-lifetime"), 1);
}

TEST(CallbackCaptureLifetime, QuietThroughTimerOwner) {
  const LintReport report =
      Lint({{"src/core/ok.cc",
             "void C::Arm() {\n"
             "  timers_.Schedule(delay_, [this]() { Tick(); });\n"
             "  timers().Schedule(delay_, [this]() { Tock(); });\n"
             "}\n"}});
  EXPECT_EQ(CountRule(report, "callback-capture-lifetime"), 0);
}

TEST(CallbackCaptureLifetime, QuietInPinnedDirsAndWithoutThis) {
  const LintReport report =
      Lint({{"src/sim/network.cc",
             "void N::Send() {\n"
             "  sim_->Schedule(latency, [this, m]() { Deliver(m); });\n"
             "}\n"},
            {"src/core/ok.cc",
             "void C::Arm() {\n"
             "  sim_->Schedule(delay_, [id]() { Log(id); });\n"
             "}\n"}});
  EXPECT_EQ(CountRule(report, "callback-capture-lifetime"), 0);
}

// --- summary ordering --------------------------------------------------------

// The per-rule summary must come out sorted by rule name — not in catalogue
// or file-visit order — so CI diffs of lint output are stable.
TEST(SummaryRowsOrder, SortedByRuleNameAndCoversCatalogue) {
  const LintReport report =
      Lint({{"src/wire/zz_bad.cc", "void F() { auto* p = new int; }\n"},
            {"src/core/aa_bad.cc", "int F() { return rand(); }\n"}});
  const std::vector<SummaryRow> rows = SummaryRows(report);
  ASSERT_GE(rows.size(), Rules().size());
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].rule, rows[i].rule) << "summary not sorted";
  }
  int wire_hot = 0;
  int ambient = 0;
  for (const SummaryRow& row : rows) {
    if (row.rule == "wire-hot-alloc") wire_hot = row.fired;
    if (row.rule == "determinism-ambient") ambient = row.fired;
  }
  EXPECT_EQ(wire_hot, 1);
  EXPECT_EQ(ambient, 1);
}

// --- mutation self-check: callback-capture-lifetime ---------------------------

// Turn the node's call-timeout timer — posted through its TimerOwner — into
// a raw simulator Schedule and assert the lifetime rule catches it: a
// pending timeout that outlives its RpcNode would call into a dead object.
TEST(MutationSelfCheck, LintCatchesRawScheduleCapturingThisInRpcNode) {
  const std::string path =
      std::string(SCATTER_SOURCE_DIR) + "/src/rpc/rpc_node.cc";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string content = ss.str();

  // The real file is clean.
  const LintReport before = Lint({{"src/rpc/rpc_node.cc", content}});
  EXPECT_EQ(CountRule(before, "callback-capture-lifetime"), 0);

  // Mutation: bypass the TimerOwner for the call timeout.
  const std::string owned = "timers_.Schedule(delay, [this";
  const size_t at = content.find(owned);
  ASSERT_NE(at, std::string::npos)
      << "rpc_node.cc no longer arms its call timeout through timers_ — "
         "update this mutation test";
  content.replace(at, owned.size(), "sim_->Schedule(delay, [this");

  const LintReport after = Lint({{"src/rpc/rpc_node.cc", content}});
  EXPECT_EQ(CountRule(after, "callback-capture-lifetime"), 1)
      << "scatter-lint failed to catch a raw Schedule capturing this";
}

}  // namespace
}  // namespace scatter::lint
