#include "tools/scatter_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <unordered_map>

#include "tools/scatter_lint/tokenizer.h"

namespace scatter::lint {
namespace {

// --- Rule catalogue ----------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"determinism-ambient",
     "bans ambient nondeterminism (wall clocks, rand, getenv, ...) outside "
     "bench/, tools/ and examples/ — simulation code must derive everything "
     "from the seed"},
    {"unordered-iteration",
     "flags range-for over unordered_map/unordered_set where iteration order "
     "can escape; drain into a sorted vector (std::sort in the enclosing "
     "scope) or suppress with a justification"},
    {"check-side-effects",
     "rejects SCATTER_CHECK/SCATTER_DCHECK arguments containing ++/--, "
     "assignments or mutating calls — check failure handlers may swallow the "
     "check, so its argument must be effect-free"},
    {"layer-dag",
     "enforces the include-layer DAG from scripts/layers.json: a file in "
     "src/<module>/ may only include modules listed as that module's "
     "dependencies; the table itself must be acyclic"},
    {"transport-seam",
     "flags direct HandleMessage() invocation outside src/sim/ and "
     "src/wire/ — all delivery must flow through the transport so the "
     "serializing/audit transports see every message"},
    {"unused-suppression",
     "a LINT-ALLOW comment that suppressed nothing is itself a finding — "
     "stale suppressions hide future regressions"},
    {"wire-hot-alloc",
     "flags direct std::vector<uint8_t> construction or `new` in src/wire/ "
     "encode/decode paths outside wire::Buffer — per-frame byte storage must "
     "be the transport's reused wire::Buffer so the hot path stays "
     "allocation-free"},
    {"durability-io",
     "bans direct file I/O (fstream family, fopen/fwrite/fsync, ...) in src/ "
     "outside src/storage/ — durable state must flow through the "
     "storage::SimDisk seam so crash semantics and determinism stay modeled; "
     "tools/, bench/ and tests/ sit outside the rule"},
    {"blocking-in-handler",
     "bans blocking operations (sleep_for/sleep_until/usleep/nanosleep, "
     "fsync/fdatasync, unbounded while(true)/for(;;) loops) inside "
     "Handle* message-handler bodies outside src/storage/ — a blocked "
     "handler stalls the whole simulation"},
    {"callback-capture-lifetime",
     "a lambda posted via a raw simulator Schedule must not capture `this` "
     "outside the pinned-object dirs (src/sim/, src/workload/) — post "
     "through sim::TimerOwner (timers_.Schedule) so pending callbacks are "
     "cancelled when their owner dies"},
};

// --- Shared analysis state ---------------------------------------------------

struct FileState {
  SourceFile source;
  TokenizedFile tok;
  // Names of variables/members declared with an unordered container type in
  // this file (no scoping: a name is visible to any file that includes this
  // one, which is the conservative direction for this rule).
  std::set<std::string> unordered_names;
  // Names declared with an ordered/sequenced container type. A name that
  // appears in both sets across an include closure is ambiguous (two
  // different members share it), and only flagged when the unordered
  // declaration is in the iterating file itself.
  std::set<std::string> ordered_names;
  // Repo-relative includes (resolved against the lint batch).
  std::vector<std::string> repo_includes;
};

struct Engine {
  const LintOptions& options;
  std::map<std::string, FileState> files;  // path -> state, ordered for output
  std::vector<Finding> raw;                          // pre-suppression

  explicit Engine(const LintOptions& opts) : options(opts) {}

  void Report(const std::string& rule, const std::string& file, int line,
              std::string message) {
    raw.push_back(Finding{rule, file, line, std::move(message)});
  }
};

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool InAllowedDir(const Engine& eng, const std::string& path) {
  for (const std::string& dir : eng.options.ambient_allow_dirs) {
    if (HasPrefix(path, dir)) {
      return true;
    }
  }
  return false;
}

// Module of a repo path: "src/paxos/replica.cc" -> "paxos"; "" otherwise.
std::string ModuleOf(const std::string& path) {
  if (!HasPrefix(path, "src/")) {
    return "";
  }
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) {
    return "";
  }
  return path.substr(4, slash - 4);
}

// --- Pass 1: declarations and include closure --------------------------------

// Skips a balanced <...> starting at tokens[i] == "<". Returns the index one
// past the closing ">", treating ">>" as two closers. Returns i on failure.
size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t i) {
  if (i >= toks.size() || toks[i].text != "<") {
    return i;
  }
  int depth = 0;
  size_t j = i;
  while (j < toks.size()) {
    const std::string& t = toks[j].text;
    if (toks[j].kind == TokenKind::kPunct) {
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        --depth;
      } else if (t == ">>") {
        depth -= 2;
      } else if (t == ";" || t == "{") {
        return i;  // not a template argument list after all
      }
      if (depth <= 0) {
        return j + 1;
      }
    }
    ++j;
  }
  return i;
}

const std::set<std::string>& UnorderedContainerNames() {
  static const std::set<std::string> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kNames;
}

const std::set<std::string>& OrderedContainerNames() {
  static const std::set<std::string> kNames = {
      "vector", "deque", "map",   "set",          "multimap", "multiset",
      "list",   "array", "queue", "forward_list",
  };
  return kNames;
}

void CollectUnorderedDeclarations(FileState& fs) {
  const std::vector<Token>& toks = fs.tok.tokens;
  // Local type aliases of unordered containers: `using A = ...unordered...;`
  std::set<std::string> aliases;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::kIdentifier && toks[i].text == "using" &&
        toks[i + 1].kind == TokenKind::kIdentifier &&
        toks[i + 2].text == "=") {
      for (size_t j = i + 3; j < toks.size() && toks[j].text != ";"; ++j) {
        if (toks[j].kind == TokenKind::kIdentifier &&
            UnorderedContainerNames().count(toks[j].text) > 0) {
          aliases.insert(toks[i + 1].text);
          break;
        }
      }
    }
  }

  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) {
      continue;
    }
    size_t after_type = 0;
    bool unordered = false;
    const bool is_unordered_tmpl =
        UnorderedContainerNames().count(toks[i].text) > 0;
    const bool is_ordered_tmpl = OrderedContainerNames().count(toks[i].text) > 0;
    if ((is_unordered_tmpl || is_ordered_tmpl) && i + 1 < toks.size() &&
        toks[i + 1].text == "<") {
      unordered = is_unordered_tmpl;
      after_type = SkipTemplateArgs(toks, i + 1);
      if (after_type == i + 1) {
        continue;
      }
    } else if (aliases.count(toks[i].text) > 0) {
      unordered = true;
      after_type = i + 1;
    } else {
      continue;
    }
    // Skip declarator decorations, then expect the variable name.
    size_t j = after_type;
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != TokenKind::kIdentifier) {
      continue;
    }
    // `type name(` is a function declaration, not a variable.
    if (j + 1 < toks.size() && toks[j + 1].text == "(") {
      continue;
    }
    (unordered ? fs.unordered_names : fs.ordered_names).insert(toks[j].text);
  }
}

// Transitive repo-include closure (paths present in the batch only).
void IncludeClosure(const Engine& eng, const std::string& path,
                    std::set<std::string>* out) {
  auto it = eng.files.find(path);
  if (it == eng.files.end()) {
    return;
  }
  for (const std::string& inc : it->second.repo_includes) {
    if (out->insert(inc).second) {
      IncludeClosure(eng, inc, out);
    }
  }
}

// --- Rule: determinism-ambient ----------------------------------------------

// Banned on any mention: these identifiers have no legitimate deterministic
// use in simulation code.
const std::set<std::string>& AmbientBannedAlways() {
  static const std::set<std::string> kBanned = {
      "random_device", "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get", "srand",
      "srandom",       "rand_r",        "drand48",      "lrand48",
      "mrand48",       "localtime",     "gmtime",       "mktime",
      "getenv",        "secure_getenv", "putenv",       "setenv",
  };
  return kBanned;
}

// Banned only as a direct call (`name(`), since the bare names are common
// identifiers.
const std::set<std::string>& AmbientBannedCalls() {
  static const std::set<std::string> kBanned = {"rand", "time", "clock",
                                                "random"};
  return kBanned;
}

void RunDeterminismAmbient(Engine& eng, const FileState& fs) {
  if (InAllowedDir(eng, fs.source.path)) {
    return;
  }
  const std::vector<Token>& toks = fs.tok.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) {
      continue;
    }
    const bool member_access =
        i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (member_access) {
      continue;  // foo.time, msg->clock: fields, not the libc calls
    }
    const std::string& name = toks[i].text;
    if (AmbientBannedAlways().count(name) > 0) {
      eng.Report("determinism-ambient", fs.source.path, toks[i].line,
                 "ambient nondeterminism: '" + name +
                     "' — derive time/randomness/config from the simulation "
                     "seed, or LINT-ALLOW with a justification");
      continue;
    }
    if (AmbientBannedCalls().count(name) > 0 && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      // Only std:: / global-scope calls: `Foo::time(...)` is not libc time.
      if (i >= 2 && toks[i - 1].text == "::" &&
          toks[i - 2].kind == TokenKind::kIdentifier &&
          toks[i - 2].text != "std") {
        continue;
      }
      eng.Report("determinism-ambient", fs.source.path, toks[i].line,
                 "ambient nondeterminism: call to '" + name + "'");
    }
  }
}

// --- Rule: unordered-iteration ----------------------------------------------

// Finds the index one past the matching closer for the opener at `open`
// (tokens[open] must be "(" or "{"). Returns open on failure.
size_t SkipBalanced(const std::vector<Token>& toks, size_t open,
                    const char* opener, const char* closer) {
  if (open >= toks.size() || toks[open].text != opener) {
    return open;
  }
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == opener) {
      ++depth;
    } else if (toks[j].text == closer) {
      --depth;
      if (depth == 0) {
        return j + 1;
      }
    }
  }
  return open;
}

void RunUnorderedIteration(Engine& eng, const FileState& fs) {
  // Visible unordered names: declared here or in any included file. A name
  // that also has an ordered declaration somewhere in the closure is
  // ambiguous (distinct members sharing a name) and only kept when the
  // unordered declaration is local to this file.
  std::set<std::string> visible = fs.unordered_names;
  std::set<std::string> ordered_elsewhere = fs.ordered_names;
  std::set<std::string> closure;
  IncludeClosure(eng, fs.source.path, &closure);
  for (const std::string& inc : closure) {
    auto it = eng.files.find(inc);
    if (it != eng.files.end()) {
      visible.insert(it->second.unordered_names.begin(),
                     it->second.unordered_names.end());
      ordered_elsewhere.insert(it->second.ordered_names.begin(),
                               it->second.ordered_names.end());
    }
  }
  for (const std::string& name : ordered_elsewhere) {
    if (fs.unordered_names.count(name) == 0) {
      visible.erase(name);
    }
  }
  if (visible.empty()) {
    return;
  }

  const std::vector<Token>& toks = fs.tok.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier || toks[i].text != "for" ||
        toks[i + 1].text != "(") {
      continue;
    }
    const size_t close = SkipBalanced(toks, i + 1, "(", ")");
    if (close == i + 1) {
      continue;
    }
    // Find the range-for ':' at paren depth 1 ('::' is a distinct token).
    size_t colon = 0;
    int depth = 0;
    for (size_t j = i + 1; j < close - 1; ++j) {
      if (toks[j].text == "(") {
        ++depth;
      } else if (toks[j].text == ")") {
        --depth;
      } else if (toks[j].text == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == 0) {
      continue;  // classic for loop
    }
    // The range expression's final token must be a bare identifier for us to
    // resolve it (calls and complex expressions are out of scope).
    const Token& last = toks[close - 2];
    if (last.kind != TokenKind::kIdentifier ||
        visible.count(last.text) == 0) {
      continue;
    }

    // Compliance: a sort in the code that follows, within the enclosing
    // scope — the canonical "drain into a vector, sort, then use" idiom.
    size_t body_end;
    if (close < toks.size() && toks[close].text == "{") {
      body_end = SkipBalanced(toks, close, "{", "}");
    } else {
      body_end = close;
      while (body_end < toks.size() && toks[body_end].text != ";") {
        ++body_end;
      }
    }
    bool sorted_after = false;
    int scope_depth = 0;
    for (size_t j = body_end; j < toks.size(); ++j) {
      if (toks[j].text == "{") {
        ++scope_depth;
      } else if (toks[j].text == "}") {
        --scope_depth;
        if (scope_depth < 0) {
          break;  // end of enclosing scope
        }
      } else if (toks[j].kind == TokenKind::kIdentifier &&
                 (toks[j].text == "sort" || toks[j].text == "stable_sort")) {
        sorted_after = true;
        break;
      }
    }
    if (!sorted_after) {
      eng.Report(
          "unordered-iteration", fs.source.path, toks[i].line,
          "range-for over unordered container '" + last.text +
              "': iteration order is hash-layout-dependent — drain into a "
              "sorted vector (std::sort in this scope) or LINT-ALLOW with a "
              "justification");
    }
  }
}

// --- Rule: check-side-effects -----------------------------------------------

const std::set<std::string>& MutatingCallNames() {
  static const std::set<std::string> kMutators = {
      "push_back", "pop_back", "emplace_back", "emplace", "insert",
      "erase",     "clear",    "pop",          "push",    "reset",
      "release",   "swap",     "assign",       "resize",
  };
  return kMutators;
}

const std::set<std::string>& AssignmentOps() {
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
  };
  return kOps;
}

void RunCheckSideEffects(Engine& eng, const FileState& fs) {
  const std::vector<Token>& toks = fs.tok.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        (toks[i].text != "SCATTER_CHECK" && toks[i].text != "SCATTER_DCHECK")) {
      continue;
    }
    // Skip the macro's own definition (`#define SCATTER_CHECK(cond) ...`).
    if (i > 0 && toks[i - 1].text == "#") {
      continue;
    }
    if (i >= 2 && toks[i - 1].kind == TokenKind::kIdentifier &&
        toks[i - 2].text == "#") {
      continue;
    }
    if (toks[i + 1].text != "(") {
      continue;
    }
    const size_t close = SkipBalanced(toks, i + 1, "(", ")");
    for (size_t j = i + 2; j + 1 < close; ++j) {
      const std::string& t = toks[j].text;
      std::string why;
      if (t == "++" || t == "--") {
        why = "'" + t + "'";
      } else if (toks[j].kind == TokenKind::kPunct &&
                 AssignmentOps().count(t) > 0 &&
                 toks[j - 1].text != "[") {  // not a [=] lambda capture
        why = "assignment '" + t + "'";
      } else if (toks[j].kind == TokenKind::kIdentifier &&
                 MutatingCallNames().count(t) > 0 && toks[j + 1].text == "(" &&
                 (toks[j - 1].text == "." || toks[j - 1].text == "->")) {
        why = "mutating call '" + t + "()'";
      }
      if (!why.empty()) {
        eng.Report("check-side-effects", fs.source.path, toks[i].line,
                   toks[i].text + " argument contains " + why +
                       " — checks may be intercepted (mc harness), so their "
                       "arguments must be effect-free");
        break;  // one finding per check
      }
    }
  }
}

// --- Rule: layer-dag ---------------------------------------------------------

// Minimal JSON reader for the {"layers": {"mod": ["dep", ...], ...}} shape.
// Anything outside that shape is ignored (e.g. the "_comment" block).
bool ParseLayers(const std::string& json,
                 std::map<std::string, std::vector<std::string>>* out,
                 std::string* error) {
  const size_t layers_at = json.find("\"layers\"");
  if (layers_at == std::string::npos) {
    *error = "no \"layers\" object";
    return false;
  }
  size_t i = json.find('{', layers_at);
  if (i == std::string::npos) {
    *error = "\"layers\" is not an object";
    return false;
  }
  ++i;
  auto skip_ws = [&] {
    while (i < json.size() &&
           std::isspace(static_cast<unsigned char>(json[i])) != 0) {
      ++i;
    }
  };
  auto read_string = [&](std::string* s) -> bool {
    skip_ws();
    if (i >= json.size() || json[i] != '"') {
      return false;
    }
    const size_t start = ++i;
    while (i < json.size() && json[i] != '"') {
      ++i;
    }
    if (i >= json.size()) {
      return false;
    }
    *s = json.substr(start, i - start);
    ++i;
    return true;
  };
  while (true) {
    skip_ws();
    if (i < json.size() && json[i] == '}') {
      return true;
    }
    std::string mod;
    if (!read_string(&mod)) {
      *error = "expected module name string";
      return false;
    }
    skip_ws();
    if (i >= json.size() || json[i] != ':') {
      *error = "expected ':' after module name";
      return false;
    }
    ++i;
    skip_ws();
    if (i >= json.size() || json[i] != '[') {
      *error = "expected dependency array for module " + mod;
      return false;
    }
    ++i;
    std::vector<std::string> deps;
    while (true) {
      skip_ws();
      if (i < json.size() && json[i] == ']') {
        ++i;
        break;
      }
      std::string dep;
      if (!read_string(&dep)) {
        *error = "expected dependency string in module " + mod;
        return false;
      }
      deps.push_back(dep);
      skip_ws();
      if (i < json.size() && json[i] == ',') {
        ++i;
      }
    }
    (*out)[mod] = deps;
    skip_ws();
    if (i < json.size() && json[i] == ',') {
      ++i;
    }
  }
}

// Kahn's algorithm; returns false and names one cycle participant on failure.
bool IsAcyclic(const std::map<std::string, std::vector<std::string>>& layers,
               std::string* cycle_member) {
  std::map<std::string, int> remaining;  // unprocessed dep count
  for (const auto& [mod, deps] : layers) {
    remaining[mod] = static_cast<int>(deps.size());
  }
  bool progress = true;
  size_t done = 0;
  std::set<std::string> resolved;
  while (progress) {
    progress = false;
    for (auto& [mod, count] : remaining) {
      if (count >= 0 && resolved.count(mod) == 0) {
        bool all_resolved = true;
        for (const std::string& dep : layers.at(mod)) {
          if (layers.count(dep) > 0 && resolved.count(dep) == 0) {
            all_resolved = false;
            break;
          }
        }
        if (all_resolved) {
          resolved.insert(mod);
          ++done;
          progress = true;
        }
      }
    }
  }
  if (done == layers.size()) {
    return true;
  }
  for (const auto& [mod, deps] : layers) {
    if (resolved.count(mod) == 0) {
      *cycle_member = mod;
      return false;
    }
  }
  return true;
}

void RunLayerDag(Engine& eng) {
  if (eng.options.layers_json.empty()) {
    return;
  }
  std::map<std::string, std::vector<std::string>> layers;
  std::string error;
  if (!ParseLayers(eng.options.layers_json, &layers, &error)) {
    eng.Report("layer-dag", "scripts/layers.json", 1,
               "cannot parse layers config: " + error);
    return;
  }
  std::string cycle_member;
  if (!IsAcyclic(layers, &cycle_member)) {
    eng.Report("layer-dag", "scripts/layers.json", 1,
               "layer table is cyclic (module '" + cycle_member +
                   "' participates) — the DAG must stay a DAG");
    return;
  }
  for (const auto& [path, fs] : eng.files) {
    const std::string mod = ModuleOf(path);
    if (mod.empty()) {
      continue;  // tests/bench/tools/examples sit on top: unconstrained
    }
    auto allowed_it = layers.find(mod);
    if (allowed_it == layers.end()) {
      eng.Report("layer-dag", path, 1,
                 "module '" + mod +
                     "' is not declared in scripts/layers.json — add it with "
                     "an explicit dependency list");
      continue;
    }
    const std::vector<std::string>& allowed = allowed_it->second;
    for (const IncludeDirective& inc : fs.tok.includes) {
      const std::string dep = ModuleOf(inc.path);
      if (dep.empty() || dep == mod) {
        continue;
      }
      if (std::find(allowed.begin(), allowed.end(), dep) == allowed.end()) {
        eng.Report("layer-dag", path, inc.line,
                   "layering violation: module '" + mod + "' includes '" +
                       inc.path + "' but '" + dep +
                       "' is not among its declared dependencies in "
                       "scripts/layers.json");
      }
    }
  }
}

// --- Rule: transport-seam ----------------------------------------------------

void RunTransportSeam(Engine& eng, const FileState& fs) {
  const std::string& path = fs.source.path;
  // The seam itself lives in sim/ (in-process delivery) and wire/
  // (serializing delivery); tests/bench/tools may poke endpoints directly.
  if (!HasPrefix(path, "src/") || HasPrefix(path, "src/sim/") ||
      HasPrefix(path, "src/wire/")) {
    return;
  }
  const std::vector<Token>& toks = fs.tok.tokens;
  for (size_t i = 2; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::kIdentifier &&
        toks[i].text == "HandleMessage" && toks[i + 1].text == "(" &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      eng.Report("transport-seam", path, toks[i].line,
                 "direct HandleMessage() call bypasses sim::Network — "
                 "deliver through the network so the serializing/audit "
                 "transports see this message");
    }
  }
}

// --- Rule: wire-hot-alloc ----------------------------------------------------

// The wire layer's per-frame byte storage is the transport's reused
// wire::Buffer: a stray `new` or a fresh std::vector<uint8_t> in an
// encode/decode path reintroduces the per-delivery allocation that reuse
// removes. Buffer itself is the sanctioned owner; startup-time allocations
// (e.g. the codec registry) carry a LINT-ALLOW with the reason.
void RunWireHotAlloc(Engine& eng, const FileState& fs) {
  const std::string& path = fs.source.path;
  if (!HasPrefix(path, "src/wire/")) {
    return;
  }
  if (path == "src/wire/buffer.h") {
    return;
  }
  const std::vector<Token>& toks = fs.tok.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) {
      continue;
    }
    if (toks[i].text == "new") {
      eng.Report("wire-hot-alloc", path, toks[i].line,
                 "`new` in the wire layer — frame storage must be the "
                 "transport's reused wire::Buffer (LINT-ALLOW for one-time "
                 "startup allocations)");
    } else if (toks[i].text == "vector" && i + 3 < toks.size() &&
               toks[i + 1].text == "<" && toks[i + 2].text == "uint8_t" &&
               (toks[i + 3].text == ">" || toks[i + 3].text == ">>")) {
      eng.Report("wire-hot-alloc", path, toks[i].line,
                 "raw std::vector<uint8_t> in the wire layer — encode into "
                 "the transport's reused wire::Buffer so encode/decode paths "
                 "do not allocate per frame");
    }
  }
}

// --- Rule: durability-io -----------------------------------------------------

// File I/O belongs behind the storage::SimDisk seam: src/storage/ owns the
// disk model and its crash semantics, and everything above persists through
// it. A stray fstream elsewhere in src/ is durable state the crash model
// cannot see. Developer-facing
// artifacts (counterexample JSON, audit traces) carry a LINT-ALLOW with the
// reason; tools/, bench/ and tests/ are out of scope entirely.
void RunDurabilityIo(Engine& eng, const FileState& fs) {
  const std::string& path = fs.source.path;
  if (!HasPrefix(path, "src/") || HasPrefix(path, "src/storage/")) {
    return;
  }
  static const std::set<std::string> kStreamTypes = {"ofstream", "ifstream",
                                                     "fstream"};
  static const std::set<std::string> kFileCalls = {
      "fopen",  "freopen", "fwrite", "fread",   "fclose",
      "fsync",  "fdatasync", "rename", "unlink", "mkstemp"};
  const std::vector<Token>& toks = fs.tok.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) {
      continue;
    }
    const bool member_access =
        i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (member_access) {
      continue;  // disk->Remove, journal.fsyncs: methods, not libc
    }
    const std::string& name = toks[i].text;
    if (kStreamTypes.count(name) > 0) {
      eng.Report("durability-io", path, toks[i].line,
                 "direct file I/O: '" + name +
                     "' outside src/storage/ — persist through the "
                     "storage::SimDisk seam, or LINT-ALLOW for "
                     "developer-facing artifacts");
      continue;
    }
    if (kFileCalls.count(name) > 0 && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      // Only std:: / global-scope calls: `Foo::rename(...)` is not libc.
      if (i >= 2 && toks[i - 1].text == "::" &&
          toks[i - 2].kind == TokenKind::kIdentifier &&
          toks[i - 2].text != "std") {
        continue;
      }
      eng.Report("durability-io", path, toks[i].line,
                 "direct file I/O: call to '" + name +
                     "' outside src/storage/ — persist through the "
                     "storage::SimDisk seam");
    }
  }
}

// --- Rule: blocking-in-handler -----------------------------------------------

// Calls that stall the calling thread. Every handler runs on the one
// simulation loop, so a stall in any handler stalls the whole run.
const std::set<std::string>& BlockingCallNames() {
  static const std::set<std::string> kNames = {
      "sleep_for", "sleep_until", "usleep", "nanosleep",
      "fsync",     "fdatasync",
  };
  return kNames;
}

// True when the loop headed at `kw` (index of `while`/`for`) is unbounded:
// while(true), while(1) or for(;;) whose body contains no break/return/
// goto/throw. `*past_loop` receives the index one past the loop body.
bool IsUnboundedLoop(const std::vector<Token>& toks, size_t kw,
                     size_t* past_loop) {
  if (kw + 1 >= toks.size() || toks[kw + 1].text != "(") {
    return false;
  }
  const size_t close = SkipBalanced(toks, kw + 1, "(", ")");
  if (close == kw + 1) {
    return false;
  }
  bool infinite_head = false;
  if (toks[kw].text == "while") {
    infinite_head = close == kw + 4 &&
                    (toks[kw + 2].text == "true" || toks[kw + 2].text == "1");
  } else if (toks[kw].text == "for") {
    infinite_head =
        close == kw + 5 && toks[kw + 2].text == ";" && toks[kw + 3].text == ";";
  }
  size_t body_end = close;
  if (close < toks.size() && toks[close].text == "{") {
    body_end = SkipBalanced(toks, close, "{", "}");
  } else {
    while (body_end < toks.size() && toks[body_end].text != ";") {
      ++body_end;
    }
  }
  *past_loop = body_end;
  if (!infinite_head) {
    return false;
  }
  for (size_t j = close; j < body_end; ++j) {
    const std::string& t = toks[j].text;
    if (t == "break" || t == "return" || t == "co_return" || t == "goto" ||
        t == "throw") {
      return false;
    }
  }
  return true;
}

void RunBlockingInHandler(Engine& eng, const FileState& fs) {
  const std::string& path = fs.source.path;
  // src/storage/ owns the disk model; its fsyncs are the modeled blocking
  // work, not a handler stall.
  if (!HasPrefix(path, "src/") || HasPrefix(path, "src/storage/")) {
    return;
  }
  const std::vector<Token>& toks = fs.tok.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    // A handler definition: identifier starting with "Handle", a parameter
    // list, optional const/override/final/noexcept, then the body. Call
    // sites have no body and fall through.
    if (toks[i].kind != TokenKind::kIdentifier ||
        toks[i].text.compare(0, 6, "Handle") != 0 ||
        toks[i + 1].text != "(") {
      continue;
    }
    const size_t close = SkipBalanced(toks, i + 1, "(", ")");
    if (close == i + 1) {
      continue;
    }
    size_t j = close;
    while (j < toks.size() &&
           (toks[j].text == "const" || toks[j].text == "override" ||
            toks[j].text == "final" || toks[j].text == "noexcept")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].text != "{") {
      continue;
    }
    const size_t body_end = SkipBalanced(toks, j, "{", "}");
    const std::string& handler = toks[i].text;
    for (size_t k = j + 1; k + 1 < body_end; ++k) {
      if (toks[k].kind != TokenKind::kIdentifier) {
        continue;
      }
      const std::string& t = toks[k].text;
      if (BlockingCallNames().count(t) > 0 && toks[k + 1].text == "(") {
        eng.Report("blocking-in-handler", path, toks[k].line,
                   "blocking call '" + t + "' inside handler " + handler +
                       "() — a blocked handler stalls the whole simulation; "
                       "hand the work to the flush scheduler or a timer");
        continue;
      }
      if (t == "while" || t == "for") {
        size_t past_loop = k;
        if (IsUnboundedLoop(toks, k, &past_loop)) {
          eng.Report("blocking-in-handler", path, toks[k].line,
                     "unbounded loop inside handler " + handler +
                         "() — a handler must terminate; bound the loop or "
                         "break on a condition");
          k = past_loop;
        }
      }
    }
  }
}

// --- Rule: callback-capture-lifetime -----------------------------------------

void RunCallbackCaptureLifetime(Engine& eng, const FileState& fs) {
  const std::string& path = fs.source.path;
  if (!HasPrefix(path, "src/")) {
    return;
  }
  for (const std::string& dir : eng.options.pinned_this_dirs) {
    if (HasPrefix(path, dir)) {
      return;  // pinned objects outlive every pending timer by construction
    }
  }
  const std::vector<Token>& toks = fs.tok.tokens;
  for (size_t i = 2; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier || toks[i].text != "Schedule" ||
        toks[i + 1].text != "(" ||
        (toks[i - 1].text != "." && toks[i - 1].text != "->")) {
      continue;
    }
    // Receiver: `timers_.Schedule`, `timers().Schedule`, `sim_->Schedule`.
    std::string receiver;
    if (toks[i - 2].kind == TokenKind::kIdentifier) {
      receiver = toks[i - 2].text;
    } else if (i >= 4 && toks[i - 2].text == ")" && toks[i - 3].text == "(" &&
               toks[i - 4].kind == TokenKind::kIdentifier) {
      receiver = toks[i - 4].text;
    }
    if (receiver == "timers_" || receiver == "timers") {
      continue;  // sim::TimerOwner: cancelled with the owner — the idiom
    }
    const size_t close = SkipBalanced(toks, i + 1, "(", ")");
    bool captures_this = false;
    for (size_t j = i + 2; j + 1 < close && !captures_this; ++j) {
      if (toks[j].text != "[") {
        continue;
      }
      // Walk the capture list: explicit `this`, or a default capture
      // ([&]/[=]) which captures the enclosing `this` implicitly.
      for (size_t k = j + 1; k < close && toks[k].text != "]"; ++k) {
        if (toks[k].text == "this" ||
            ((toks[k].text == "&" || toks[k].text == "=") &&
             toks[k + 1].text == "]")) {
          captures_this = true;
          break;
        }
      }
    }
    if (captures_this) {
      eng.Report(
          "callback-capture-lifetime", path, toks[i].line,
          "lambda posted via raw " + (receiver.empty() ? "" : receiver + ".") +
              "Schedule captures `this` from a non-pinned class — post "
              "through sim::TimerOwner (timers_.Schedule) so the callback is "
              "cancelled when its owner dies");
    }
  }
}

// --- Suppression + meta-rule -------------------------------------------------

const std::set<std::string>& KnownRuleNames() {
  static const std::set<std::string>* kNames = [] {
    auto* names = new std::set<std::string>();
    for (const RuleInfo& rule : kRules) {
      names->insert(rule.name);
    }
    return names;
  }();
  return *kNames;
}

}  // namespace

const std::vector<RuleInfo>& Rules() { return kRules; }

std::vector<SummaryRow> SummaryRows(const LintReport& report) {
  // Every catalogue rule gets a row (zero counts included) plus any extra
  // rule name present in the report, sorted by rule name — deterministic
  // regardless of catalogue or file-visit order.
  std::set<std::string> names;
  for (const RuleInfo& rule : kRules) {
    names.insert(rule.name);
  }
  for (const auto& [rule, fired] : report.fired) {
    names.insert(rule);
  }
  std::vector<SummaryRow> rows;
  for (const std::string& name : names) {
    const auto fired = report.fired.find(name);
    const auto supp = report.suppressed.find(name);
    rows.push_back({name, fired == report.fired.end() ? 0 : fired->second,
                    supp == report.suppressed.end() ? 0 : supp->second});
  }
  return rows;
}

LintReport RunLint(const std::vector<SourceFile>& files,
                   const LintOptions& options) {
  Engine eng(options);
  LintReport report;
  report.files_scanned = static_cast<int>(files.size());

  // Pass 1: tokenize, resolve includes, collect declarations.
  for (const SourceFile& f : files) {
    FileState fs;
    fs.source = f;
    fs.tok = Tokenize(f.content);
    CollectUnorderedDeclarations(fs);
    eng.files.emplace(f.path, std::move(fs));
  }
  for (auto& [path, fs] : eng.files) {
    for (const IncludeDirective& inc : fs.tok.includes) {
      if (!inc.angled && eng.files.count(inc.path) > 0) {
        fs.repo_includes.push_back(inc.path);
      }
    }
  }

  // Pass 2: rules.
  for (auto& [path, fs] : eng.files) {
    RunDeterminismAmbient(eng, fs);
    RunUnorderedIteration(eng, fs);
    RunCheckSideEffects(eng, fs);
    RunTransportSeam(eng, fs);
    RunWireHotAlloc(eng, fs);
    RunDurabilityIo(eng, fs);
    RunBlockingInHandler(eng, fs);
    RunCallbackCaptureLifetime(eng, fs);
  }
  RunLayerDag(eng);

  // Suppression: each LINT-ALLOW absorbs exactly one finding of its rule on
  // its target line (or its own line, for trailing comments).
  for (Finding& f : eng.raw) {
    report.fired[f.rule]++;
    bool suppressed = false;
    auto it = eng.files.find(f.file);
    if (it != eng.files.end()) {
      for (AllowComment& allow : it->second.tok.allows) {
        if (!allow.used && allow.rule == f.rule &&
            (f.line == allow.target_line || f.line == allow.line)) {
          allow.used = true;
          suppressed = true;
          report.suppressed[f.rule]++;
          break;
        }
      }
    }
    if (!suppressed) {
      report.findings.push_back(std::move(f));
    }
  }

  // Meta-rule: unused or unknown suppressions.
  for (const auto& [path, fs] : eng.files) {
    for (const AllowComment& allow : fs.tok.allows) {
      if (KnownRuleNames().count(allow.rule) == 0) {
        report.fired["unused-suppression"]++;
        report.findings.push_back(
            Finding{"unused-suppression", path, allow.line,
                    "LINT-ALLOW names unknown rule '" + allow.rule +
                        "' (see scatter_lint --list-rules)"});
      } else if (!allow.used) {
        report.fired["unused-suppression"]++;
        report.findings.push_back(Finding{
            "unused-suppression", path, allow.line,
            "LINT-ALLOW(" + allow.rule +
                ") suppressed nothing — remove it or move it to the "
                "offending line"});
      }
    }
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.line != b.line) {
                return a.line < b.line;
              }
              return a.rule < b.rule;
            });
  return report;
}

}  // namespace scatter::lint
