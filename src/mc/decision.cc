#include "src/mc/decision.h"

#include <fstream>
#include <sstream>

#include "src/common/json.h"

namespace scatter::mc {

const char* ChoiceKindName(ChoiceKind kind) {
  switch (kind) {
    case ChoiceKind::kDeliver:
      return "deliver";
    case ChoiceKind::kAdvanceTime:
      return "advance_time";
    case ChoiceKind::kCrash:
      return "crash";
    case ChoiceKind::kSpawn:
      return "spawn";
    case ChoiceKind::kPartition:
      return "partition";
    case ChoiceKind::kHeal:
      return "heal";
    case ChoiceKind::kRestart:
      return "restart";
  }
  return "?";
}

namespace {

bool ChoiceKindFromName(const std::string& name, ChoiceKind* out) {
  for (ChoiceKind k :
       {ChoiceKind::kDeliver, ChoiceKind::kAdvanceTime, ChoiceKind::kCrash,
        ChoiceKind::kSpawn, ChoiceKind::kPartition, ChoiceKind::kHeal,
        ChoiceKind::kRestart}) {
    if (name == ChoiceKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

// Field readers for FromJson: false when a known field has the wrong type
// or value. Unknown fields are skipped (forward compatibility).
bool ReadString(const json::Value& v, std::string* out) {
  if (!v.is_string()) {
    return false;
  }
  *out = v.text;
  return true;
}

bool ReadViolation(const json::Value& v, McViolation* out) {
  if (!v.is_object()) {
    return false;
  }
  for (const auto& [key, field] : v.object) {
    bool ok = true;
    if (key == "source") {
      ok = ReadString(field, &out->source);
    } else if (key == "checker") {
      ok = ReadString(field, &out->checker);
    } else if (key == "detail") {
      ok = ReadString(field, &out->detail);
    }
    if (!ok) {
      return false;
    }
  }
  return true;
}

bool ReadChoice(const json::Value& v, Choice* out) {
  if (!v.is_object()) {
    return false;
  }
  for (const auto& [key, field] : v.object) {
    bool ok = true;
    if (key == "kind") {
      std::string kind;
      ok = ReadString(field, &kind) && ChoiceKindFromName(kind, &out->kind);
    } else if (key == "arg") {
      ok = field.AsU64(&out->arg);
    } else if (key == "dest") {
      ok = field.AsU64(&out->dest);
    }
    if (!ok) {
      return false;
    }
  }
  return true;
}

bool ReadSchedule(const json::Value& v, std::vector<Choice>* out) {
  if (!v.is_array()) {
    return false;
  }
  for (const json::Value& item : v.array) {
    Choice c;
    if (!ReadChoice(item, &c)) {
      return false;
    }
    out->push_back(c);
  }
  return true;
}

}  // namespace

std::string Choice::ToString() const {
  std::string s = ChoiceKindName(kind);
  if (kind == ChoiceKind::kDeliver) {
    s += "#" + std::to_string(arg);
    if (dest != kInvalidNode) {
      s += "->" + std::to_string(dest);
    }
  } else if (kind == ChoiceKind::kCrash || kind == ChoiceKind::kRestart) {
    s += "(" + std::to_string(arg) + ")";
  }
  return s;
}

std::string Counterexample::ToJson() const {
  std::string out;
  out += "{\n  \"version\": " + std::to_string(version) + ",\n";
  out += "  \"scenario\": ";
  json::AppendString(&out, scenario);
  out += ",\n  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"strategy\": ";
  json::AppendString(&out, strategy);
  out += ",\n  \"violation\": {\"source\": ";
  json::AppendString(&out, violation.source);
  out += ", \"checker\": ";
  json::AppendString(&out, violation.checker);
  out += ", \"detail\": ";
  json::AppendString(&out, violation.detail);
  out += "},\n  \"schedule\": [\n";
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Choice& c = schedule[i];
    out += "    {\"kind\": ";
    json::AppendString(&out, ChoiceKindName(c.kind));
    out += ", \"arg\": " + std::to_string(c.arg);
    if (c.dest != kInvalidNode) {
      out += ", \"dest\": " + std::to_string(c.dest);
    }
    out += i + 1 < schedule.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool Counterexample::FromJson(const std::string& text, Counterexample* out,
                              std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  json::Value root;
  std::string parse_error;
  if (!json::Parse(text, &root, &parse_error)) {
    return fail(parse_error);
  }
  if (!root.is_object()) {
    return fail("expected an object");
  }
  Counterexample ce;
  uint64_t version = 1;
  for (const auto& [key, v] : root.object) {
    bool ok = true;
    if (key == "version") {
      ok = v.AsU64(&version);
    } else if (key == "scenario") {
      ok = ReadString(v, &ce.scenario);
    } else if (key == "seed") {
      ok = v.AsU64(&ce.seed);
    } else if (key == "strategy") {
      ok = ReadString(v, &ce.strategy);
    } else if (key == "violation") {
      ok = ReadViolation(v, &ce.violation);
    } else if (key == "schedule") {
      ok = ReadSchedule(v, &ce.schedule);
    }
    if (!ok) {
      return fail("bad \"" + key + "\"");
    }
  }
  if (version != 1) {
    return fail("unsupported counterexample version " +
                std::to_string(version));
  }
  if (ce.scenario.empty()) {
    return fail("missing scenario");
  }
  *out = std::move(ce);
  return true;
}

bool Counterexample::WriteFile(const std::string& path,
                               std::string* error) const {
  // LINT-ALLOW(durability-io): counterexample JSON is a developer artifact
  // exchanged with mc_replay, not durable protocol state.
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  f << ToJson();
  return f.good();
}

bool Counterexample::ReadFile(const std::string& path, Counterexample* out,
                              std::string* error) {
  // LINT-ALLOW(durability-io): reads the developer-facing counterexample.
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return FromJson(ss.str(), out, error);
}

}  // namespace scatter::mc
