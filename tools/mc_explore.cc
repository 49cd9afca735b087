// mc_explore: command-line front end of the model-checking explorer.
//
//   mc_explore --scenario split --max-schedules 2000
//
// Prints one line of JSON exploration statistics to stdout (the CI smoke
// stage and scripts/bench_snapshot.sh parse it). Exits 0 when the run
// matched expectations: by default that means "no violation found"; with
// --expect-violation it means one was found (mutation hunts).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/mc/explorer.h"
#include "src/mc/scenario.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: mc_explore --scenario NAME [options]\n"
               "  --seed N                           cluster seed (default 1)\n"
               "  --budget-seconds S                 wall budget (default 30)\n"
               "  --max-schedules N                  (default 1000000)\n"
               "  --max-depth N                      decisions/schedule (default 40)\n"
               "  --walk-seed N                      random-walk seed (default 1)\n"
               "  --counterexample PATH|none         artifact path\n"
               "  --expect-violation                 exit 0 iff a violation was found\n"
               "  --list                             list scenarios and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  using scatter::mc::McOptions;

  std::string scenario;
  McOptions options;
  bool expect_violation = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(64);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--budget-seconds") {
      options.wall_budget_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--max-schedules") {
      options.max_schedules = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-depth") {
      options.max_depth = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--walk-seed") {
      options.walk_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--counterexample") {
      const std::string path = next();
      options.counterexample_path = path == "none" ? "" : path;
    } else if (arg == "--expect-violation") {
      expect_violation = true;
    } else if (arg == "--list") {
      for (const std::string& name : scatter::mc::ScenarioNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      Usage();
      return 64;
    }
  }
  if (scenario.empty()) {
    Usage();
    return 64;
  }

  const scatter::mc::ExploreStats stats =
      scatter::mc::Explore(scenario, options);
  std::printf("%s\n", stats.ToJson().c_str());
  if (stats.violation_found && !options.counterexample_path.empty()) {
    std::fprintf(stderr, "counterexample written to %s\n",
                 options.counterexample_path.c_str());
  }
  return stats.violation_found == expect_violation ? 0 : 1;
}
