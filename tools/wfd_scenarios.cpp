// wfd_scenarios — run the scenario catalog from the command line.
//
//   wfd_scenarios --list                       # one scenario name per line
//   wfd_scenarios --describe                   # names + descriptions
//   wfd_scenarios --scenario NAME              # one run, seed 1
//   wfd_scenarios --scenario all --seed-count 3
//   wfd_scenarios --scenario NAME --seed 7     # one specific seed
//   wfd_scenarios --scenario all --stack etob  # only one stack's entries
//
// --stack <name> (mirroring wfd_explore --stack) filters whatever
// selection the other flags made — including --list/--describe — to the
// catalog entries of one protocol stack.
//
// Every run prints exactly one JSON line on stdout (schema: the fields of
// ScenarioRunResult, sharded keys only for sharded entries; see
// docs/SCENARIOS.md).
// Exit status is 0 iff every executed run passed its scenario's checker
// set — which is what makes each catalog entry a regression test the CI
// smoke jobs can sweep.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.h"
#include "scenario/scenario.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --list | --describe |\n"
               "       %s --scenario <name|all> [--stack <name>]\n"
               "       [--seed-count N] [--seed S]\n",
               argv0, argv0);
}

std::uint64_t parseU64(const char* flag, const char* text) {
  std::uint64_t value = 0;
  if (!wfd::parseDecimalU64(text, &value)) {
    std::fprintf(stderr, "%s: not a non-negative number: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool describe = false;
  std::string scenarioArg;
  std::string stackArg;
  std::uint64_t seedCount = 1;
  std::uint64_t firstSeed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--describe") {
      describe = true;
    } else if (arg == "--scenario") {
      scenarioArg = next();
    } else if (arg == "--stack") {
      stackArg = next();
    } else if (arg == "--seed-count") {
      seedCount = parseU64("--seed-count", next());
    } else if (arg == "--seed") {
      firstSeed = parseU64("--seed", next());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  bool filterByStack = false;
  wfd::AlgoStack stackFilter = wfd::AlgoStack::kEtob;
  if (!stackArg.empty() && stackArg != "all") {
    if (!wfd::parseAlgoStack(stackArg, &stackFilter)) {
      std::fprintf(stderr, "--stack: unknown stack '%s' (one of:", stackArg.c_str());
      for (wfd::AlgoStack s : wfd::kAllAlgoStacks) {
        std::fprintf(stderr, " %s", wfd::algoStackName(s));
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    filterByStack = true;
  }
  const auto selected = [&](const wfd::Scenario& s) {
    return !filterByStack || s.stack == stackFilter;
  };

  const auto& catalog = wfd::scenarioCatalog();

  if (list) {
    for (const wfd::Scenario& s : catalog) {
      if (selected(s)) std::printf("%s\n", s.name.c_str());
    }
    return 0;
  }
  if (describe) {
    for (const wfd::Scenario& s : catalog) {
      if (!selected(s)) continue;
      const std::string shards =
          s.shards > 0 ? "S=" + std::to_string(s.shards) + " x " : "";
      std::printf("%-24s [%s, %sn=%zu] %s\n", s.name.c_str(),
                  wfd::algoStackName(s.stack), shards.c_str(),
                  s.config.processCount, s.description.c_str());
    }
    return 0;
  }
  if (scenarioArg.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (seedCount == 0) {
    std::fprintf(stderr, "--seed-count must be >= 1\n");
    return 2;
  }

  std::vector<const wfd::Scenario*> runs;
  if (scenarioArg == "all") {
    for (const wfd::Scenario& s : catalog) {
      if (selected(s)) runs.push_back(&s);
    }
  } else if (const wfd::Scenario* s = wfd::findScenario(scenarioArg)) {
    if (!selected(*s)) {
      std::fprintf(stderr, "scenario '%s' is not a %s scenario\n",
                   scenarioArg.c_str(), wfd::algoStackName(stackFilter));
      return 2;
    }
    runs.push_back(s);
  } else {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                 scenarioArg.c_str());
    return 2;
  }

  bool allPassed = true;
  for (const wfd::Scenario* s : runs) {
    for (std::uint64_t k = 0; k < seedCount; ++k) {
      const wfd::ScenarioRunResult r = wfd::runScenario(*s, firstSeed + k);
      std::printf("%s\n", wfd::toJsonLine(r).c_str());
      std::fflush(stdout);
      allPassed = allPassed && r.pass;
    }
  }
  return allPassed ? 0 : 1;
}
