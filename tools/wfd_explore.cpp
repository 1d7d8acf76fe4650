// wfd_explore — randomized schedule exploration against the checker
// oracles, with counterexample shrinking and corpus replay.
//
//   wfd_explore --stack all --runs 200 --seed 1
//       sample 200 admissible FuzzPlans per stack from seed 1, run each
//       under the stack's spec oracle, shrink any violation; one JSON
//       line per run, then the violations, one coverage line and one
//       summary line per stack (stdout carries no timing, so equal
//       invocations are byte-identical).
//   wfd_explore --stack etob --oracle strict-tob --runs 50 --seed 7
//               --corpus-dir tests/corpus           (one command line)
//       additionally assert strong TOB (tau-hat == 0): violations are
//       EXPECTED under pre-stabilization disagreement; each is shrunk to
//       a minimal separation witness and saved as a corpus entry.
//   wfd_explore --stack all --runs 2000 --seed 1 --generations 2 --jobs 8
//       every invocation is a campaign (src/explore/campaign.h):
//       generation 0 is the sampled plan stream, each later generation
//       mutates rare-coverage plans (--mutations per generation, default
//       runs / 4); --jobs worker threads (1 to 256) claim the runs in
//       index order. Output is byte-identical for every --jobs value —
//       the report depends only on (stack, seed, runs, generations,
//       mutations, genomes), never on thread scheduling.
//   wfd_explore --replay tests/corpus/foo.json
//       re-run a saved plan and verify it reproduces its recorded
//       outcome (failure keys always; digest when pinned for this
//       build's stdlib). This is what the corpus_replay_* ctest
//       targets run. A directory replays every *.json inside it in
//       SORTED order (readdir order is filesystem-defined).
//   wfd_explore --time-budget 60 ...
//       wall-clock cap per stack, checked before every run (truncates
//       the run sequence; the runs that execute are still the
//       deterministic prefix, and every run started is kept, at any
//       --jobs) — the one flag that breaks byte-identity across
//       invocations.
//
// Exit status: 0 iff every executed run met its oracle (spec mode), no
// shrink invariant broke (strict mode exits 1 when violations were
// found, since they were requested for harvesting — check the corpus
// files instead), and every --replay matched its expectation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "explore/campaign.h"
#include "explore/explorer.h"
#include "explore/plan_codec.h"

namespace {

/// Upper bound of --jobs: far above any core count the campaign is run
/// on, and low enough that a typo cannot start millions of threads.
constexpr std::uint64_t kMaxJobs = 256;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --stack <name|all> [--runs N] [--seed S]\n"
      "       [--oracle spec|strict-tob] [--no-shrink] [--time-budget SEC]\n"
      "       [--corpus-dir DIR] [--jobs N] [--generations N] [--mutations N]\n"
      "       [--big-cluster-max-n N] [--loss-genome]\n"
      "       %s --replay <plan-or-corpus.json | corpus-dir>\n"
      "       %s --list-stacks\n",
      argv0, argv0, argv0);
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
  std::string stackArg;
  std::string replayPath;
  std::string corpusDir;
  std::uint64_t timeBudgetSec = 0;
  bool listStacks = false;
  // Every campaign flag defaults to CampaignOptions' default.
  wfd::CampaignOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--stack") {
      stackArg = next();
    } else if (arg == "--runs") {
      options.runs = parseU64("--runs", next());
    } else if (arg == "--seed") {
      options.seed = parseU64("--seed", next());
    } else if (arg == "--oracle") {
      const char* name = next();
      if (!wfd::parseFuzzOracle(name, &options.oracle)) {
        std::fprintf(stderr, "--oracle: unknown oracle '%s'\n", name);
        return 2;
      }
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--jobs") {
      const std::uint64_t jobs = parseU64("--jobs", next());
      if (jobs < 1 || jobs > kMaxJobs) {
        std::fprintf(stderr, "--jobs: must be in [1, %llu]\n",
                     static_cast<unsigned long long>(kMaxJobs));
        return 2;
      }
      options.jobs = static_cast<unsigned>(jobs);
    } else if (arg == "--generations") {
      options.generations = parseU64("--generations", next());
      if (options.generations == 0) {
        std::fprintf(stderr, "--generations: must be >= 1\n");
        return 2;
      }
    } else if (arg == "--mutations") {
      options.mutationsPerGeneration = parseU64("--mutations", next());
    } else if (arg == "--big-cluster-max-n") {
      options.bigClusterMaxN = parseU64("--big-cluster-max-n", next());
    } else if (arg == "--loss-genome") {
      options.lossGenome = true;
    } else if (arg == "--time-budget") {
      timeBudgetSec = parseU64("--time-budget", next());
    } else if (arg == "--corpus-dir") {
      corpusDir = next();
    } else if (arg == "--replay") {
      replayPath = next();
    } else if (arg == "--list-stacks") {
      listStacks = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (listStacks) {
    for (wfd::AlgoStack stack : wfd::kAllAlgoStacks) {
      std::printf("%s\n", wfd::algoStackName(stack));
    }
    return 0;
  }

  if (!replayPath.empty()) {
    std::vector<std::string> paths;
    if (std::filesystem::is_directory(replayPath)) {
      std::string error;
      std::optional<std::vector<std::string>> files =
          wfd::listCorpusFiles(replayPath, &error);
      if (!files) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 2;
      }
      paths = std::move(*files);
    } else {
      paths.push_back(replayPath);
    }
    bool allOk = true;
    for (const std::string& path : paths) {
      std::string error;
      std::optional<wfd::CorpusEntry> entry = wfd::loadCorpusFile(path, &error);
      if (!entry) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 2;
      }
      std::string whyNot;
      const bool ok = wfd::replayCorpusEntry(*entry, &whyNot);
      wfd::Json line = wfd::Json::object();
      line.set("replay", wfd::Json::str(entry->name));
      line.set("match", wfd::Json::boolean(ok));
      std::printf("%s\n", line.dump().c_str());
      if (!ok) std::fprintf(stderr, "replay mismatch: %s\n", whyNot.c_str());
      allOk = allOk && ok;
    }
    return allOk ? 0 : 1;
  }

  if (stackArg.empty()) {
    usage(argv[0]);
    return 2;
  }
  std::vector<wfd::AlgoStack> stacks;
  if (stackArg == "all") {
    stacks.assign(std::begin(wfd::kAllAlgoStacks), std::end(wfd::kAllAlgoStacks));
  } else {
    wfd::AlgoStack one;
    if (!wfd::parseAlgoStack(stackArg, &one)) {
      std::fprintf(stderr, "unknown stack '%s' (try --list-stacks)\n",
                   stackArg.c_str());
      return 2;
    }
    stacks.push_back(one);
  }

  std::uint64_t totalViolations = 0;
  std::uint64_t corpusSaved = 0;
  const std::string oracleName = wfd::fuzzOracleName(options.oracle);
  for (wfd::AlgoStack stack : stacks) {
    options.stack = stack;

    std::function<bool()> keepGoing;
    if (timeBudgetSec > 0) {
      // Elapsed whole seconds against the budget, both as uint64: a
      // deadline of now() + budget would overflow the clock for huge
      // budgets and wrap into the past.
      keepGoing = [start = std::chrono::steady_clock::now(), timeBudgetSec]() {
        const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start);
        return static_cast<std::uint64_t>(elapsed.count()) < timeBudgetSec;
      };
    }

    const wfd::CampaignReport report = wfd::runCampaign(options, keepGoing);
    totalViolations += report.violations.size();

    for (const wfd::CampaignRunRecord& rec : report.runs) {
      std::printf("%s\n", wfd::campaignRunJsonLine(rec).c_str());
    }
    for (const wfd::CampaignViolation& v : report.violations) {
      // The shrunken witness, inline (stderr-free so byte-stable).
      wfd::Json line = wfd::Json::object();
      line.set("violation_generation", wfd::Json::number(v.generation));
      line.set("violation_run", wfd::Json::number(v.index));
      line.set("stack", wfd::Json::str(wfd::algoStackName(stack)));
      wfd::Json keys = wfd::Json::array();
      for (const std::string& k : wfd::failureKeys(v.result)) {
        keys.push(wfd::Json::str(k));
      }
      line.set("failure_keys", std::move(keys));
      line.set("shrink_attempts", wfd::Json::number(v.shrunken.attempts));
      line.set("shrink_accepted", wfd::Json::number(v.shrunken.accepted));
      line.set("shrunken_plan", wfd::encodeFuzzPlan(v.shrunken.plan));
      std::printf("%s\n", line.dump().c_str());

      if (!corpusDir.empty()) {
        const std::string name =
            std::string(wfd::algoStackName(stack)) + "-" + oracleName +
            "-seed" + std::to_string(options.seed) + "-gen" +
            std::to_string(v.generation) + "-run" + std::to_string(v.index);
        const std::string foundBy =
            std::string("wfd_explore --stack ") + wfd::algoStackName(stack) +
            " --oracle " + oracleName + " --seed " +
            std::to_string(options.seed) + " --runs " +
            std::to_string(options.runs) + " --generations " +
            std::to_string(options.generations);
        const wfd::CorpusEntry entry =
            wfd::makeCorpusEntry(name, foundBy, v.shrunken.plan,
                                 options.oracle, &v.shrunken.result);
        const std::string path = corpusDir + "/" + name + ".json";
        if (wfd::saveCorpusFile(path, entry)) {
          ++corpusSaved;
          std::fprintf(stderr, "saved corpus entry %s\n", path.c_str());
        } else {
          std::fprintf(stderr, "FAILED to save corpus entry %s\n",
                       path.c_str());
        }
      }
    }

    std::printf("%s\n", wfd::campaignCoverageJsonLine(stack, report).c_str());

    wfd::Json summary = wfd::Json::object();
    summary.set("summary", wfd::Json::str(wfd::algoStackName(stack)));
    summary.set("oracle", wfd::Json::str(oracleName));
    summary.set("seed", wfd::Json::number(options.seed));
    summary.set("generations", wfd::Json::number(options.generations));
    summary.set("runs_executed", wfd::Json::number(report.runs.size()));
    summary.set("violations", wfd::Json::number(report.violations.size()));
    std::printf("%s\n", summary.dump().c_str());
    std::fflush(stdout);
  }

  if (!corpusDir.empty()) {
    std::fprintf(stderr, "corpus entries saved: %llu\n",
                 static_cast<unsigned long long>(corpusSaved));
  }
  return totalViolations == 0 ? 0 : 1;
}
