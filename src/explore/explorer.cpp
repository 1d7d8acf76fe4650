#include "explore/explorer.h"

#include <algorithm>
#include <set>
#include <utility>

#include "api/cluster.h"
#include "common/ensure.h"
#include "common/strings.h"

namespace wfd {

const char* fuzzOracleName(FuzzOracle oracle) {
  switch (oracle) {
    case FuzzOracle::kSpec:
      return "spec";
    case FuzzOracle::kStrictTob:
      return "strict-tob";
  }
  return "?";
}

bool parseFuzzOracle(const std::string& name, FuzzOracle* out) {
  for (FuzzOracle oracle : {FuzzOracle::kSpec, FuzzOracle::kStrictTob}) {
    if (name == fuzzOracleName(oracle)) {
      *out = oracle;
      return true;
    }
  }
  return false;
}

ScenarioRunResult runFuzzPlan(const FuzzPlan& plan, FuzzOracle oracle) {
  Scenario s = planScenario(plan);
  // Strong TOB is judged only on the stacks with a delivery sequence.
  s.checks.requireStrongTob = oracle == FuzzOracle::kStrictTob;
  // Plans lower through the same facade path everything else drives:
  // runScenario builds one Cluster, batch-steps it to its horizon, and
  // judges it by the stack's spec.
  return runScenario(s, plan.simSeed);
}

std::vector<std::string> failureKeys(const ScenarioRunResult& result) {
  std::set<std::string> keys;
  for (const std::string& failure : result.failures) {
    keys.insert(failure.substr(0, failure.find(" (")));
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

namespace {

bool keySetsIntersect(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  for (const std::string& k : a) {
    if (std::find(b.begin(), b.end(), k) != b.end()) return true;
  }
  return false;
}

/// All single-step reductions of `plan`, in the fixed order the shrinker
/// tries them. Every candidate re-derives its horizon so shrunken plans
/// also get cheaper to run.
std::vector<FuzzPlan> reductionCandidates(const FuzzPlan& plan) {
  std::vector<FuzzPlan> out;
  auto add = [&out](FuzzPlan p) {
    p.maxTime = planHorizon(p);
    out.push_back(std::move(p));
  };

  // Drop or advance each crash.
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    FuzzPlan p = plan;
    p.crashes.erase(p.crashes.begin() + static_cast<std::ptrdiff_t>(i));
    add(std::move(p));
  }
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    if (plan.crashes[i].time == 0) continue;
    FuzzPlan p = plan;
    p.crashes[i].time /= 2;
    add(std::move(p));
  }

  // Drop whole network layers.
  for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
    FuzzPlan p = plan;
    p.partitions.erase(p.partitions.begin() + static_cast<std::ptrdiff_t>(i));
    add(std::move(p));
  }
  if (plan.chaos.dupNum > 0) {
    FuzzPlan p = plan;
    p.chaos = PlanChaos{};
    add(std::move(p));
  }
  if (!plan.skews.empty()) {
    FuzzPlan p = plan;
    p.skews.clear();
    add(std::move(p));
  }
  if (plan.slowLink.process != kNoProcess) {
    FuzzPlan p = plan;
    p.slowLink = PlanSlowLink{};
    add(std::move(p));
  }
  if (plan.loss.enabled()) {
    // Drop the whole fair-lossy genome first (also disarms the
    // retransmission layer), then each sub-layer on its own.
    FuzzPlan p = plan;
    p.loss = PlanLoss{};
    add(std::move(p));
    if (plan.loss.burstPeriod > 0) {
      FuzzPlan q = plan;
      q.loss.burstPeriod = 0;
      q.loss.burstLen = 0;
      if (q.loss.lossNum == 0) q.loss.activeUntil = 0;
      add(std::move(q));
    }
    if (plan.loss.oneWayFrom != kNoProcess) {
      FuzzPlan q = plan;
      q.loss.oneWayFrom = kNoProcess;
      q.loss.oneWayStart = 0;
      q.loss.oneWayWidth = 0;
      q.loss.oneWayPeriod = 0;
      add(std::move(q));
    }
    if (plan.loss.lossNum > 0 && plan.loss.activeUntil > 1) {
      FuzzPlan q = plan;
      q.loss.activeUntil /= 2;
      add(std::move(q));
    }
  }

  // Tighten what remains: narrower windows, one-shot instead of
  // recurring, calmer chaos.
  for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
    if (plan.partitions[i].width > 1) {
      FuzzPlan p = plan;
      p.partitions[i].width /= 2;
      add(std::move(p));
    }
    if (plan.partitions[i].period != 0) {
      FuzzPlan p = plan;
      p.partitions[i].period = 0;
      add(std::move(p));
    }
  }
  if (plan.chaos.dupNum > 0 && plan.chaos.maxExtraCopies > 1) {
    FuzzPlan p = plan;
    p.chaos.maxExtraCopies = 1;
    add(std::move(p));
  }
  if (plan.chaos.reorderJitter > 1) {
    FuzzPlan p = plan;
    p.chaos.reorderJitter /= 2;
    add(std::move(p));
  }

  // Shorten the workload and the detector's unstable phase.
  if (plan.workload.perProcess > 1) {
    FuzzPlan p = plan;
    p.workload.perProcess /= 2;
    add(std::move(p));
  }
  if (plan.workload.causalChain || plan.workload.crossDeps) {
    FuzzPlan p = plan;
    p.workload.causalChain = false;
    p.workload.crossDeps = false;
    add(std::move(p));
  }
  if (plan.tauOmega > 1) {
    FuzzPlan p = plan;
    p.tauOmega /= 2;
    add(std::move(p));
  }
  if (plan.ecInstances > 1) {
    FuzzPlan p = plan;
    p.ecInstances /= 2;
    add(std::move(p));
  }

  // Drop the highest process, when nothing references it.
  if (plan.processCount > 2) {
    const ProcessId last = plan.processCount - 1;
    bool referenced = false;
    for (const PlanCrash& c : plan.crashes) referenced |= c.process == last;
    for (const PlanPartition& p : plan.partitions) {
      referenced |= p.isolate == last;
    }
    referenced |= plan.chaos.onlyTouching == last;
    referenced |= plan.slowLink.process == last;
    referenced |= plan.loss.oneWayFrom == last;
    if (!referenced) {
      FuzzPlan p = plan;
      --p.processCount;
      if (!p.skews.empty()) p.skews.pop_back();
      add(std::move(p));
    }
  }
  return out;
}

}  // namespace

ShrinkResult shrinkFuzzPlan(const FuzzPlan& failing, FuzzOracle oracle,
                            std::uint64_t maxAttempts,
                            const ScenarioRunResult* knownResult,
                            const std::function<bool()>& keepGoing) {
  ShrinkResult best;
  best.plan = failing;
  // The unshrunk plan is the largest plan the shrinker will ever execute;
  // callers that just ran it (runCampaign) pass the result in to skip the
  // most expensive re-simulation.
  best.result = knownResult != nullptr ? *knownResult
                                       : runFuzzPlan(failing, oracle);
  WFD_ENSURE_MSG(!best.result.pass, "shrinkFuzzPlan needs a failing plan");
  const std::vector<std::string> targetKeys = failureKeys(best.result);

  bool progressed = true;
  while (progressed && best.attempts < maxAttempts) {
    progressed = false;
    for (FuzzPlan& candidate : reductionCandidates(best.plan)) {
      if (best.attempts >= maxAttempts) break;
      // A caller-imposed wall-clock budget also bounds shrinking (the
      // CLI's --time-budget contract): stop and keep the best-so-far
      // minimal plan instead of overrunning into an external timeout.
      if (keepGoing && !keepGoing()) return best;
      if (!planAdmissibilityViolations(candidate).empty()) continue;
      ++best.attempts;
      ScenarioRunResult r = runFuzzPlan(candidate, oracle);
      if (r.pass || !keySetsIntersect(failureKeys(r), targetKeys)) continue;
      best.plan = std::move(candidate);
      best.result = std::move(r);
      ++best.accepted;
      progressed = true;
      break;  // restart the pass list from the smaller plan
    }
  }
  return best;
}

CorpusEntry makeCorpusEntry(std::string name, std::string foundBy,
                            const FuzzPlan& plan, FuzzOracle oracle,
                            const ScenarioRunResult* knownResult) {
  CorpusEntry entry;
  entry.name = std::move(name);
  entry.foundBy = std::move(foundBy);
  entry.oracle = fuzzOracleName(oracle);
  entry.plan = plan;
  const ScenarioRunResult result =
      knownResult != nullptr ? *knownResult : runFuzzPlan(plan, oracle);
  entry.expect.pass = result.pass;
  entry.expect.failureKeys = failureKeys(result);
  entry.expect.digests.emplace_back(stdlibTag(), result.digest);
  return entry;
}

bool replayCorpusEntry(const CorpusEntry& entry, std::string* whyNot) {
  FuzzOracle oracle = FuzzOracle::kSpec;
  WFD_ENSURE(parseFuzzOracle(entry.oracle, &oracle));
  const ScenarioRunResult result = runFuzzPlan(entry.plan, oracle);
  bool ok = true;
  auto mismatch = [&ok, whyNot](const std::string& why) {
    ok = false;
    if (whyNot != nullptr) {
      if (!whyNot->empty()) *whyNot += "; ";
      *whyNot += why;
    }
  };

  // Outcome comparison is only meaningful on a standard library the
  // entry was recorded against: the simulated schedule draws from
  // std::uniform_int_distribution, whose algorithm is implementation-
  // defined, so on another stdlib a schedule-sensitive witness can
  // legitimately pass (or fail differently). An entry with NO recorded
  // digests opts into outcome checks everywhere (its author asserts the
  // outcome is schedule-independent, e.g. a hand-written plan).
  bool outcomeComparable = entry.expect.digests.empty();
  for (const auto& [tag, digest] : entry.expect.digests) {
    if (tag != stdlibTag()) continue;
    outcomeComparable = true;
    if (digest != result.digest) {
      mismatch(std::string("digest for ") + tag + " differs: expected " +
               hex64(digest) + " got " + hex64(result.digest));
    }
  }
  if (!outcomeComparable) return ok;  // decoded + simulated cleanly

  if (result.pass != entry.expect.pass) {
    mismatch(std::string("expected pass=") +
             (entry.expect.pass ? "true" : "false") + " but run " +
             (result.pass ? "passed" : "failed"));
  }
  const std::vector<std::string> keys = failureKeys(result);
  if (keys != entry.expect.failureKeys) {
    mismatch("failure keys differ: expected [" +
             join(entry.expect.failureKeys, ", ") + "] got [" +
             join(keys, ", ") + "]");
  }
  return ok;
}

}  // namespace wfd
