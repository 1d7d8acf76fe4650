// The benchmark's own tests (perfbench --selftest), on shortened
// workloads:
//  * a seed repeats its digest and every work counter exactly, and so
//    does the traced run (tracing never perturbs);
//  * another seed changes the digest but not the verdict;
//  * the explorer recomposition equals runFuzzPlan by digest and verdict;
//  * mutation: a forged uncommitted read and a put left pending each
//    make the failure accounting report failed ops.
#include <cstdio>
#include <string>

#include "explore/explorer.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool sameRun(const RepOutcome& a, const RepOutcome& b) {
  return a.digest == b.digest && a.counters == b.counters &&
         a.completed == b.completed && a.failed == b.failed;
}

void testKv(const WorkloadDef& def) {
  KvShape shape = def.kv;
  shape.puts = 96 * shape.shards;  // shortened; keeps the crash schedule
  const std::string name = def.name;
  const std::uint64_t seed = def.defaultSeed;

  Tracer off(false);
  KvLog log;
  const RepOutcome a = runKvRep(shape, seed, off, true, &log);
  const RepOutcome b = runKvRep(shape, seed, off, true);
  expect(a.problems.empty() && a.failed == 0 && a.completed == shape.puts,
         name + ": every put commits and the sharded_kv checker passes");
  expect(sameRun(a, b), name + ": a seed repeats its digest and counters exactly");

  Tracer on(true);
  const RepOutcome traced = runKvRep(shape, seed, on, true);
  expect(sameRun(a, traced) && !on.spans().empty(),
         name + ": the traced run is digest- and counter-identical");

  const RepOutcome other = runKvRep(shape, seed + 1, off, true);
  expect(other.digest != a.digest && other.problems.empty() && other.failed == 0,
         name + ": another seed changes the digest, not the verdict");

  KvLog pending = log;
  for (std::size_t op : pending.attempts.front()) pending.ops[op].committed = false;
  expect(countKvFailures(log).failed() == 0 && countKvFailures(pending).failed() > 0,
         name + ": a put left pending counts as a failed op");

  if (shape.getsPerPut > 0) {
    KvLog forged = log;
    bool found = false;
    for (wfd::RouterOp& op : forged.ops) {
      if (op.kind == wfd::RouterOp::Kind::kGet && op.hasValue) {
        op.value = 0xdeadbeefULL;  // no put ever wrote this value
        found = true;
        break;
      }
    }
    expect(found && countKvFailures(forged).failed() > 0,
           name + ": a forged uncommitted read counts as a failed op");
  }
}

void testExplore(const WorkloadDef& def) {
  ExploreShape shape = def.explore;
  shape.plansPerStack = 4;
  const std::string name = def.name;
  const std::uint64_t seed = def.defaultSeed;

  Tracer off(false);
  for (wfd::AlgoStack stack : wfd::kAllAlgoStacks) {
    bool same = true;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const wfd::FuzzPlan plan = benchPlan(shape, stack, seed, i);
      const wfd::ScenarioRunResult mine = runPlanPipeline(plan, off, -1, -1, nullptr);
      const wfd::ScenarioRunResult ref = wfd::runFuzzPlan(plan, wfd::FuzzOracle::kSpec);
      same = same && mine.digest == ref.digest && mine.pass == ref.pass &&
             mine.failures == ref.failures;
    }
    expect(same, name + ": recomposition equals runFuzzPlan on " +
                     wfd::algoStackName(stack));
  }

  const RepOutcome a = runExploreRep(shape, seed, off);
  const RepOutcome b = runExploreRep(shape, seed, off);
  expect(a.problems.empty() && a.failed == 0, name + ": the spec oracle holds");
  expect(sameRun(a, b), name + ": a seed repeats its digest and counters exactly");
  Tracer on(true);
  expect(sameRun(a, runExploreRep(shape, seed, on)) && !on.spans().empty(),
         name + ": the traced run is digest- and counter-identical");
  const RepOutcome other = runExploreRep(shape, seed + 1, off);
  expect(other.digest != a.digest && other.problems.empty(),
         name + ": another seed changes the digest, not the verdict");
}

}  // namespace

int runSelfTests() {
  for (const WorkloadDef& def : workloads()) {
    if (def.isKv) {
      testKv(def);
    } else {
      testExplore(def);
    }
  }
  std::printf("%s: %d failed\n", failures == 0 ? "selftest OK" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
