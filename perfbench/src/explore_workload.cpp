// The explorer workload: wfd_explore's per-run pipeline on one thread,
// under the spec oracle, round-robin over all five stacks.
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "common/hash.h"
#include "workloads.h"

namespace perfbench {

wfd::FuzzPlan benchPlan(const ExploreShape& shape, wfd::AlgoStack stack,
                        std::uint64_t seed, std::uint64_t index) {
  wfd::FuzzPlan plan = wfd::sampleFuzzPlan(stack, shape.masterSeed, index);
  // The genome (cluster size, faults, horizon) is fixed by the master
  // seed, so every seed does comparable work; the workload seed draws the
  // schedule. Any simSeed keeps the plan admissible.
  plan.simSeed = wfd::derivePlanSeed(seed, stack, index);
  return plan;
}

wfd::ScenarioRunResult runPlanPipeline(const wfd::FuzzPlan& plan,
                                       Tracer& tracer, std::int64_t request,
                                       std::int32_t lane, PlanWork* work) {
  wfd::Scenario scenario;
  std::unique_ptr<wfd::ScenarioInstance> inst;
  {
    auto s = tracer.span("scenario.lower", request, lane);
    scenario = wfd::planScenario(plan);
    inst = std::make_unique<wfd::ScenarioInstance>(
        wfd::instantiateScenario(scenario, plan.simSeed));
  }
  {
    auto s = tracer.span("api.runToHorizon", request, lane);
    inst->cluster->runToHorizon();
  }
  wfd::ScenarioRunResult r;
  {
    auto s = tracer.span("checkers.evaluateScenarioRun", request, lane);
    r = wfd::evaluateScenarioRun(scenario, plan.simSeed, *inst->cluster);
  }
  if (work != nullptr) {
    const wfd::Simulator& sim = *inst->sim;
    work->events += sim.eventsProcessed();
    work->msgs += sim.trace().messagesSent();
    work->weight += sim.trace().weightSent();
    work->retransmits += sim.linkRetransmissions();
    work->acks += sim.linkAcksScheduled();
    work->dropped += sim.linkDroppedSends();
  }
  return r;
}

RepOutcome runExploreRep(const ExploreShape& w, std::uint64_t seed,
                         Tracer& tracer) {
  RepOutcome out;

  // Set-up: lower and instantiate plan 0 of every stack, what a campaign
  // pays before its first simulated event. Only the last sample is traced.
  Tracer quiet(false);
  std::vector<double> setup;
  for (int k = 0; k < kSetupSamples; ++k) {
    Tracer& tr = k + 1 == kSetupSamples ? tracer : quiet;
    const auto t0 = Clock::now();
    auto s = tr.span("bench.setup");
    for (wfd::AlgoStack stack : wfd::kAllAlgoStacks) {
      const wfd::FuzzPlan plan = benchPlan(w, stack, seed, 0);
      const wfd::ScenarioInstance inst =
          wfd::instantiateScenario(wfd::planScenario(plan), plan.simSeed);
    }
    setup.push_back(secondsSince(t0));
  }
  out.setupSeconds = median(setup);

  PlanWork work;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto w0 = Clock::now();
  {
    auto s = tracer.span("bench.window");
    for (std::uint64_t i = 0; i < w.plansPerStack; ++i) {
      for (std::size_t k = 0; k < std::size(wfd::kAllAlgoStacks); ++k) {
        const wfd::AlgoStack stack = wfd::kAllAlgoStacks[k];
        const auto request = static_cast<std::int64_t>(out.completed);
        const auto lane = static_cast<std::int32_t>(k);
        wfd::FuzzPlan plan;
        {
          auto sp = tracer.span("explore.sampleFuzzPlan", request, lane);
          plan = benchPlan(w, stack, seed, i);
        }
        const wfd::ScenarioRunResult r =
            runPlanPipeline(plan, tracer, request, lane, &work);
        digest = wfd::fnv1a64Words({digest, r.digest, r.pass ? 1u : 0u});
        ++out.completed;
        if (!r.pass) {
          ++out.failed;
          out.problems.push_back(std::string("spec oracle: ") +
                                 wfd::algoStackName(stack) + " plan " +
                                 std::to_string(i) + ": " +
                                 (r.failures.empty() ? "" : r.failures.front()));
        }
      }
    }
  }
  out.windowSeconds = secondsSince(w0);
  out.attempted = out.completed;
  out.digest = digest;

  const double plans = static_cast<double>(std::max<std::uint64_t>(out.completed, 1));
  auto& c = out.counters;
  c["sim.events_per_op"] = static_cast<double>(work.events) / plans;
  c["sim.msgs_per_op"] = static_cast<double>(work.msgs) / plans;
  c["sim.weight_per_op"] = static_cast<double>(work.weight) / plans;
  c["link.retransmits_per_op"] = static_cast<double>(work.retransmits) / plans;
  c["link.acks_per_op"] = static_cast<double>(work.acks) / plans;
  c["link.dropped_sends"] = static_cast<double>(work.dropped);
  out.figures.push_back(
      {"failed_ops_ratio", static_cast<double>(out.failed) / plans, "ratio",
       std::to_string(out.failed) + " of " + std::to_string(out.completed) +
           " plans violate the spec oracle"});
  return out;
}

}  // namespace perfbench
