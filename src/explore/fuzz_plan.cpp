#include "explore/fuzz_plan.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/ensure.h"
#include "common/hash.h"
#include "explore/plan_codec.h"
#include "sim/lossy_model.h"

namespace wfd {

const char* omegaModeName(OmegaPreStabilization mode) {
  switch (mode) {
    case OmegaPreStabilization::kStable:
      return "stable";
    case OmegaPreStabilization::kRotating:
      return "rotating";
    case OmegaPreStabilization::kSplitBrain:
      return "split-brain";
  }
  return "?";
}

bool parseOmegaMode(const std::string& name, OmegaPreStabilization* out) {
  for (OmegaPreStabilization mode :
       {OmegaPreStabilization::kStable, OmegaPreStabilization::kRotating,
        OmegaPreStabilization::kSplitBrain}) {
    if (name == omegaModeName(mode)) {
      *out = mode;
      return true;
    }
  }
  return false;
}

namespace {

std::size_t stackIndex(AlgoStack stack) {
  return static_cast<std::size_t>(stack);
}

// The draws the sampler and the mutator share, each in one fixed order.

PlanChaos drawChaos(Rng& rng, std::size_t n) {
  PlanChaos chaos;
  chaos.dupNum = 1;
  chaos.dupDen = static_cast<std::uint32_t>(rng.between(2, 4));
  chaos.maxExtraCopies = static_cast<std::uint32_t>(rng.between(1, 3));
  chaos.reorderJitter = rng.between(10, 80);
  chaos.onlyTouching = rng.chance(1, 3) ? rng.below(n) : kNoProcess;
  return chaos;
}

std::vector<PlanSkew> drawSkews(Rng& rng, std::size_t n) {
  static constexpr PlanSkew kSkewMenu[] = {{1, 1}, {2, 1}, {3, 1},
                                           {1, 2}, {2, 3}, {3, 2}};
  std::vector<PlanSkew> skews;
  skews.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    skews.push_back(kSkewMenu[rng.below(std::size(kSkewMenu))]);
  }
  return skews;
}

PlanSlowLink drawSlowLink(Rng& rng, std::size_t n) {
  PlanSlowLink link;
  link.process = rng.below(n);
  link.factor = rng.between(2, 4);
  return link;
}

PlanPartition drawOneShotPartition(Rng& rng, std::size_t n) {
  PlanPartition part;  // period 0: one-shot
  part.start = rng.between(200, 3000);
  part.width = rng.between(100, 800);
  part.isolate = rng.chance(1, 3) ? kNoProcess : rng.below(n);
  return part;
}

void sortCrashes(std::vector<PlanCrash>& crashes) {
  std::sort(crashes.begin(), crashes.end(),
            [](const PlanCrash& a, const PlanCrash& b) {
              return a.process < b.process;
            });
}

}  // namespace

std::uint64_t derivePlanSeed(std::uint64_t masterSeed, AlgoStack stack,
                             std::uint64_t runIndex) {
  std::uint64_t s = splitmix64(masterSeed);
  s = splitmix64(s ^ (static_cast<std::uint64_t>(stackIndex(stack)) + 1));
  s = splitmix64(s ^ (runIndex + 1));
  return s;
}

FuzzPlan sampleFuzzPlan(AlgoStack stack, std::uint64_t masterSeed,
                        std::uint64_t runIndex, std::size_t bigClusterMaxN,
                        bool lossGenome) {
  Rng rng(derivePlanSeed(masterSeed, stack, runIndex));
  FuzzPlan plan;
  plan.stack = stack;
  // The big-cluster branch draws ONLY when opted in, so bigClusterMaxN
  // == 0 reproduces the legacy plan stream byte-for-byte (pinned by
  // test_explore / test_campaign determinism suites and the CI diff).
  bool big = false;
  if (bigClusterMaxN > 6) {
    big = rng.chance(1, 4);
    if (big) {
      // omega-ec stays cheap at any n; the broadcast/gossip stacks pay
      // protocol-inherent O(n^2)-per-round costs, so their fuzz
      // envelope caps at the n=64 smoke scale.
      const std::size_t cap = std::min<std::size_t>(
          bigClusterMaxN, stack == AlgoStack::kOmegaEc ? 256 : 64);
      plan.processCount = rng.between(16, std::max<std::size_t>(cap, 16));
    }
  }
  if (!big) plan.processCount = rng.between(3, 6);
  plan.simSeed = rng.engine()();
  const std::size_t n = plan.processCount;

  plan.timeoutPeriod = rng.between(5, 15);
  plan.minDelay = rng.between(5, 40);
  plan.maxDelay = plan.minDelay + rng.between(0, 40);
  if (stack == AlgoStack::kOmegaEc) plan.ecInstances = rng.between(20, 60);

  // Detector shape. Under kStable, tau_Omega is 0 by definition.
  switch (rng.below(3)) {
    case 0:
      plan.omegaMode = OmegaPreStabilization::kStable;
      plan.tauOmega = 0;
      break;
    case 1:
      plan.omegaMode = OmegaPreStabilization::kRotating;
      break;
    default:
      plan.omegaMode = OmegaPreStabilization::kSplitBrain;
      break;
  }
  if (plan.omegaMode != OmegaPreStabilization::kStable) {
    if (stack == AlgoStack::kOmegaEc) {
      // Fairness of the finite-run eventual-agreement check: the driver
      // must still be deciding instances well after Omega stabilizes, or
      // the last instance legitimately disagrees and no k-hat can land
      // inside the range. A decision costs at least one promote flight
      // (>= minDelay) or one (possibly 4x-skewed-fast) lambda period per
      // instance, so cap tau_Omega at half the fastest possible stream.
      const Time perInstanceFloor =
          std::max<Time>(plan.timeoutPeriod / 4, plan.minDelay);
      const Time cap =
          std::max<Time>(perInstanceFloor + 1,
                         plan.ecInstances * perInstanceFloor / 2);
      plan.tauOmega = rng.between(perInstanceFloor, cap);
    } else {
      plan.tauOmega = rng.between(200, 4000);
    }
  }

  // Crashes: keep at least one correct process; the consensus-based TOB
  // baseline additionally needs a correct majority to stay live.
  const std::size_t maxCrashes =
      stack == AlgoStack::kTobViaConsensus ? (n - 1) / 2 : n - 1;
  const std::size_t crashCount = rng.below(maxCrashes + 1);
  {
    std::vector<ProcessId> victims(n);
    for (ProcessId p = 0; p < n; ++p) victims[p] = p;
    // Deterministic partial Fisher-Yates over the victim set.
    for (std::size_t i = 0; i < crashCount; ++i) {
      const std::size_t j = i + rng.below(victims.size() - i);
      std::swap(victims[i], victims[j]);
      plan.crashes.push_back(
          PlanCrash{victims[i], rng.below(2) == 0 ? rng.between(0, 500)
                                                  : rng.between(500, 4000)});
    }
    sortCrashes(plan.crashes);
  }

  // Partitions: at most one recurring family (so joint windows can never
  // cover all time on a link) plus at most one one-shot blackout.
  if (rng.chance(1, 2)) {
    PlanPartition part;
    part.start = rng.between(200, 3000);
    part.width = rng.between(100, 600);
    if (rng.chance(1, 2)) part.period = part.width + rng.between(300, 2000);
    part.isolate = rng.chance(1, 4) ? kNoProcess : rng.below(n);
    plan.partitions.push_back(part);
    if (rng.chance(1, 3)) {
      plan.partitions.push_back(drawOneShotPartition(rng, n));
    }
  }

  if (rng.chance(1, 2)) plan.chaos = drawChaos(rng, n);
  if (rng.chance(1, 3)) plan.skews = drawSkews(rng, n);
  if (rng.chance(1, 4)) plan.slowLink = drawSlowLink(rng, n);

  plan.workload.start = rng.between(50, 300);
  plan.workload.interval = rng.between(20, 80);
  plan.workload.perProcess = rng.between(2, 6);
  if (stack == AlgoStack::kEtob || stack == AlgoStack::kCommitEtob ||
      stack == AlgoStack::kTobViaConsensus) {
    plan.workload.causalChain = rng.chance(1, 3);
    plan.workload.crossDeps = rng.chance(1, 4);
  }
  if (big) {
    // Few writers, many replicas: the interesting big-n behavior is in
    // dissemination and quorum shape, not in the input volume — and an
    // all-write workload at n=64 would make every sampled plan cost
    // seconds instead of tens of milliseconds.
    plan.workload.writers = rng.between(2, 8);
    plan.workload.perProcess = rng.between(1, 3);
  }
  // Loss genome LAST and only when opted in: with lossGenome == false
  // this branch draws NOTHING, so the legacy plan stream is reproduced
  // byte-for-byte (pinned by test_explore and the CI byte-identity
  // diff), and with it on, the loss-free prefix of each plan is the
  // same plan the legacy sampler would have produced.
  if (lossGenome && rng.chance(1, 3)) {
    plan.loss.lossNum = 1;
    plan.loss.lossDen = static_cast<std::uint32_t>(rng.between(5, 16));
    if (rng.chance(1, 2)) {
      plan.loss.burstPeriod = rng.between(900, 3000);
      plan.loss.burstLen = rng.between(100, plan.loss.burstPeriod / 3);
    }
    if (rng.chance(1, 4)) {
      // One-shot outbound cut only: the catalog's lossy-oneway entries
      // cover recurring cuts deterministically; the fuzz envelope keeps
      // the cut bounded so the retransmission tail is trivially fair.
      plan.loss.oneWayFrom = rng.below(n);
      plan.loss.oneWayStart = rng.between(200, 3000);
      plan.loss.oneWayWidth = rng.between(100, 600);
    }
    plan.loss.activeUntil = rng.between(4000, 12000);
  }
  plan.maxTime = planHorizon(plan);
  WFD_ENSURE_MSG(planAdmissibilityViolations(plan).empty(),
                 "sampler produced an inadmissible plan");
  return plan;
}

namespace {

/// Mutation kinds, tried in rotation from a seeded starting point until
/// one yields an admissible plan.
enum : std::uint64_t {
  kMutReseedSchedule = 0,
  kMutAddCrash,
  kMutDropCrash,
  kMutAddPartition,
  kMutResizePartition,
  kMutToggleChaos,
  kMutToggleSkew,
  kMutToggleSlowLink,
  kMutScaleWorkload,
  kMutHalveTauOmega,
  kMutGrowSystem,
  kMutKindCount,
};

bool applyMutation(FuzzPlan& p, std::uint64_t kind, Rng& rng) {
  const std::size_t n = p.processCount;
  switch (kind) {
    case kMutReseedSchedule:
      p.simSeed = rng.engine()();
      return true;
    case kMutAddCrash: {
      // Pick among the not-yet-crashed processes (admissibility will
      // still reject e.g. a lost majority on the consensus stack).
      std::vector<ProcessId> alive;
      for (ProcessId q = 0; q < n; ++q) {
        bool crashed = false;
        for (const PlanCrash& c : p.crashes) crashed |= c.process == q;
        if (!crashed) alive.push_back(q);
      }
      if (alive.size() <= 1) return false;
      PlanCrash c;
      c.process = alive[rng.below(alive.size())];
      c.time = rng.chance(1, 4) ? 0 : rng.between(1, 4000);
      p.crashes.push_back(c);
      sortCrashes(p.crashes);
      return true;
    }
    case kMutDropCrash:
      if (p.crashes.empty()) return false;
      p.crashes.erase(p.crashes.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(p.crashes.size())));
      return true;
    case kMutAddPartition:
      if (p.partitions.size() >= 3) return false;
      // One-shot only: the one-recurring-family admissibility budget may
      // already be spent, and one-shot windows always heal.
      p.partitions.push_back(drawOneShotPartition(rng, n));
      return true;
    case kMutResizePartition: {
      if (p.partitions.empty()) return false;
      PlanPartition& part = p.partitions[rng.below(p.partitions.size())];
      if (rng.chance(1, 2)) {
        part.width = std::max<Time>(1, part.width / 2);
      } else {
        part.width *= 2;
        // Keep a recurring family healing (period > width).
        if (part.period != 0 && part.period <= part.width) {
          part.period = 2 * part.width;
        }
      }
      return true;
    }
    case kMutToggleChaos:
      p.chaos = p.chaos.dupNum > 0 ? PlanChaos{} : drawChaos(rng, n);
      return true;
    case kMutToggleSkew:
      p.skews = p.skews.empty() ? drawSkews(rng, n) : std::vector<PlanSkew>{};
      return true;
    case kMutToggleSlowLink:
      p.slowLink = p.slowLink.process != kNoProcess ? PlanSlowLink{}
                                                    : drawSlowLink(rng, n);
      return true;
    case kMutScaleWorkload:
      if (p.stack == AlgoStack::kOmegaEc) return false;
      p.workload.perProcess = rng.chance(1, 2)
                                  ? std::max<std::size_t>(1, p.workload.perProcess / 2)
                                  : std::min<std::size_t>(10, p.workload.perProcess * 2);
      return true;
    case kMutHalveTauOmega:
      // Shrinking tau_Omega is always fairness-preserving; GROWING it is
      // not (the omega-ec stream-length cap in the sampler), so the
      // mutator only ever moves it down.
      if (p.omegaMode == OmegaPreStabilization::kStable || p.tauOmega < 2) {
        return false;
      }
      p.tauOmega /= 2;
      return true;
    case kMutGrowSystem:
      if (n >= 8) return false;
      ++p.processCount;
      if (!p.skews.empty()) p.skews.push_back(PlanSkew{1, 1});
      return true;
    default:
      return false;
  }
}

}  // namespace

std::optional<FuzzPlan> mutateFuzzPlan(const FuzzPlan& base,
                                       std::uint64_t mutationSeed) {
  Rng rng(mutationSeed);
  const std::uint64_t start = rng.below(kMutKindCount);
  for (std::uint64_t attempt = 0; attempt < kMutKindCount; ++attempt) {
    FuzzPlan p = base;
    if (!applyMutation(p, (start + attempt) % kMutKindCount, rng)) continue;
    p.maxTime = planHorizon(p);
    if (!planAdmissibilityViolations(p).empty()) continue;
    return p;
  }
  return std::nullopt;
}

Time planHorizon(const FuzzPlan& plan) {
  // Effective worst-case step period and link delay after skew/slow-link
  // scaling (integer ceilings, erring long).
  Time skewMax = 1;
  for (const PlanSkew& s : plan.skews) {
    skewMax = std::max(skewMax, (s.num + s.den - 1) / s.den);
  }
  const Time linkFactor =
      plan.slowLink.process != kNoProcess ? plan.slowLink.factor : 1;
  const Time effDelay = plan.maxDelay * linkFactor + plan.chaos.reorderJitter;
  const Time effTimeout = plan.timeoutPeriod * skewMax;

  // Last scheduled disturbance: workload inputs (origin stagger bounded by
  // (maxDelay + timeoutPeriod) * n, the cross-deps stagger), crashes,
  // detector stabilization and partition windows.
  Time busy = plan.workload.start +
              plan.workload.interval * plan.workload.perProcess +
              (plan.maxDelay + plan.timeoutPeriod) * plan.processCount;
  for (const PlanCrash& c : plan.crashes) busy = std::max(busy, c.time);
  busy = std::max(busy, plan.tauOmega);
  Time recurringPeriod = 0;
  Time recurringWidth = 0;
  for (const PlanPartition& p : plan.partitions) {
    if (p.period == 0) {
      busy = std::max(busy, p.start + p.width);
    } else {
      busy = std::max(busy, p.start + 3 * p.period);
      recurringPeriod = std::max(recurringPeriod, p.period);
      recurringWidth = std::max(recurringWidth, p.width);
    }
  }
  if (plan.loss.enabled()) {
    busy = std::max(busy, plan.loss.activeUntil);
    if (plan.loss.oneWayFrom != kNoProcess) {
      if (plan.loss.oneWayPeriod == 0) {
        busy = std::max(busy, plan.loss.oneWayStart + plan.loss.oneWayWidth);
      } else {
        busy = std::max(busy, plan.loss.oneWayStart + 3 * plan.loss.oneWayPeriod);
        recurringPeriod = std::max(recurringPeriod, plan.loss.oneWayPeriod);
        recurringWidth = std::max(recurringWidth, plan.loss.oneWayWidth);
      }
    }
  }

  // Settle margin: enough quiet λ-rounds and message round-trips for the
  // liveness clauses (convergence, commit catch-up, gossip anti-entropy)
  // to be fair assertions, stretched past a few recurring heal gaps.
  Time settle = 4000 + 30 * effDelay + 40 * effTimeout + 3 * recurringPeriod;
  if (plan.loss.enabled()) {
    // Stubborn-retransmission tail: a copy dropped right at the loss
    // boundary still has to climb the capped backoff ladder before its
    // retransmit lands on the healed network.
    settle += 16 * (2 * effDelay + effTimeout + 1);
  }

  // The EC driver decides instances sequentially: budget a few delays and
  // λ-steps per instance, inflated by the recurring-partition duty cycle
  // (promotes defer to window ends while the leader is isolated).
  if (plan.ecInstances > 0) {
    Time perInstance = 2 * effDelay + 4 * effTimeout;
    if (recurringPeriod > 0) {
      perInstance = perInstance * recurringPeriod /
                    std::max<Time>(recurringPeriod - recurringWidth, 1);
    }
    settle += plan.ecInstances * perInstance;
  }
  return busy + settle;
}

std::vector<std::string> planAdmissibilityViolations(const FuzzPlan& plan) {
  std::vector<std::string> out;
  const std::size_t n = plan.processCount;
  auto bad = [&out](std::string why) { out.push_back(std::move(why)); };

  // Every time-like field is bounded: the bounds are far above anything
  // the sampler emits, but they (a) make the u64 arithmetic in
  // planHorizon overflow-free by construction, and (b) keep even the
  // most extreme admissible plan's event volume within a scaled
  // simulator budget (planScenario raises SimConfig.maxEvents with the
  // horizon) — so a hand-written plan can never pass validation yet be
  // silently truncated into a spurious liveness violation.
  constexpr Time kMaxEventTime = 1'000'000;

  // The big-cluster genome widened the envelope from the original
  // [2, 12]: omega-ec runs are near-linear in n, the broadcast/gossip
  // stacks pay O(n^2) per round and cap at the n=64 smoke scale.
  const std::size_t maxN = plan.stack == AlgoStack::kOmegaEc ? 256 : 64;
  if (n < 2 || n > maxN) {
    bad("processCount must be in [2, " + std::to_string(maxN) +
        "] for this stack");
  }
  if (plan.timeoutPeriod < 1 || plan.timeoutPeriod > 1000) {
    bad("timeoutPeriod must be in [1, 1000]");
  }
  if (plan.minDelay < 1 || plan.minDelay > plan.maxDelay ||
      plan.maxDelay > 2000) {
    bad("delays must satisfy 1 <= minDelay <= maxDelay <= 2000");
  }
  if (plan.omegaMode == OmegaPreStabilization::kStable && plan.tauOmega != 0) {
    bad("stable omega means tauOmega == 0");
  }
  if (plan.tauOmega > kMaxEventTime) bad("tauOmega must be <= 1e6");

  std::set<ProcessId> crashed;
  for (const PlanCrash& c : plan.crashes) {
    if (c.process >= n) bad("crash names a process outside the system");
    if (!crashed.insert(c.process).second) bad("process crashed twice");
    if (c.time > kMaxEventTime) bad("crash time must be <= 1e6");
  }
  if (crashed.size() >= n) bad("at least one process must stay correct");
  if (plan.stack == AlgoStack::kTobViaConsensus &&
      (n - crashed.size()) * 2 <= n) {
    bad("tob-via-consensus requires a correct majority");
  }

  std::size_t recurring = 0;
  for (const PlanPartition& p : plan.partitions) {
    if (p.width < 1) bad("partition width must be >= 1");
    if (p.period != 0 && p.period <= p.width) {
      bad("recurring partition must heal: period > width");
    }
    if (p.period != 0) ++recurring;
    if (p.isolate != kNoProcess && p.isolate >= n) {
      bad("partition isolates a process outside the system");
    }
    if (p.start > kMaxEventTime || p.width > kMaxEventTime ||
        p.period > kMaxEventTime) {
      bad("partition times must be <= 1e6");
    }
  }
  if (recurring > 1) {
    bad("at most one recurring partition family (joint windows must not "
        "cover all time)");
  }

  if (plan.chaos.dupNum > 0) {
    if (plan.chaos.dupDen < 1 || plan.chaos.dupNum > plan.chaos.dupDen) {
      bad("chaos duplication probability must be <= 1");
    }
    if (plan.chaos.maxExtraCopies < 1 || plan.chaos.maxExtraCopies > 8) {
      bad("chaos maxExtraCopies must be in [1, 8]");
    }
    if (plan.chaos.reorderJitter > 1000) bad("chaos jitter must be <= 1000");
    if (plan.chaos.onlyTouching != kNoProcess && plan.chaos.onlyTouching >= n) {
      bad("chaos link filter names a process outside the system");
    }
  }

  if (!plan.skews.empty() && plan.skews.size() != n) {
    bad("skew list must be empty or name every process");
  }
  for (const PlanSkew& s : plan.skews) {
    if (s.num < 1 || s.den < 1 || s.num > 8 || s.den > 8 ||
        s.num > 4 * s.den || s.den > 4 * s.num) {
      bad("skew ratios must be within [1/4, 4] with terms in [1, 8]");
    }
  }

  if (plan.slowLink.process != kNoProcess) {
    if (plan.slowLink.process >= n) {
      bad("slow link names a process outside the system");
    }
    if (plan.slowLink.factor < 1 || plan.slowLink.factor > 8) {
      bad("slow link factor must be in [1, 8]");
    }
  }

  // Fair-lossy layers: fairness means retransmission always wins in the
  // end — rates stay below the IidLossModel starvation guard, bursts
  // leave most of each frame clear, the i.i.d./burst layers go quiet,
  // and one-way cuts heal.
  if (plan.loss.lossNum > 0) {
    if (plan.loss.lossDen < 1 || plan.loss.lossNum * 4 > plan.loss.lossDen) {
      bad("iid loss rate must be <= 1/4 (fair-lossy starvation guard)");
    }
  }
  if (plan.loss.burstPeriod > 0) {
    if (plan.loss.burstPeriod > kMaxEventTime) {
      bad("loss burst period must be <= 1e6");
    }
    if (plan.loss.burstLen < 1 || 3 * plan.loss.burstLen > plan.loss.burstPeriod) {
      bad("loss bursts must cover at most a third of each frame");
    }
  } else if (plan.loss.burstLen != 0) {
    bad("loss burstLen needs burstPeriod > 0");
  }
  if (plan.loss.lossNum > 0 || plan.loss.burstPeriod > 0) {
    if (plan.loss.activeUntil < 1 || plan.loss.activeUntil > kMaxEventTime) {
      bad("lossy layers must go quiet: activeUntil in [1, 1e6]");
    }
  } else if (plan.loss.activeUntil != 0) {
    bad("loss activeUntil needs an iid or burst layer");
  }
  if (plan.loss.oneWayFrom != kNoProcess) {
    if (plan.loss.oneWayFrom >= n) {
      bad("one-way cut names a process outside the system");
    }
    if (plan.loss.oneWayWidth < 1) bad("one-way cut width must be >= 1");
    if (plan.loss.oneWayPeriod != 0 &&
        plan.loss.oneWayPeriod <= plan.loss.oneWayWidth) {
      bad("recurring one-way cut must heal: period > width");
    }
    if (plan.loss.oneWayStart > kMaxEventTime ||
        plan.loss.oneWayWidth > kMaxEventTime ||
        plan.loss.oneWayPeriod > kMaxEventTime) {
      bad("one-way cut times must be <= 1e6");
    }
  } else if (plan.loss.oneWayStart != 0 || plan.loss.oneWayWidth != 0 ||
             plan.loss.oneWayPeriod != 0) {
    bad("one-way cut window needs oneWayFrom");
  }

  if (plan.workload.interval < 1 || plan.workload.interval > 100'000) {
    bad("workload interval must be in [1, 1e5]");
  }
  if (plan.workload.start > kMaxEventTime) bad("workload start must be <= 1e6");
  if (plan.workload.perProcess > 10'000) {
    bad("workload perProcess must be <= 1e4");
  }
  if (plan.workload.writers > n) {
    bad("workload writers must be <= processCount (0 = all write)");
  }
  if (plan.stack != AlgoStack::kOmegaEc && plan.workload.perProcess < 1) {
    bad("broadcast stacks need at least one message per process");
  }
  if (plan.stack == AlgoStack::kOmegaEc) {
    if (plan.ecInstances < 1) bad("omega-ec needs ecInstances >= 1");
    if (plan.ecInstances > 10'000) bad("ecInstances must be <= 1e4");
  } else if (plan.ecInstances != 0) {
    bad("ecInstances is only meaningful for the omega-ec stack");
  }

  if (plan.maxTime > Time{1'000'000'000'000}) {
    bad("maxTime must be <= 1e12 (keeps the scaled event budget "
        "overflow-free)");
  }
  // Only evaluate the horizon once the bounds above hold — planHorizon's
  // arithmetic is overflow-free exactly under those bounds.
  if (out.empty() && plan.maxTime < planHorizon(plan)) {
    bad("maxTime below planHorizon: liveness clauses would be unfair");
  }
  return out;
}

std::shared_ptr<const NetworkModel> planNetwork(const FuzzPlan& plan) {
  const std::size_t n = plan.processCount;
  WFD_ENSURE_MSG(plan.minDelay >= 1 && plan.minDelay <= plan.maxDelay,
                 "planNetwork: bad delay bounds");

  std::shared_ptr<const NetworkModel> stack;
  if (plan.slowLink.process != kNoProcess) {
    WFD_ENSURE(plan.slowLink.process < n && plan.slowLink.factor >= 1);
    stack = AsymmetricDelayModel::slowProcess(plan.minDelay, plan.maxDelay,
                                              plan.slowLink.process,
                                              plan.slowLink.factor);
  } else {
    stack = std::make_shared<UniformDelayModel>(plan.minDelay, plan.maxDelay,
                                                /*fixed=*/false);
  }

  if (plan.chaos.dupNum > 0) {
    ChaosLinkModel::Config chaos;
    chaos.dupNum = plan.chaos.dupNum;
    chaos.dupDen = plan.chaos.dupDen;
    chaos.maxExtraCopies = plan.chaos.maxExtraCopies;
    chaos.reorderJitter = plan.chaos.reorderJitter;
    if (plan.chaos.onlyTouching != kNoProcess) {
      WFD_ENSURE(plan.chaos.onlyTouching < n);
      const ProcessId hub = plan.chaos.onlyTouching;
      chaos.affects = [hub](ProcessId from, ProcessId to) {
        return from == hub || to == hub;
      };
    }
    stack = std::make_shared<ChaosLinkModel>(std::move(stack), chaos);
  }

  if (plan.loss.lossNum > 0) {
    IidLossModel::Config loss;
    loss.num = plan.loss.lossNum;
    loss.den = plan.loss.lossDen;
    loss.activeUntil = plan.loss.activeUntil;
    stack = std::make_shared<IidLossModel>(std::move(stack), loss);
  }
  if (plan.loss.burstPeriod > 0) {
    GilbertElliottLossModel::Config ge;
    ge.framePeriod = plan.loss.burstPeriod;
    ge.burstLen = plan.loss.burstLen;
    ge.seed = plan.simSeed;
    ge.activeUntil = plan.loss.activeUntil;
    stack = std::make_shared<GilbertElliottLossModel>(std::move(stack), ge);
  }
  if (plan.loss.oneWayFrom != kNoProcess) {
    WFD_ENSURE(plan.loss.oneWayFrom < n);
    OutageSpec cut;
    cut.from = plan.loss.oneWayFrom;
    cut.start = plan.loss.oneWayStart;
    cut.width = plan.loss.oneWayWidth;
    cut.period = plan.loss.oneWayPeriod;
    stack = std::make_shared<OneWayOutageModel>(
        std::move(stack), std::vector<OutageSpec>{cut});
  }
  return stack;
}

Scenario planScenario(const FuzzPlan& plan) {
  Scenario s;
  s.name = std::string("fuzz-") + algoStackName(plan.stack);
  s.description = "sampled fuzz plan (see wfd_explore / docs/FUZZING.md)";

  s.config.processCount = plan.processCount;
  s.config.seed = plan.simSeed;
  s.config.maxTime = plan.maxTime;
  s.config.timeoutPeriod = plan.timeoutPeriod;
  s.config.minDelay = plan.minDelay;
  s.config.maxDelay = plan.maxDelay;
  // Scale the runaway-event guard with the plan: the per-tick event
  // volume is at most ~n^2 sends per lambda round, so this budget can
  // never truncate an admissible plan into a spurious liveness failure
  // (the default 4M would, for long hand-written horizons). Bounds in
  // planAdmissibilityViolations keep this product overflow-free.
  s.config.maxEvents = std::max<std::uint64_t>(
      4'000'000,
      8 * plan.processCount * plan.processCount *
          (plan.maxTime / plan.timeoutPeriod + 1));

  const std::vector<PlanCrash> crashes = plan.crashes;
  s.pattern = [crashes](std::size_t n) {
    FailurePattern fp(n);
    for (const PlanCrash& c : crashes) fp.setCrash(c.process, c.time);
    return fp;
  };
  for (const PlanPartition& p : plan.partitions) {
    PartitionSpec spec;
    spec.start = p.start;
    spec.width = p.width;
    spec.period = p.period;
    if (p.isolate != kNoProcess) {
      WFD_ENSURE(p.isolate < plan.processCount);
      const ProcessId victim = p.isolate;
      spec.affects = [victim](ProcessId from, ProcessId to) {
        return from == victim || to == victim;
      };
    }
    s.config.partitions.push_back(std::move(spec));
  }
  for (const PlanSkew& skew : plan.skews) {
    s.config.clockSkew.push_back(ClockSkew{skew.num, skew.den});
  }
  const FuzzPlan planCopy = plan;
  s.network = [planCopy](const SimConfig&) { return planNetwork(planCopy); };

  s.tauOmega = plan.tauOmega;
  s.omegaMode = plan.omegaMode;
  s.stack = plan.stack;

  s.workload.start = plan.workload.start;
  s.workload.interval = plan.workload.interval;
  s.workload.perProcess = plan.workload.perProcess;
  s.workload.causalChainPerOrigin = plan.workload.causalChain;
  s.workload.crossProcessDeps = plan.workload.crossDeps;
  s.workload.lwwPutBodies = plan.stack == AlgoStack::kGossipLww;
  s.workload.writers = plan.workload.writers;
  s.ecInstances = plan.ecInstances;
  return s;
}

std::uint64_t planFingerprint(const FuzzPlan& plan) {
  return fnv1a64(encodeFuzzPlan(plan).dump());
}

}  // namespace wfd
