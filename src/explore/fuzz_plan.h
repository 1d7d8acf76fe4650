// FuzzPlan: a plain-data genome describing one sampled admissible run —
// the unit the explorer generates, runs, shrinks and persists.
//
// Where a Scenario (src/scenario/) is a hand-written run family with
// factory closures, a FuzzPlan is pure data: every field is a number or
// an enum, so a plan can be (a) sampled from a single 64-bit seed,
// (b) serialized to portable JSON (plan_codec.h), (c) mutated by the
// shrinker one field at a time, and (d) lowered to a Scenario
// (planScenario) that reuses the NetworkModel and checker machinery
// unchanged: planNetwork composes the model layers (base, chaos, lossy),
// and the partition windows and clock skews become SimConfig data.
//
// Admissibility: the paper's results quantify over admissible runs only,
// so the sampler must stay inside that space — crashes leave at least
// one correct process (a correct majority for the consensus-based TOB
// stack), partitions always heal (width < period for recurring windows,
// at most one recurring spec so joint windows cannot cover all time),
// delays are finite with minDelay >= 1, clock skews keep every process
// stepping forever, and the horizon leaves enough settle time after the
// last scheduled disturbance for the liveness clauses (convergence,
// EC termination) to be fair assertions. planAdmissibilityViolations()
// is the executable form of that contract; docs/FUZZING.md is the prose.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "scenario/scenario.h"

namespace wfd {

/// One crash of the plan's failure pattern.
struct PlanCrash {
  ProcessId process = kNoProcess;
  Time time = 0;
};

/// One partition window family. `isolate` == kNoProcess partitions every
/// link (a total blackout); otherwise only links touching that process.
struct PlanPartition {
  Time start = 0;
  Time width = 0;
  /// 0 = one-shot window [start, start + width); else recurring.
  Time period = 0;
  ProcessId isolate = kNoProcess;
};

/// Duplication + reordering knobs; dupNum == 0 disables the layer.
struct PlanChaos {
  std::uint32_t dupNum = 0;
  std::uint32_t dupDen = 1;
  std::uint32_t maxExtraCopies = 0;
  Time reorderJitter = 0;
  /// kNoProcess = all links; otherwise only links touching this process.
  ProcessId onlyTouching = kNoProcess;
};

/// Per-process λ-period scaling factor num/den (1/1 = no skew).
struct PlanSkew {
  std::uint64_t num = 1;
  std::uint64_t den = 1;
};

/// Per-link slowdown: every link touching `process` is `factor`x slower.
/// process == kNoProcess disables the layer.
struct PlanSlowLink {
  ProcessId process = kNoProcess;
  Time factor = 1;
};

/// Fair-lossy genome (PR-9). All layers ride the retransmission layer —
/// a plan with any of them enabled makes the lowered network mayDrop(),
/// so the simulator arms its retransmission layer and delivery stays
/// guaranteed.
/// Admissibility keeps the loss fair: the i.i.d. rate is capped at 1/4,
/// bursts cover at most a third of each frame, and the i.i.d./burst
/// layers must go quiet at `activeUntil` so liveness clauses get a
/// loss-free tail (one-way cuts are bounded windows already).
struct PlanLoss {
  /// I.i.d. per-copy drop probability lossNum/lossDen; 0 disables.
  std::uint32_t lossNum = 0;
  std::uint32_t lossDen = 1;
  /// Gilbert–Elliott frame period; 0 disables the burst layer.
  Time burstPeriod = 0;
  Time burstLen = 0;
  /// Quiet time for the i.i.d. and burst layers (required when either is
  /// on): drops only hit copies arriving before this.
  Time activeUntil = 0;
  /// One-way cut: every send FROM this process inside the window is
  /// dropped (acks still flow back). kNoProcess disables.
  ProcessId oneWayFrom = kNoProcess;
  Time oneWayStart = 0;
  Time oneWayWidth = 0;
  /// 0 = one-shot window; else recurring (must heal: period > width).
  Time oneWayPeriod = 0;

  bool enabled() const {
    return lossNum > 0 || burstPeriod > 0 || oneWayFrom != kNoProcess;
  }
};

/// Broadcast workload shape (ignored by the omega-ec stack).
struct PlanWorkload {
  Time start = 100;
  Time interval = 50;
  std::size_t perProcess = 4;
  bool causalChain = false;
  bool crossDeps = false;
  /// 0 = every process broadcasts; otherwise only the first `writers`
  /// do (BroadcastWorkload::writers). The big-cluster sampler sets this
  /// so a 64-process plan's message volume stays O(writers), not O(n).
  std::size_t writers = 0;
};

/// A complete sampled run description. (plan) fully determines the run:
/// the simulator is seeded with simSeed and all other nondeterminism is
/// data here.
struct FuzzPlan {
  AlgoStack stack = AlgoStack::kEtob;
  std::size_t processCount = 3;
  std::uint64_t simSeed = 1;

  Time timeoutPeriod = 10;
  Time minDelay = 20;
  Time maxDelay = 40;

  Time tauOmega = 0;
  OmegaPreStabilization omegaMode = OmegaPreStabilization::kSplitBrain;

  std::vector<PlanCrash> crashes;
  std::vector<PlanPartition> partitions;
  PlanChaos chaos;
  /// Either empty (no skew layer) or exactly processCount entries.
  std::vector<PlanSkew> skews;
  PlanSlowLink slowLink;
  PlanLoss loss;

  PlanWorkload workload;
  /// Only meaningful for AlgoStack::kOmegaEc (must be 0 otherwise).
  Instance ecInstances = 0;

  /// Run horizon; sampler and shrinker always set planHorizon(*this).
  Time maxTime = 0;
};

// AlgoStack names are parsed/printed by algoStackName/parseAlgoStack
// (api/capabilities.h — plans, scenarios and both CLIs share them).

const char* omegaModeName(OmegaPreStabilization mode);
bool parseOmegaMode(const std::string& name, OmegaPreStabilization* out);

/// Deterministic per-run seed derivation (splitmix64 over the tuple), so
/// run i of `wfd_explore --seed S` is the same plan in every invocation
/// of the same build. (The derivation itself is platform-independent,
/// but the sampler's draws go through std::uniform_int_distribution,
/// whose algorithm is implementation-defined — plans only replay
/// identically as serialized DATA, which is what the corpus relies on.)
std::uint64_t derivePlanSeed(std::uint64_t masterSeed, AlgoStack stack,
                             std::uint64_t runIndex);

/// Samples one admissible plan for the stack from the derived seed.
/// Postcondition: planAdmissibilityViolations(plan).empty().
///
/// `bigClusterMaxN` opts the sampler into the big-cluster genome: 0
/// (the default) draws nothing extra, so the legacy plan stream is
/// byte-identical. When > 6, one plan in four is sampled at deployment
/// scale — processCount in [16, min(bigClusterMaxN, cap)] where the cap
/// is 256 for omega-ec and 64 for the broadcast/gossip stacks (whose
/// per-run cost is protocol-inherent in n), with the workload capped to
/// a few writers so message volume stays O(writers).
///
/// `lossGenome` opts the sampler into the fair-lossy genome (PR-9):
/// false (the default) draws nothing extra — the legacy plan stream
/// stays byte-identical. When true, one plan in three gains an i.i.d.
/// loss layer (rate 1/5..1/16), optionally a Gilbert–Elliott burst
/// schedule and a one-way outbound cut; all loss draws come AFTER every
/// legacy draw, so the loss-free prefix of each plan is unchanged too.
FuzzPlan sampleFuzzPlan(AlgoStack stack, std::uint64_t masterSeed,
                        std::uint64_t runIndex,
                        std::size_t bigClusterMaxN = 0,
                        bool lossGenome = false);

/// The horizon the sampler assigns: last scheduled disturbance (workload
/// end, crashes, tau_Omega, partition windows) plus a settle margin
/// scaled by delays, skew and the EC instance count. Deterministic in the
/// plan's other fields; the shrinker re-derives it after every mutation
/// so shrunken plans also shrink in wall-clock cost.
Time planHorizon(const FuzzPlan& plan);

/// Executable admissibility contract. Empty = admissible. Each entry is
/// one human-readable violated invariant.
std::vector<std::string> planAdmissibilityViolations(const FuzzPlan& plan);

/// The plan's network model, innermost first: uniform delays (or the
/// slow-process links), then chaos, then the lossy layers (i.i.d.,
/// Gilbert–Elliott bursts, one-way cut) — the canonical order
/// ensureCanonicalComposition checks. Each layer is omitted when the
/// plan disables it, so a quiet genome is exactly UniformDelayModel.
std::shared_ptr<const NetworkModel> planNetwork(const FuzzPlan& plan);

/// Lowers the plan to a runnable Scenario (pattern, planNetwork network,
/// partition windows and clock skews in the config, default Omega
/// detector, per-stack spec checker set). The scenario's name is
/// "fuzz-<stack>"; run it with runScenario(planScenario(p), p.simSeed).
Scenario planScenario(const FuzzPlan& plan);

/// Stable 64-bit fingerprint of the plan: FNV-1a over the canonical JSON
/// encoding, so equal fingerprints mean equal plans on every platform.
std::uint64_t planFingerprint(const FuzzPlan& plan);

}  // namespace wfd
