// Mutation tests for the checker oracles: a checker that cannot fail is
// not an oracle. Each test takes a healthy trace (from a real run or
// built synthetically), applies one targeted corruption — duplicate
// delivery, diverging suffix, causal inversion, cross-instance value
// swap, commit revocation — and asserts the corresponding checker clause
// (and ONLY the intended defect dimension) rejects it. The explorer
// (wfd_explore) leans on these checkers as its bug-finding oracles, so
// their negative behaviour is itself regression-tested here.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "checkers/commit_checker.h"
#include "checkers/ec_checker.h"
#include "checkers/tob_checker.h"
#include "ec/ec_types.h"
#include "etob/commit_etob.h"
#include "explore/explorer.h"
#include "explore/fuzz_plan.h"
#include "scenario/scenario.h"

namespace wfd {
namespace {

// --- Trace replay with a mutation hook -------------------------------------

/// Rebuilds a trace record-for-record (outputs and snapshots interleaved
/// in their per-process record order), passing every snapshot sequence
/// through `mutateSnap(p, index, seq)` — return the (possibly corrupted)
/// sequence; `extraSnaps` are appended at the very end.
struct SnapMutation {
  std::function<std::vector<MsgId>(ProcessId, std::size_t, std::vector<MsgId>)>
      mutateSnap;
  std::vector<std::pair<ProcessId, DeliverySnapshot>> extraSnaps;
};

Trace replayTrace(const Trace& src, const SnapMutation& mutation) {
  Trace out(src.processCount(), /*keepSnapshots=*/true);
  for (ProcessId p = 0; p < src.processCount(); ++p) {
    const auto& outputs = src.outputs(p);
    const auto& snaps = src.deliverySnapshots(p);
    std::size_t oi = 0;
    std::size_t si = 0;
    std::size_t snapIndex = 0;
    while (oi < outputs.size() || si < snaps.size()) {
      const bool takeSnap =
          si < snaps.size() &&
          (oi >= outputs.size() || snaps[si].order < outputs[oi].order);
      if (takeSnap) {
        std::vector<MsgId> seq = snaps[si].seq;
        if (mutation.mutateSnap) {
          seq = mutation.mutateSnap(p, snapIndex, std::move(seq));
        }
        out.recordDelivered(p, snaps[si].time, std::move(seq));
        ++si;
        ++snapIndex;
      } else {
        out.recordOutput(p, outputs[oi].time, outputs[oi].value);
        ++oi;
      }
    }
  }
  for (const auto& [p, snap] : mutation.extraSnaps) {
    out.recordDelivered(p, snap.time, snap.seq);
  }
  return out;
}

/// A healthy broadcast run to corrupt: the minimal stable-leader etob
/// plan (quiet network, causal chains declared so the causal checker has
/// edges to verify).
struct HealthyRun {
  ScenarioInstance inst;
  FuzzPlan plan;

  static HealthyRun make(bool causalChain) {
    FuzzPlan plan;
    plan.stack = AlgoStack::kEtob;
    plan.processCount = 3;
    plan.simSeed = 11;
    plan.tauOmega = 0;
    plan.omegaMode = OmegaPreStabilization::kStable;
    plan.workload.start = 100;
    plan.workload.interval = 50;
    plan.workload.perProcess = 4;
    plan.workload.causalChain = causalChain;
    plan.maxTime = planHorizon(plan);
    EXPECT_TRUE(planAdmissibilityViolations(plan).empty());
    ScenarioInstance inst = instantiateScenario(planScenario(plan), plan.simSeed);
    inst.sim->run();
    return HealthyRun{std::move(inst), plan};
  }

  BroadcastCheckReport check(const Trace& trace) const {
    return checkBroadcastRun(trace, inst.cluster->log(),
                             inst.sim->failurePattern());
  }
};

TEST(BroadcastMutationTest, UnmutatedReplayPassesEverything) {
  HealthyRun run = HealthyRun::make(/*causalChain=*/true);
  const Trace replayed = replayTrace(run.inst.sim->trace(), {});
  const BroadcastCheckReport rep = run.check(replayed);
  EXPECT_TRUE(rep.coreOk());
  EXPECT_TRUE(rep.causalOrderOk);
  EXPECT_EQ(rep.tau, run.check(run.inst.sim->trace()).tau);
}

TEST(BroadcastMutationTest, DuplicateDeliveryRejected) {
  HealthyRun run = HealthyRun::make(/*causalChain=*/false);
  const Trace& src = run.inst.sim->trace();
  // Append a final snapshot at p0 with its first message delivered twice.
  std::vector<MsgId> dup = src.currentDelivered(0);
  ASSERT_FALSE(dup.empty());
  dup.push_back(dup.front());
  SnapMutation m;
  m.extraSnaps.emplace_back(
      0, DeliverySnapshot{run.plan.maxTime, 0, std::move(dup)});
  const BroadcastCheckReport rep = run.check(replayTrace(src, m));
  EXPECT_FALSE(rep.noDuplicationOk);
  EXPECT_TRUE(rep.noCreationOk);  // only the intended dimension fails
}

TEST(BroadcastMutationTest, DivergingSuffixRejectedAsAgreementViolation) {
  HealthyRun run = HealthyRun::make(/*causalChain=*/false);
  const Trace& src = run.inst.sim->trace();
  // p1's final sequence loses its last message: a message delivered at
  // p0 is then missing from p1 — TOB-Agreement must flag it.
  std::vector<MsgId> shorter = src.currentDelivered(1);
  ASSERT_GE(shorter.size(), 2u);
  shorter.pop_back();
  SnapMutation m;
  m.extraSnaps.emplace_back(
      1, DeliverySnapshot{run.plan.maxTime, 0, std::move(shorter)});
  const BroadcastCheckReport rep = run.check(replayTrace(src, m));
  EXPECT_FALSE(rep.agreementOk);
}

TEST(BroadcastMutationTest, UnknownMessageRejectedAsCreation) {
  HealthyRun run = HealthyRun::make(/*causalChain=*/false);
  const Trace& src = run.inst.sim->trace();
  std::vector<MsgId> forged = src.currentDelivered(2);
  forged.push_back(makeMsgId(7, 99));  // never broadcast
  SnapMutation m;
  m.extraSnaps.emplace_back(
      2, DeliverySnapshot{run.plan.maxTime, 0, std::move(forged)});
  const BroadcastCheckReport rep = run.check(replayTrace(src, m));
  EXPECT_FALSE(rep.noCreationOk);
}

TEST(BroadcastMutationTest, CausalInversionRejected) {
  HealthyRun run = HealthyRun::make(/*causalChain=*/true);
  const Trace& src = run.inst.sim->trace();
  // Swap a per-origin chain pair (origin 0: message 1 before message 0)
  // in a final appended snapshot at p0.
  std::vector<MsgId> seq = src.currentDelivered(0);
  const MsgId first = makeMsgId(0, 0);
  const MsgId second = makeMsgId(0, 1);
  auto a = std::find(seq.begin(), seq.end(), first);
  auto b = std::find(seq.begin(), seq.end(), second);
  ASSERT_TRUE(a != seq.end() && b != seq.end());
  std::iter_swap(a, b);
  SnapMutation m;
  m.extraSnaps.emplace_back(0,
                            DeliverySnapshot{run.plan.maxTime, 0, std::move(seq)});
  const BroadcastCheckReport rep = run.check(replayTrace(src, m));
  EXPECT_FALSE(rep.causalOrderOk);
  EXPECT_TRUE(rep.noCreationOk);
  EXPECT_TRUE(rep.noDuplicationOk);
}

// --- EC oracle mutations (synthetic decision histories) ---------------------

/// Builds a clean two-process EC history: distinct values per instance so
/// a cross-instance swap is guaranteed to be invalid.
Trace cleanEcTrace(Instance instances) {
  Trace t(2, /*keepSnapshots=*/true);
  for (Instance l = 1; l <= instances; ++l) {
    const Value v{100 + l};
    for (ProcessId p = 0; p < 2; ++p) {
      t.recordOutput(p, 10 * l, Payload::of(ProposalMade{l, v}));
      t.recordOutput(p, 10 * l + 5, Payload::of(EcDecision{l, v}));
    }
  }
  return t;
}

TEST(EcMutationTest, CleanHistoryPasses) {
  const Trace t = cleanEcTrace(5);
  const EcCheckReport rep = checkEcRun(t, FailurePattern::noFailures(2));
  EXPECT_TRUE(rep.integrityOk);
  EXPECT_TRUE(rep.validityOk);
  EXPECT_EQ(rep.decidedByAllCorrect, 5u);
  EXPECT_EQ(rep.agreementFromK, 1u);
}

TEST(EcMutationTest, CrossInstanceValueSwapRejectedAsValidity) {
  Trace t(2, true);
  for (ProcessId p = 0; p < 2; ++p) {
    t.recordOutput(p, 10, Payload::of(ProposalMade{1, Value{101}}));
    t.recordOutput(p, 20, Payload::of(ProposalMade{2, Value{102}}));
  }
  // p0 decides instance 1 with instance 2's value (and vice versa): each
  // decided value was proposed SOMEWHERE, just never for that instance —
  // exactly the confusion EC-Validity exists to catch.
  t.recordOutput(0, 30, Payload::of(EcDecision{1, Value{102}}));
  t.recordOutput(0, 40, Payload::of(EcDecision{2, Value{101}}));
  t.recordOutput(1, 30, Payload::of(EcDecision{1, Value{101}}));
  t.recordOutput(1, 40, Payload::of(EcDecision{2, Value{102}}));
  const EcCheckReport rep = checkEcRun(t, FailurePattern::noFailures(2));
  EXPECT_FALSE(rep.validityOk);
  EXPECT_TRUE(rep.integrityOk);
}

TEST(EcMutationTest, DoubleResponseRejectedAsIntegrity) {
  Trace t = cleanEcTrace(3);
  t.recordOutput(0, 99, Payload::of(EcDecision{2, Value{102}}));  // again
  const EcCheckReport rep = checkEcRun(t, FailurePattern::noFailures(2));
  EXPECT_FALSE(rep.integrityOk);
  EXPECT_TRUE(rep.validityOk);
}

TEST(EcMutationTest, DivergingSuffixPushesAgreementWitnessOutOfRange) {
  Trace t = cleanEcTrace(4);
  // A fifth instance on which the processes disagree forever: the
  // agreement witness k-hat must land beyond the instance range, which
  // is what the scenario layer reports as an eventual-agreement failure.
  for (ProcessId p = 0; p < 2; ++p) {
    t.recordOutput(p, 200, Payload::of(ProposalMade{5, Value{500 + p}}));
  }
  t.recordOutput(0, 210, Payload::of(EcDecision{5, Value{500}}));
  t.recordOutput(1, 210, Payload::of(EcDecision{5, Value{501}}));
  const EcCheckReport rep = checkEcRun(t, FailurePattern::noFailures(2));
  EXPECT_TRUE(rep.integrityOk);
  EXPECT_TRUE(rep.validityOk);
  EXPECT_EQ(rep.decidedByAllCorrect, 5u);
  EXPECT_GT(rep.agreementFromK, 5u);  // no agreed suffix in range
}

// --- Commit oracle mutations ------------------------------------------------

/// A healthy commit-etob run with indications to corrupt.
ScenarioInstance healthyCommitRun() {
  const Scenario* s = findScenario("commit-stable-majority");
  EXPECT_NE(s, nullptr);
  ScenarioInstance inst = instantiateScenario(*s, 3);
  inst.sim->run();
  return inst;
}

TEST(CommitMutationTest, UnmutatedReplayIsSafe) {
  ScenarioInstance inst = healthyCommitRun();
  const Trace replayed = replayTrace(inst.sim->trace(), {});
  const CommitCheckReport rep =
      checkCommitSafety(replayed, inst.sim->failurePattern());
  EXPECT_GT(rep.indications, 0u);
  EXPECT_EQ(rep.revokedCommits, 0u);
}

TEST(CommitMutationTest, RewrittenPrefixRejectedAsRevocation) {
  ScenarioInstance inst = healthyCommitRun();
  const Trace& src = inst.sim->trace();
  const FailurePattern& fp = inst.sim->failurePattern();
  // Append a final snapshot at p0 whose first two entries are swapped:
  // every previously indicated prefix of length >= 2 is now revoked.
  std::vector<MsgId> seq = src.currentDelivered(0);
  ASSERT_GE(seq.size(), 2u);
  std::swap(seq[0], seq[1]);
  SnapMutation m;
  m.extraSnaps.emplace_back(
      0, DeliverySnapshot{inst.sim->now() + 1, 0, std::move(seq)});
  const CommitCheckReport rep = checkCommitSafety(replayTrace(src, m), fp);
  EXPECT_GT(rep.revokedCommits, 0u);
}

TEST(CommitMutationTest, TruncatedSequenceAfterIndicationRejected) {
  ScenarioInstance inst = healthyCommitRun();
  const Trace& src = inst.sim->trace();
  std::vector<MsgId> seq = src.currentDelivered(1);
  ASSERT_GE(seq.size(), 1u);
  seq.resize(seq.size() / 2);
  SnapMutation m;
  m.extraSnaps.emplace_back(
      1, DeliverySnapshot{inst.sim->now() + 1, 0, std::move(seq)});
  const CommitCheckReport rep =
      checkCommitSafety(replayTrace(src, m), inst.sim->failurePattern());
  EXPECT_GT(rep.revokedCommits, 0u);
}

TEST(CommitMutationTest, SameTimestampAlignmentIsNotARevocation) {
  // Within one step the automaton rewrites d_i and THEN indicates the
  // aligned prefix, all at one simulated time. The checker must order by
  // record order, not timestamp — a regression test for the phantom
  // revocations wfd_explore exposed.
  Trace t(2, true);
  const MsgId a = makeMsgId(0, 0);
  const MsgId b = makeMsgId(1, 0);
  t.recordDelivered(0, 100, {a});
  // Same timestamp: d_i rewritten (revocation of the OLD view), then the
  // indication for the NEW view.
  t.recordDelivered(0, 200, {b, a});
  t.recordOutput(0, 200, Payload::of(CommittedPrefix{2}));
  const CommitCheckReport rep =
      checkCommitSafety(t, FailurePattern::noFailures(2));
  EXPECT_EQ(rep.indications, 1u);
  EXPECT_EQ(rep.revokedCommits, 0u);
}

TEST(CommitMutationTest, SameTimestampRevocationAfterIndicationStillCaught) {
  // The symmetric case: the snapshot that breaks the prefix is recorded
  // AFTER the indication at the same timestamp — that one must fail.
  Trace t(2, true);
  const MsgId a = makeMsgId(0, 0);
  const MsgId b = makeMsgId(1, 0);
  t.recordDelivered(0, 100, {a, b});
  t.recordOutput(0, 100, Payload::of(CommittedPrefix{2}));
  t.recordDelivered(0, 100, {b, a});
  const CommitCheckReport rep =
      checkCommitSafety(t, FailurePattern::noFailures(2));
  EXPECT_EQ(rep.revokedCommits, 1u);
}

}  // namespace
}  // namespace wfd
