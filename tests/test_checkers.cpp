// Unit tests: the property checkers themselves, driven with synthetic
// traces — a checker bug would silently invalidate every integration
// test, so each property's detector is exercised both ways.
#include <gtest/gtest.h>

#include "checkers/broadcast_log.h"
#include "checkers/commit_checker.h"
#include "checkers/ec_checker.h"
#include "checkers/tob_checker.h"
#include "common/ensure.h"
#include "ec/ec_types.h"
#include "etob/commit_etob.h"
#include "sim/failure_pattern.h"
#include "sim/trace.h"

namespace wfd {
namespace {

AppMsg msg(ProcessId origin, std::uint32_t seq,
           std::vector<MsgId> deps = {}) {
  AppMsg m;
  m.id = makeMsgId(origin, seq);
  m.origin = origin;
  m.causalDeps = std::move(deps);
  return m;
}

// --- Broadcast checker -------------------------------------------------------

TEST(BroadcastCheckerTest, CleanRunPasses) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0), b = msg(1, 0);
  log.record(a, 10);
  log.record(b, 12);
  trace.recordDelivered(0, 50, {a.id, b.id});
  trace.recordDelivered(1, 55, {a.id, b.id});
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_TRUE(report.coreOk());
  EXPECT_TRUE(report.strongTobOk());
  EXPECT_TRUE(report.causalOrderOk);
  EXPECT_EQ(report.tau, 0u);
}

TEST(BroadcastCheckerTest, DetectsValidityViolation) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0);
  log.record(a, 10);
  trace.recordDelivered(1, 50, {a.id});  // origin itself never delivers
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_FALSE(report.validityOk);
}

TEST(BroadcastCheckerTest, ValidityIgnoresFaultyOrigins) {
  auto fp = FailurePattern::crashesAt(2, {{0, 20}});
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0);
  log.record(a, 10);
  // Nobody delivers a's message; p0 is faulty so validity doesn't apply.
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_TRUE(report.validityOk);
}

TEST(BroadcastCheckerTest, DetectsAgreementViolation) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0);
  log.record(a, 10);
  trace.recordDelivered(0, 50, {a.id});
  // p1 never delivers a.
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_FALSE(report.agreementOk);
}

TEST(BroadcastCheckerTest, DetectsNoCreationViolation) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  trace.recordDelivered(0, 50, {makeMsgId(1, 9)});  // never broadcast
  trace.recordDelivered(1, 52, {makeMsgId(1, 9)});
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_FALSE(report.noCreationOk);
}

TEST(BroadcastCheckerTest, DetectsDeliveryBeforeBroadcast) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0);
  log.record(a, 100);
  trace.recordDelivered(0, 50, {a.id});  // delivered before broadcast
  trace.recordDelivered(1, 120, {a.id});
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_FALSE(report.noCreationOk);
}

TEST(BroadcastCheckerTest, DetectsDuplication) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0);
  log.record(a, 10);
  trace.recordDelivered(0, 50, {a.id, a.id});
  trace.recordDelivered(1, 50, {a.id});
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_FALSE(report.noDuplicationOk);
}

TEST(BroadcastCheckerTest, ComputesStabilityTau) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0), b = msg(1, 0);
  log.record(a, 10);
  log.record(b, 12);
  trace.recordDelivered(0, 40, {b.id});
  trace.recordDelivered(0, 60, {a.id, b.id});  // rewrite at t=60
  trace.recordDelivered(1, 70, {a.id, b.id});
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_TRUE(report.coreOk());
  EXPECT_EQ(report.tauStability, 61u);
  EXPECT_FALSE(report.strongTobOk());
}

TEST(BroadcastCheckerTest, ComputesTotalOrderTau) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0), b = msg(1, 0);
  log.record(a, 10);
  log.record(b, 12);
  // Divergent orders at t=40/45, then both converge via rewrites.
  trace.recordDelivered(0, 40, {a.id, b.id});
  trace.recordDelivered(1, 45, {b.id, a.id});
  trace.recordDelivered(1, 80, {a.id, b.id});
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_GE(report.tauTotalOrder, 45u);
  EXPECT_TRUE(report.agreementOk);
}

TEST(BroadcastCheckerTest, DetectsCausalViolation) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0);
  const AppMsg b = msg(1, 0, {a.id});  // b depends on a
  log.record(a, 10);
  log.record(b, 20);
  trace.recordDelivered(0, 50, {b.id, a.id});  // b before its dependency
  trace.recordDelivered(1, 50, {b.id, a.id});
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_FALSE(report.causalOrderOk);
}

TEST(BroadcastCheckerTest, TransitiveCausalViolationDetected) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  BroadcastLog log;
  const AppMsg a = msg(0, 0);
  const AppMsg b = msg(1, 0, {a.id});
  const AppMsg c = msg(0, 1, {b.id});  // c -> b -> a transitively
  log.record(a, 10);
  log.record(b, 20);
  log.record(c, 30);
  trace.recordDelivered(0, 50, {c.id, a.id});  // c before a: transitive dep
  trace.recordDelivered(1, 50, {c.id, a.id});
  const auto report = checkBroadcastRun(trace, log, fp);
  EXPECT_FALSE(report.causalOrderOk);
}

TEST(BroadcastCheckerTest, RejectsTraceWithoutSnapshots) {
  // Without snapshots every d_i history reads as "never held anything":
  // an id nobody broadcast, held by d_0 and dropped again, would pass
  // no-creation. The checker refuses such a trace instead of judging it.
  const auto fp = FailurePattern::noFailures(2);
  const BroadcastLog log;
  for (const bool keepSnapshots : {true, false}) {
    SCOPED_TRACE(keepSnapshots);
    Trace trace(2, keepSnapshots);
    trace.recordDelivered(0, 50, {makeMsgId(1, 9)});  // never broadcast
    trace.recordDelivered(0, 60, {});
    if (keepSnapshots) {
      EXPECT_FALSE(checkBroadcastRun(trace, log, fp).noCreationOk);
    } else {
      EXPECT_THROW(checkBroadcastRun(trace, log, fp), InvariantError);
    }
  }
}

// --- Commit checker ----------------------------------------------------------

TEST(CommitCheckerTest, RejectsTraceWithoutSnapshots) {
  // d_1 = {m}, then CommittedPrefix{1}: a safe commit. Without snapshots
  // d_1 reads as empty at the indication, which would count as a revoked
  // commit. The checker refuses such a trace instead of judging it.
  const auto fp = FailurePattern::noFailures(2);
  for (const bool keepSnapshots : {true, false}) {
    SCOPED_TRACE(keepSnapshots);
    Trace trace(2, keepSnapshots);
    trace.recordDelivered(1, 50, {makeMsgId(0, 0)});
    trace.recordOutput(1, 50, Payload::of(CommittedPrefix{1}));
    if (keepSnapshots) {
      EXPECT_EQ(checkCommitSafety(trace, fp).revokedCommits, 0u);
    } else {
      EXPECT_THROW(checkCommitSafety(trace, fp), InvariantError);
    }
  }
}

// --- EC checker --------------------------------------------------------------

Payload propose(Instance l, std::uint64_t v) {
  return Payload::of(ProposalMade{l, Value{v}});
}
Payload decide(Instance l, std::uint64_t v) {
  return Payload::of(EcDecision{l, Value{v}});
}

TEST(EcCheckerTest, CleanRunPasses) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  for (ProcessId p = 0; p < 2; ++p) {
    trace.recordOutput(p, 10, propose(1, 1));
    trace.recordOutput(p, 20, decide(1, 1));
  }
  const auto report = checkEcRun(trace, fp);
  EXPECT_TRUE(report.integrityOk);
  EXPECT_TRUE(report.validityOk);
  EXPECT_EQ(report.decidedByAllCorrect, 1u);
  EXPECT_EQ(report.agreementFromK, 1u);
}

TEST(EcCheckerTest, DetectsIntegrityViolation) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  trace.recordOutput(0, 10, propose(1, 1));
  trace.recordOutput(0, 20, decide(1, 1));
  trace.recordOutput(0, 25, decide(1, 1));  // responds twice
  const auto report = checkEcRun(trace, fp);
  EXPECT_FALSE(report.integrityOk);
}

TEST(EcCheckerTest, DetectsValidityViolation) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  trace.recordOutput(0, 10, propose(1, 0));
  trace.recordOutput(0, 20, decide(1, 1));  // 1 was never proposed
  const auto report = checkEcRun(trace, fp);
  EXPECT_FALSE(report.validityOk);
}

TEST(EcCheckerTest, AgreementFromKTracksLastDisagreement) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  for (Instance l = 1; l <= 3; ++l) {
    trace.recordOutput(0, l * 10, propose(l, 0));
    trace.recordOutput(1, l * 10, propose(l, 1));
  }
  trace.recordOutput(0, 100, decide(1, 0));
  trace.recordOutput(1, 100, decide(1, 1));  // disagree at 1
  trace.recordOutput(0, 110, decide(2, 1));
  trace.recordOutput(1, 110, decide(2, 1));  // agree at 2
  trace.recordOutput(0, 120, decide(3, 0));
  trace.recordOutput(1, 120, decide(3, 0));  // agree at 3
  const auto report = checkEcRun(trace, fp);
  EXPECT_EQ(report.agreementFromK, 2u);
  EXPECT_EQ(report.decidedByAllCorrect, 3u);
}

TEST(EcCheckerTest, TerminationCountsContiguousOnly) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  for (ProcessId p = 0; p < 2; ++p) {
    trace.recordOutput(p, 10, propose(1, 1));
    trace.recordOutput(p, 10, propose(3, 1));
    trace.recordOutput(p, 20, decide(1, 1));
    trace.recordOutput(p, 30, decide(3, 1));  // gap at 2
  }
  const auto report = checkEcRun(trace, fp);
  EXPECT_EQ(report.decidedByAllCorrect, 1u);
}

// --- EIC checker -------------------------------------------------------------

Payload decideEic(Instance l, std::uint64_t v) {
  return Payload::of(EicDecision{l, Value{v}});
}

TEST(EicCheckerTest, RevisionsAllowedBeforeK) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  for (ProcessId p = 0; p < 2; ++p) {
    trace.recordOutput(p, 10, Payload::of(ProposalMade{1, Value{0}}));
    trace.recordOutput(p, 10, Payload::of(ProposalMade{1, Value{1}}));
    trace.recordOutput(p, 10, Payload::of(ProposalMade{2, Value{1}}));
  }
  trace.recordOutput(0, 20, decideEic(1, 0));
  trace.recordOutput(0, 30, decideEic(1, 1));  // revision of instance 1
  trace.recordOutput(1, 25, decideEic(1, 1));
  trace.recordOutput(0, 40, decideEic(2, 1));
  trace.recordOutput(1, 40, decideEic(2, 1));
  const auto report = checkEicRun(trace, fp);
  EXPECT_TRUE(report.validityOk);
  EXPECT_TRUE(report.finalAgreementOk);
  EXPECT_EQ(report.integrityFromK, 2u);
  EXPECT_EQ(report.decidedByAllCorrect, 2u);
}

TEST(EicCheckerTest, DetectsFinalDisagreement) {
  auto fp = FailurePattern::noFailures(2);
  Trace trace(2);
  for (ProcessId p = 0; p < 2; ++p) {
    trace.recordOutput(p, 10, Payload::of(ProposalMade{1, Value{0}}));
    trace.recordOutput(p, 10, Payload::of(ProposalMade{1, Value{1}}));
  }
  trace.recordOutput(0, 20, decideEic(1, 0));
  trace.recordOutput(1, 20, decideEic(1, 1));
  const auto report = checkEicRun(trace, fp);
  EXPECT_FALSE(report.finalAgreementOk);
}

}  // namespace
}  // namespace wfd
