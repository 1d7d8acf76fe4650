// Partition windows: the deferral rule every arrival goes through, and
// mutation tests for the indexed path (PartitionSpec::componentOf).
//
// The flat component index replaced a std::function predicate on the
// deferral hot path; an index bug that silently cut nothing (or cut
// everything symmetric when the scenario meant one-way) would still
// produce *a* valid-looking run. So beyond the unit checks, every
// structural mutation here — dropping an overlapping spec, flipping a
// cut's direction, moving a heal boundary by one tick — must flip the
// run digest (or a checker) relative to the baseline. A mutation that
// does NOT flip anything means the feature under test is unobservable,
// which is the failure mode these tests exist to catch.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "checkers/trace_digest.h"
#include "checkers/workload.h"
#include "common/ensure.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "sim/simulator.h"

namespace wfd {
namespace {

constexpr std::size_t kN = 5;
constexpr std::size_t kHalf = 2;  // boundary: {0,1} vs {2,3,4}

/// One eTOB run over the given partition specs; returns (digest,
/// converged). Everything except the specs is fixed, so any digest
/// difference between two calls is attributable to the specs alone.
std::pair<std::uint64_t, bool> runWithSpecs(std::vector<PartitionSpec> specs) {
  SimConfig cfg;
  cfg.processCount = kN;
  cfg.seed = 21;
  cfg.maxTime = 9000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  cfg.partitions = std::move(specs);
  auto fp = FailurePattern::noFailures(kN);
  auto omega =
      std::make_shared<OmegaFd>(fp, 800, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < kN; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 50;
  w.perProcess = 4;
  const BroadcastLog log = scheduleBroadcastWorkload(sim, w);
  sim.run();
  return {traceDigest(sim.trace()), broadcastConverged(sim, log)};
}

PartitionSpec indexedHalves(Time start, Time width, Time period) {
  PartitionSpec s;
  s.start = start;
  s.width = width;
  s.period = period;
  s.componentOf = PartitionSpec::splitAt(kN, kHalf);
  return s;
}

// --- cuts() unit semantics --------------------------------------------------

TEST(PartitionSpecCutsTest, ComponentIndexCutsExactlyCrossComponentLinks) {
  PartitionSpec s;
  s.componentOf = PartitionSpec::splitAt(6, 3);
  for (ProcessId a = 0; a < 6; ++a) {
    for (ProcessId b = 0; b < 6; ++b) {
      EXPECT_EQ(s.cuts(a, b), (a < 3) != (b < 3)) << a << "->" << b;
      EXPECT_EQ(s.cuts(a, b), s.cuts(b, a)) << "index cuts are symmetric";
    }
  }
}

TEST(PartitionSpecCutsTest, ComponentIndexTakesPrecedenceOverPredicate) {
  PartitionSpec s;
  s.affects = [](ProcessId, ProcessId) { return true; };
  s.componentOf.assign(4, 0);  // one component: cuts nothing
  EXPECT_FALSE(s.cuts(0, 3));
  s.componentOf.clear();  // back to the predicate
  EXPECT_TRUE(s.cuts(0, 3));
}

TEST(PartitionSpecCutsTest, EmptyIndexNullPredicateAffectsAllLinks) {
  PartitionSpec s;
  EXPECT_TRUE(s.cuts(0, 1));
  EXPECT_TRUE(s.cuts(1, 0));
}

TEST(PartitionSpecCutsTest, OutOfRangeProcessIdIsAnInvariantError) {
  PartitionSpec s;
  s.componentOf = PartitionSpec::splitAt(4, 2);
  EXPECT_THROW(s.cuts(4, 0), InvariantError);
  EXPECT_THROW(s.cuts(0, 4), InvariantError);
}

TEST(PartitionSpecCutsTest, SplitAtDegenerateBoundariesCutNothing) {
  // boundary 0 puts everyone at/above the boundary; boundary n puts
  // everyone below it — either way one component, no cut links.
  PartitionSpec lo;
  lo.componentOf = PartitionSpec::splitAt(3, 0);
  PartitionSpec hi;
  hi.componentOf = PartitionSpec::splitAt(3, 3);
  for (ProcessId a = 0; a < 3; ++a) {
    for (ProcessId b = 0; b < 3; ++b) {
      EXPECT_FALSE(lo.cuts(a, b));
      EXPECT_FALSE(hi.cuts(a, b));
    }
  }
}

// --- Deferral: arrivals inside a window move to its end --------------------

TEST(PartitionDeferralTest, OneShotWindowDefersToHealPoint) {
  PartitionSpec w;
  w.start = 100;
  w.width = 50;
  w.period = 0;
  EXPECT_EQ(deferPastPartitions({w}, 0, 1, 110), 150u);  // inside the window
  EXPECT_EQ(deferPastPartitions({w}, 0, 1, 210), 210u);  // after: untouched
}

TEST(PartitionDeferralTest, PeriodicWindowsDeferEveryRecurrence) {
  PartitionSpec w;
  w.start = 0;
  w.width = 30;
  w.period = 100;  // closed [0,30), [100,130), [200,230), ...
  EXPECT_EQ(deferPastPartitions({w}, 0, 1, 115), 130u);  // inside [100,130)
  EXPECT_EQ(deferPastPartitions({w}, 0, 1, 250), 250u);  // in a gap
  EXPECT_EQ(deferPastPartitions({w}, 0, 1, 305), 330u);  // inside [300,330)
}

TEST(PartitionDeferralTest, LinkFilterLimitsTheBlastRadius) {
  PartitionSpec w;
  w.start = 0;
  w.width = 1000;
  w.period = 0;
  w.affects = [](ProcessId from, ProcessId) { return from == 0; };
  EXPECT_EQ(deferPastPartitions({w}, 0, 1, 60), 1000u);
  EXPECT_EQ(deferPastPartitions({w}, 1, 0, 60), 60u);
}

TEST(PartitionDeferralTest, JointlyGaplessSpecsRejectedNotLooped) {
  // Each spec individually leaves a gap (width < period), but together
  // they cover all time on the link: A owns [0,10)+20k, B owns
  // [10,20)+20k. Deferral can never escape; the fixed point must raise
  // an invariant error instead of hanging.
  PartitionSpec a;
  a.start = 0;
  a.width = 10;
  a.period = 20;
  PartitionSpec b;
  b.start = 10;
  b.width = 10;
  b.period = 20;
  EXPECT_THROW(deferPastPartitions({a, b}, 0, 1, 105), InvariantError);
}

TEST(PartitionDeferralTest, ChainedWindowsConvergeAcrossSpecs) {
  // A defers into B's window, B defers out: two passes, then done.
  PartitionSpec a;
  a.start = 100;
  a.width = 50;
  a.period = 0;
  PartitionSpec b;
  b.start = 150;
  b.width = 25;
  b.period = 0;
  EXPECT_EQ(deferPastPartitions({a, b}, 0, 1, 110), 175u);  // 150 (A) -> 175
}

TEST(PartitionDeferralTest, RejectsGaplessRecurringWindows) {
  PartitionSpec w;
  w.start = 0;
  w.width = 100;
  w.period = 100;  // no gap: deferral would never terminate
  SimConfig cfg;
  cfg.processCount = 2;
  cfg.partitions = {w};
  auto fp = FailurePattern::noFailures(2);
  EXPECT_THROW(Simulator(cfg, fp, std::make_shared<PerfectFd>(fp)),
               InvariantError);
}

TEST(PartitionDeferralTest, JointlyCoveringSpecsAreAnInvariantErrorNotAHang) {
  // Each spec individually leaves a gap (width < period), but together
  // they cover all time on the link — a dropped message in disguise.
  PartitionSpec a = indexedHalves(0, 500, 1000);
  PartitionSpec b = indexedHalves(500, 500, 1000);
  EXPECT_THROW(deferPastPartitions({a, b}, 0, 3, 100), InvariantError);
}

// --- Index == predicate: the rewrite is behavior-preserving -----------------

TEST(PartitionIndexEquivalenceTest, IndexAndPredicateFormsRunIdentically) {
  PartitionSpec indexed = indexedHalves(400, 300, 900);
  PartitionSpec scanned;
  scanned.start = 400;
  scanned.width = 300;
  scanned.period = 900;
  scanned.affects = [](ProcessId from, ProcessId to) {
    return (from < kHalf) != (to < kHalf);
  };
  const auto a = runWithSpecs({indexed});
  const auto b = runWithSpecs({scanned});
  EXPECT_EQ(a.first, b.first) << "componentOf must cut the same links as "
                                 "the predicate it replaced";
  EXPECT_TRUE(a.second) << "baseline partition run must still converge";
  EXPECT_TRUE(b.second);
}

// --- Mutations: each feature must be observable -----------------------------

TEST(PartitionMutationTest, PartitionItselfFlipsTheDigest) {
  // Sanity anchor for every EXPECT_NE below: the baseline spec set is
  // observable against no partition at all.
  const auto cut = runWithSpecs({indexedHalves(400, 300, 900)});
  const auto open = runWithSpecs({});
  EXPECT_NE(cut.first, open.first);
  EXPECT_TRUE(cut.second);
  EXPECT_TRUE(open.second);
}

TEST(PartitionMutationTest, OneWayCutDiffersFromSymmetricAndFromItsReverse) {
  // The index form is symmetric by construction; one-way cuts go through
  // the predicate. If direction were ignored anywhere on the deferral
  // path, the three runs below could not all be distinct.
  PartitionSpec forward;
  forward.start = 400;
  forward.width = 300;
  forward.period = 900;
  forward.affects = [](ProcessId from, ProcessId to) {
    return from < kHalf && to >= kHalf;
  };
  PartitionSpec reverse = forward;
  reverse.affects = [](ProcessId from, ProcessId to) {
    return from >= kHalf && to < kHalf;
  };
  const auto sym = runWithSpecs({indexedHalves(400, 300, 900)});
  const auto fwd = runWithSpecs({forward});
  const auto rev = runWithSpecs({reverse});
  EXPECT_NE(fwd.first, sym.first);
  EXPECT_NE(rev.first, sym.first);
  EXPECT_NE(fwd.first, rev.first);
  EXPECT_TRUE(fwd.second);
  EXPECT_TRUE(rev.second);
}

TEST(PartitionMutationTest, DroppingOneOverlappingSpecFlipsTheDigest) {
  // Two recurring windows with co-prime-ish periods overlap and chain
  // (the catalog's large-cluster-partitions-64 shape at small n). If the
  // fixed-point deferral ever stopped consulting the second spec, this
  // digest comparison is the tripwire.
  PartitionSpec halves = indexedHalves(400, 300, 900);
  PartitionSpec segment;
  segment.start = 700;
  segment.width = 200;
  segment.period = 1100;
  segment.componentOf = PartitionSpec::splitAt(kN, 4);  // isolate p4
  const auto both = runWithSpecs({halves, segment});
  const auto justHalves = runWithSpecs({halves});
  const auto justSegment = runWithSpecs({segment});
  EXPECT_NE(both.first, justHalves.first);
  EXPECT_NE(both.first, justSegment.first);
  EXPECT_TRUE(both.second);
}

TEST(PartitionMutationTest, MovingTheHealBoundaryFlipsTheDigest) {
  // One-shot window spanning the workload: messages in flight at the
  // heal are released exactly at start + width, so the heal time is
  // part of the schedule. Two granularity facts are pinned here:
  // automaton-visible behavior is quantized to the lambda-step grid
  // (timeoutPeriod = 10), so a sub-lambda heal shift is absorbed, while
  // a one-lambda-period shift must flip the digest — if it does not,
  // deferrals are not actually landing on the window edge.
  const auto heal = runWithSpecs({indexedHalves(150, 400, 0)});
  const auto healTick = runWithSpecs({indexedHalves(150, 401, 0)});
  const auto healStep = runWithSpecs({indexedHalves(150, 410, 0)});
  const auto open = runWithSpecs({});
  EXPECT_NE(heal.first, open.first) << "one-shot window must be observable";
  EXPECT_EQ(heal.first, healTick.first)
      << "sub-lambda heal shifts quantize away";
  EXPECT_NE(heal.first, healStep.first);
  EXPECT_TRUE(heal.second);
  EXPECT_TRUE(healStep.second);
}

}  // namespace
}  // namespace wfd
