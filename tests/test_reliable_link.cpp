// Reliable-link layer tests: the pure backoff policy, the simulator's
// stubborn-retransmission machinery under real loss (determinism,
// exactly-once through loss+duplication, the loss=0 ≡ legacy
// differential), and the crashed-peer drain that keeps retransmit
// buffers bounded.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "checkers/tob_checker.h"
#include "checkers/trace_digest.h"
#include "checkers/workload.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "link/reliable_link.h"
#include "sim/failure_pattern.h"
#include "sim/lossy_model.h"
#include "sim/simulator.h"

namespace wfd {
namespace {

// --- Pure policy helpers -----------------------------------------------------

TEST(BackoffPolicyTest, InitialRtoCoversALossFreeRoundTrip) {
  // 2 * maxDelay (data + ack flight) + one λ-period of slack + 1: under a
  // lossless uniform network the ack ALWAYS beats the first retry, which
  // is what keeps the loss=0 differential digest-identical.
  EXPECT_EQ(initialRto(40, 10), 91u);
  EXPECT_EQ(initialRto(1, 1), 4u);
}

TEST(BackoffPolicyTest, BackoffDoublesThenPinsAtTheCap) {
  const Time rto0 = initialRto(40, 10);
  const Time cap = kRtoCapFactor * rto0;
  Time rto = rto0;
  std::vector<Time> ladder;
  for (int i = 0; i < 8; ++i) {
    rto = nextBackoff(rto, cap);
    ladder.push_back(rto);
  }
  EXPECT_EQ(ladder,
            (std::vector<Time>{182, 364, 728, 1456, 1456, 1456, 1456, 1456}));
}

TEST(ReliableLinkTest, TrackAckDrainLifecycle) {
  ReliableLink link(100, 1600);
  link.track(7, /*from=*/0, /*to=*/1, /*msgSlot=*/42);
  EXPECT_EQ(link.pending(), 1u);
  ASSERT_NE(link.peek(7), nullptr);
  EXPECT_EQ(link.peek(7)->from, 0u);
  EXPECT_EQ(link.peek(7)->to, 1u);

  // First retry doubles the RTO and hands the slot back for re-sending.
  const ReliableLink::Retransmit rt = link.retransmitted(7);
  EXPECT_EQ(rt.msgSlot, 42u);
  EXPECT_EQ(rt.nextRetryDelay, 200u);
  EXPECT_EQ(link.retransmissions(), 1u);

  // Ack erases the state; a duplicate ack is an idempotent no-op (it
  // retires nothing and is not counted) and a stale retry timer sees
  // nullptr.
  EXPECT_EQ(link.acked(7), 42u);
  EXPECT_EQ(link.acked(7), ReliableLink::kNoSlot);
  EXPECT_EQ(link.peek(7), nullptr);
  EXPECT_EQ(link.pending(), 0u);
  EXPECT_EQ(link.acksReceived(), 1u);

  // Drain path: tracked, then dropped without retransmission.
  link.track(8, 1, 2, 43);
  EXPECT_EQ(link.drain(8), 43u);
  EXPECT_EQ(link.drained(), 1u);
  EXPECT_EQ(link.pending(), 0u);
}

// --- Simulator integration ---------------------------------------------------

struct LossyRun {
  std::uint64_t digest = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t drained = 0;
  std::uint64_t acksDelivered = 0;
  std::uint64_t droppedSends = 0;
  std::uint64_t duplicatesSuppressed = 0;
  std::size_t pendingAtEnd = 0;
  bool checkerPass = false;
  std::string firstFailure;
};

/// Runs the eTOB stack on the given network with an optional crash,
/// returning the digest + link-layer counters + broadcast checker verdict.
LossyRun runEtob(std::shared_ptr<const NetworkModel> model, std::uint64_t seed,
                 Time maxTime, ProcessId crashed = kNoProcess,
                 Time crashAt = 0) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = seed;
  cfg.maxTime = maxTime;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  FailurePattern fp = FailurePattern::noFailures(3);
  if (crashed != kNoProcess) fp.setCrash(crashed, crashAt);
  auto omega =
      std::make_shared<OmegaFd>(fp, 1000, OmegaPreStabilization::kSplitBrain);
  Simulator sim(cfg, fp, omega, std::move(model));
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 50;
  w.perProcess = 5;
  const BroadcastLog log = scheduleBroadcastWorkload(sim, w);
  sim.run();

  LossyRun out;
  out.digest = traceDigest(sim.trace());
  out.retransmissions = sim.linkRetransmissions();
  out.drained = sim.linkDrained();
  out.acksDelivered = sim.linkAcksDelivered();
  out.droppedSends = sim.linkDroppedSends();
  out.duplicatesSuppressed = sim.duplicatesSuppressed();
  out.pendingAtEnd = sim.pendingLinkTx();
  const BroadcastCheckReport check =
      checkBroadcastRun(sim.trace(), log, sim.failurePattern());
  out.checkerPass = check.coreOk();
  if (!out.checkerPass && !check.errors.empty()) {
    out.firstFailure = check.errors.front();
  }
  return out;
}

std::shared_ptr<const NetworkModel> iidLossyNet(std::uint32_t num,
                                                std::uint32_t den,
                                                Time activeUntil) {
  IidLossModel::Config loss;
  loss.num = num;
  loss.den = den;
  loss.activeUntil = activeUntil;
  return std::make_shared<IidLossModel>(
      std::make_shared<UniformDelayModel>(20, 40), loss);
}

TEST(SimulatorLinkLayerTest, LossyRunsAreSeedDeterministic) {
  const LossyRun a = runEtob(iidLossyNet(1, 5, 8000), 11, 20000);
  const LossyRun b = runEtob(iidLossyNet(1, 5, 8000), 11, 20000);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.droppedSends, b.droppedSends);
  // Non-vacuity: the adversary really dropped copies and the link layer
  // really re-sent them; the checker still passes (no lost broadcasts).
  EXPECT_GT(a.droppedSends, 0u);
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_TRUE(a.checkerPass) << a.firstFailure;
  // Different seeds explore different lossy schedules.
  EXPECT_NE(a.digest, runEtob(iidLossyNet(1, 5, 8000), 12, 20000).digest);
}

TEST(SimulatorLinkLayerTest, ExactlyOnceUnderLossPlusDuplication) {
  // Chaos duplicates aggressively below an i.i.d. loss layer: copies are
  // both multiplied and dropped, retransmits re-deliver already-seen
  // uids — and the automaton boundary still sees every message exactly
  // once (checkBroadcastRun's no-duplication clause).
  ChaosLinkModel::Config chaos;
  chaos.dupNum = 1;
  chaos.dupDen = 2;
  chaos.maxExtraCopies = 2;
  chaos.reorderJitter = 15;
  IidLossModel::Config loss;
  loss.num = 1;
  loss.den = 5;
  loss.activeUntil = 8000;
  auto net = std::make_shared<IidLossModel>(
      std::make_shared<ChaosLinkModel>(
          std::make_shared<UniformDelayModel>(20, 40), chaos),
      loss);
  const LossyRun r = runEtob(net, 3, 20000);
  EXPECT_TRUE(r.checkerPass) << r.firstFailure;
  EXPECT_GT(r.duplicatesSuppressed, 0u);
  EXPECT_GT(r.retransmissions, 0u);
}

TEST(SimulatorLinkLayerTest, RateZeroLossMatchesLegacyDigest) {
  // The retransmission layer armed on a network that never drops must be
  // INVISIBLE: same digest as the plain uniform-delay run (acks ride a
  // separate rng and never reach the trace; the first transmission uses
  // the main rng draw sequence unchanged; no retry ever fires because
  // the initial RTO exceeds the worst loss-free round trip).
  const LossyRun legacy = runEtob(nullptr, 7, 15000);
  const LossyRun gated = runEtob(iidLossyNet(0, 1, 0), 7, 15000);
  EXPECT_EQ(gated.digest, legacy.digest);
  EXPECT_EQ(gated.retransmissions, 0u);
  EXPECT_EQ(gated.droppedSends, 0u);
  // Non-vacuity: the layer was actually engaged, acks actually flowed.
  // (pendingLinkTx stays nonzero — eTOB keeps sending right up to
  // maxTime, so an in-flight ack tail always exists — but nothing was
  // ever dropped from the buffer.)
  EXPECT_EQ(legacy.acksDelivered, 0u);
  EXPECT_GT(gated.acksDelivered, 0u);
  EXPECT_EQ(gated.drained, 0u);
}

TEST(SimulatorLinkLayerTest, RetransmissionToCrashedPeerStops) {
  // Loss active FOREVER and one peer crashes mid-run: retransmissions to
  // the dead peer must drain at the next retry instead of backing off
  // forever, so the pending-tx buffer empties and the event queue goes
  // quiet (the unbounded-buffer regression this satellite pins).
  const LossyRun r =
      runEtob(iidLossyNet(1, 5, /*activeUntil=*/0), 5, 30000,
              /*crashed=*/2, /*crashAt=*/1500);
  EXPECT_GT(r.drained, 0u);
  EXPECT_TRUE(r.checkerPass) << r.firstFailure;
  // Doubling the horizon must not grow the pending buffer: every message
  // to the dead peer drains at its next retry, so the buffer holds only
  // the recent in-flight tail (a steady state, not a leak). Retransmit
  // work grows at most linearly with the horizon — stubbornness never
  // compounds on a dead link.
  const LossyRun longer =
      runEtob(iidLossyNet(1, 5, 0), 5, 60000, 2, 1500);
  EXPECT_LE(longer.pendingAtEnd, 2 * r.pendingAtEnd);
  EXPECT_LT(longer.retransmissions, 3 * r.retransmissions);
  EXPECT_LT(longer.drained, 3 * r.drained);
}

}  // namespace
}  // namespace wfd
