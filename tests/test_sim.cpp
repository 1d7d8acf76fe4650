// Unit tests: the simulation substrate — failure patterns, payloads,
// trace bookkeeping, scheduler admissibility (fairness + eventual
// delivery), crashes, partition windows and per-process clock skew.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "fd/detectors.h"
#include "helpers.h"
#include "common/rng.h"
#include "sim/composite.h"
#include "sim/event_queue.h"
#include "sim/failure_pattern.h"
#include "sim/payload.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace wfd {
namespace {

// --- FailurePattern ---------------------------------------------------------

TEST(FailurePatternTest, NoFailuresEverybodyCorrect) {
  auto fp = FailurePattern::noFailures(5);
  EXPECT_EQ(fp.correctSet().size(), 5u);
  EXPECT_TRUE(fp.hasCorrectMajority());
  EXPECT_EQ(fp.lowestCorrect(), 0u);
  EXPECT_EQ(fp.lastCrashTime(), 0u);
}

TEST(FailurePatternTest, CrashMonotone) {
  FailurePattern fp(3);
  fp.setCrash(1, 100);
  EXPECT_FALSE(fp.crashed(1, 99));
  EXPECT_TRUE(fp.crashed(1, 100));
  EXPECT_TRUE(fp.crashed(1, 1000));  // F(t) ⊆ F(t+1)
  EXPECT_TRUE(fp.faulty(1));
  EXPECT_FALSE(fp.correct(1));
}

TEST(FailurePatternTest, AliveAtReflectsCrashTimes) {
  auto fp = FailurePattern::crashesAt(4, {{3, 10}, {2, 20}});
  EXPECT_EQ(fp.aliveAt(5).size(), 4u);
  EXPECT_EQ(fp.aliveAt(15).size(), 3u);
  EXPECT_EQ(fp.aliveAt(25).size(), 2u);
  EXPECT_EQ(fp.correctSet(), (std::vector<ProcessId>{0, 1}));
}

TEST(FailurePatternTest, MinorityCrashKeepsMajority) {
  auto fp = Environments::minorityCrash(5, 10);
  EXPECT_TRUE(fp.hasCorrectMajority());
  EXPECT_EQ(fp.correctSet().size(), 3u);
}

TEST(FailurePatternTest, MajorityCrashLosesMajority) {
  auto fp = Environments::majorityCrash(5, 10);
  EXPECT_FALSE(fp.hasCorrectMajority());
  EXPECT_EQ(fp.correctSet().size(), 2u);
  EXPECT_EQ(fp.lowestCorrect(), 0u);
}

TEST(FailurePatternTest, StaggeredCrashesHighIdsFirst) {
  auto fp = Environments::staggeredCrashes(5, 2, 100, 50);
  EXPECT_EQ(fp.crashTime(4), 100u);
  EXPECT_EQ(fp.crashTime(3), 150u);
  EXPECT_EQ(fp.crashTime(0), FailurePattern::kNever);
  EXPECT_EQ(fp.lastCrashTime(), 150u);
}

TEST(FailurePatternTest, RejectsTooFewProcesses) {
  EXPECT_THROW(FailurePattern(1), InvariantError);
}

// --- Payload ----------------------------------------------------------------

struct Ping {
  int n = 0;
};
struct Pong {
  int n = 0;
};

TEST(PayloadTest, TypedRoundTrip) {
  Payload p = Payload::of(Ping{7});
  ASSERT_NE(p.as<Ping>(), nullptr);
  EXPECT_EQ(p.as<Ping>()->n, 7);
  EXPECT_EQ(p.as<Pong>(), nullptr);
  EXPECT_TRUE(p.holds<Ping>());
  EXPECT_FALSE(p.holds<Pong>());
}

TEST(PayloadTest, EmptyPayload) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.as<Ping>(), nullptr);
  EXPECT_FALSE(p.holds<Ping>());
  EXPECT_FALSE(Payload::of(Ping{0}).empty());
}

struct DerivedPing : Ping {};

TEST(PayloadTest, MatchesOnlyTheExactType) {
  // Ping and Pong have the same layout; neither matches the other.
  static_assert(sizeof(Ping) == sizeof(Pong));
  EXPECT_EQ(Payload::of(Pong{3}).as<Ping>(), nullptr);
  EXPECT_EQ(Payload::of(Ping{3}).as<Pong>(), nullptr);
  // A derived type does not match its base, nor a base the derived type.
  const Payload derived = Payload::of(DerivedPing{});
  EXPECT_EQ(derived.as<Ping>(), nullptr);
  EXPECT_TRUE(derived.holds<DerivedPing>());
  EXPECT_FALSE(Payload::of(Ping{}).holds<DerivedPing>());
  // Like std::any_cast, a cv-qualified T names the same type.
  const Payload p = Payload::of(Ping{4});
  EXPECT_EQ(p.as<const Ping>(), p.as<Ping>());
}

TEST(PayloadTest, CopiesShareImmutableBox) {
  Payload a = Payload::of(Ping{1});
  Payload b = a;
  EXPECT_EQ(a.as<Ping>(), b.as<Ping>());  // same underlying object
  // The box lives as long as any copy does.
  const Ping* value = a.as<Ping>();
  a = Payload();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.as<Ping>(), value);
  EXPECT_EQ(b.as<Ping>()->n, 1);
}

TEST(TaggedTest, UnwrapChannelMatchesOnlyItsChannel) {
  Payload inner = Payload::of(Ping{5});
  Payload wrapped = Payload::of(Tagged{3, inner});
  EXPECT_EQ(unwrapChannel(wrapped, 4), nullptr);
  const Payload* got = unwrapChannel(wrapped, 3);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->as<Ping>()->n, 5);
  EXPECT_EQ(unwrapChannel(inner, 3), nullptr);  // not a Tagged payload
}

// --- Trace ------------------------------------------------------------------

TEST(TraceTest, RecordsOutputsPerProcess) {
  Trace t(2);
  t.recordOutput(0, 5, Payload::of(Ping{1}));
  t.recordOutput(0, 9, Payload::of(Ping{2}));
  ASSERT_EQ(t.outputs(0).size(), 2u);
  EXPECT_EQ(t.outputs(0)[1].time, 9u);
  EXPECT_TRUE(t.outputs(1).empty());
}

TEST(TraceTest, DeliverySnapshotsDedupUnchanged) {
  Trace t(2);
  t.recordDelivered(0, 1, {10});
  t.recordDelivered(0, 2, {10});  // unchanged — dropped
  t.recordDelivered(0, 3, {10, 11});
  EXPECT_EQ(t.deliverySnapshots(0).size(), 2u);
  EXPECT_EQ(t.currentDelivered(0), (std::vector<MsgId>{10, 11}));
}

TEST(TraceTest, PrefixViolationDetected) {
  Trace t(2);
  t.recordDelivered(0, 1, {10, 11});
  EXPECT_EQ(t.prefixViolations(0), 0u);
  t.recordDelivered(0, 2, {10, 11, 12});  // extension: fine
  EXPECT_EQ(t.prefixViolations(0), 0u);
  t.recordDelivered(0, 3, {11, 10, 12});  // reorder: violation
  EXPECT_EQ(t.prefixViolations(0), 1u);
  EXPECT_EQ(t.lastPrefixViolation(0), 3u);
}

TEST(TraceTest, RemovalIsPrefixViolation) {
  Trace t(2);
  t.recordDelivered(0, 1, {10, 11});
  t.recordDelivered(0, 2, {10});
  EXPECT_EQ(t.prefixViolations(0), 1u);
}

/// Trace::recordDelivered's observables for one process, recomputed
/// independently: the differential oracle below.
struct ReferenceDelivery {
  std::vector<MsgId> current;
  std::uint64_t prefixViolations = 0;
  Time lastViolationAt = 0;
  Time lastChangeAt = 0;
  std::vector<DeliverySnapshot> snapshots;
  std::uint64_t recordOrder = 0;

  bool record(Time t, std::vector<MsgId> seq) {
    std::vector<MsgId>& old = current;
    if (seq == old) return false;
    const bool isExtension =
        seq.size() >= old.size() && std::equal(old.begin(), old.end(), seq.begin());
    if (!isExtension) {
      ++prefixViolations;
      lastViolationAt = t;
    }
    lastChangeAt = t;
    old = std::move(seq);
    snapshots.push_back(DeliverySnapshot{t, recordOrder++, current});
    return true;
  }
};

TEST(TraceTest, RecordDeliveredMatchesTheFullScanOnRandomHistories) {
  // Extensions, removals, reorders, duplicates and empty sequences: the
  // change test, the prefix-violation accounting, the last change and
  // the snapshots must agree with the reference after every call.
  constexpr MsgId kIds = 24;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Trace trace(2);
    ReferenceDelivery ref[2];
    Time t = 0;
    std::uint64_t extensions = 0;
    for (int step = 0; step < 300; ++step) {
      const ProcessId p = static_cast<ProcessId>(rng.below(2));
      std::vector<MsgId> seq = ref[p].current;
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2:  // extend (ids may repeat)
          for (std::uint64_t k = rng.below(4); k > 0; --k) {
            seq.push_back(rng.below(kIds));
          }
          ++extensions;
          break;
        case 3:  // remove one
          if (!seq.empty()) {
            seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(rng.below(seq.size())));
          }
          break;
        case 4:  // reorder two
          if (seq.size() >= 2) {
            std::swap(seq[rng.below(seq.size())], seq[rng.below(seq.size())]);
          }
          break;
        case 5:  // append a duplicate of an entry
          if (!seq.empty()) seq.push_back(seq[rng.below(seq.size())]);
          break;
        case 6:  // empty
          seq.clear();
          break;
        default:  // truncate to a prefix
          seq.resize(rng.below(seq.size() + 1));
          break;
      }
      if (rng.chance(2, 3)) ++t;
      ASSERT_EQ(trace.recordDelivered(p, t, seq), ref[p].record(t, seq)) << step;
      for (ProcessId q = 0; q < 2; ++q) {
        const ReferenceDelivery& r = ref[q];
        ASSERT_EQ(trace.currentDelivered(q), r.current);
        ASSERT_EQ(trace.prefixViolations(q), r.prefixViolations);
        ASSERT_EQ(trace.lastPrefixViolation(q), r.lastViolationAt);
        ASSERT_EQ(trace.lastDeliveryChange(q), r.lastChangeAt);
        const auto& snaps = trace.deliverySnapshots(q);
        ASSERT_EQ(snaps.size(), r.snapshots.size());
        if (!snaps.empty()) {
          ASSERT_EQ(snaps.back().time, r.snapshots.back().time);
          ASSERT_EQ(snaps.back().order, r.snapshots.back().order);
          ASSERT_EQ(snaps.back().seq, r.snapshots.back().seq);
        }
      }
    }
    EXPECT_GT(extensions, 50u);
  }
}

// --- EventQueue --------------------------------------------------------------

struct QueueNode {
  Time time = 0;
  std::uint64_t seq = 0;
};

// Random pushes and pops against a std::priority_queue over (time, seq).
// Push times land on now's tick, near it, on the wheel's last tick, on
// the first tick past the wheel, far beyond it, and before now (which
// Simulator::scheduleInput accepts). A pop's limit is the head's time or
// later, and sometimes one tick before it, where nothing may pop.
TEST(EventQueueTest, PopsInTheReferenceOrder) {
  constexpr Time kWheel = EventQueue<QueueNode>::kWheelTicks;
  using Key = std::pair<Time, std::uint64_t>;
  std::uint64_t pops = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue<QueueNode> queue;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> reference;
    std::uint64_t nextSeq = 0;
    Time now = 0;
    const auto popBoth = [&] {
      ASSERT_FALSE(queue.empty());
      EXPECT_EQ(queue.top().time, reference.top().first);
      const Time due = reference.top().first;
      if (due > 0 && rng.chance(1, 4)) {
        ASSERT_FALSE(queue.popDue(due - 1).has_value())
            << "seed " << seed << ", pop " << pops;
        ASSERT_EQ(queue.size(), reference.size());
      }
      const std::optional<QueueNode> got = queue.popDue(due + rng.below(3));
      ASSERT_TRUE(got.has_value()) << "seed " << seed << ", pop " << pops;
      ASSERT_EQ(Key(got->time, got->seq), reference.top())
          << "seed " << seed << ", pop " << pops;
      reference.pop();
      now = std::max(now, got->time);
      ++pops;
    };
    for (int op = 0; op < 20000; ++op) {
      if (reference.empty() || rng.chance(11, 20)) {
        Time t = 0;
        switch (rng.below(7)) {
          case 0: t = now; break;
          case 1: t = now + rng.between(1, 60); break;
          case 2: t = now + kWheel - 1; break;
          case 3: t = now + kWheel; break;
          case 4: t = now + kWheel + rng.below(400); break;
          case 5: t = now - std::min<Time>(now, rng.between(1, 50)); break;
          default: t = now + rng.below(2 * kWheel); break;
        }
        queue.push(QueueNode{t, 0});
        reference.push({t, nextSeq++});
      } else {
        popBoth();
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!reference.empty()) {
      popBoth();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.popDue(now + kWheel).has_value());
  }
  EXPECT_GT(pops, 200000u);
}

// --- Simulator --------------------------------------------------------------

/// Echo automaton: replies pong(n+1) to ping(n); counts timeouts.
class EchoAutomaton final : public CloneableAutomaton<EchoAutomaton> {
 public:
  void onInput(const StepContext&, const Payload& input, Effects& fx) override {
    if (const auto* ping = input.as<Ping>()) {
      fx.broadcast(Payload::of(*ping));
    }
  }
  void onMessage(const StepContext&, ProcessId, const Payload& msg,
                 Effects& fx) override {
    if (const auto* ping = msg.as<Ping>()) {
      fx.output(Payload::of(Pong{ping->n + 1}));
    }
  }
  void onTimeout(const StepContext&, Effects& fx) override {
    fx.output(Payload::of(Ping{-1}));  // marks a λ-step
  }
};

SimConfig smallConfig(std::size_t n = 3) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.maxTime = 2000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 5;
  cfg.maxDelay = 15;
  return cfg;
}

TEST(SimulatorTest, BroadcastReachesEveryProcessIncludingSelf) {
  auto cfg = smallConfig();
  auto fp = FailurePattern::noFailures(3);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 3; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  sim.scheduleInput(0, 100, Payload::of(Ping{1}));
  sim.run();
  for (ProcessId p = 0; p < 3; ++p) {
    int pongs = 0;
    for (const auto& ev : sim.trace().outputs(p)) {
      if (const auto* pong = ev.value.as<Pong>()) {
        EXPECT_EQ(pong->n, 2);
        ++pongs;
      }
    }
    EXPECT_EQ(pongs, 1) << "process " << p;
  }
}

TEST(SimulatorTest, EveryCorrectProcessTakesManySteps) {
  auto cfg = smallConfig();
  auto fp = FailurePattern::noFailures(3);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 3; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  sim.run();
  for (ProcessId p = 0; p < 3; ++p) {
    // maxTime / timeoutPeriod λ-steps expected, up to staggering.
    EXPECT_GT(sim.trace().stepsTaken(p), 150u);
  }
}

TEST(SimulatorTest, CrashedProcessStopsSteppingAndReceiving) {
  auto cfg = smallConfig();
  auto fp = FailurePattern::crashesAt(3, {{2, 500}});
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 3; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  sim.scheduleInput(0, 1000, Payload::of(Ping{5}));  // after the crash
  sim.run();
  // p2 must have no outputs after t=500.
  for (const auto& ev : sim.trace().outputs(2)) {
    EXPECT_LT(ev.time, 500u);
  }
  // Correct processes still got the post-crash ping.
  bool sawPong = false;
  for (const auto& ev : sim.trace().outputs(1)) {
    if (ev.value.holds<Pong>()) sawPong = true;
  }
  EXPECT_TRUE(sawPong);
}

TEST(SimulatorTest, MessageDelayWithinBounds) {
  auto cfg = smallConfig(2);
  cfg.minDelay = 20;
  cfg.maxDelay = 30;
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 2; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  sim.scheduleInput(0, 100, Payload::of(Ping{1}));
  // First pong can only appear within [100+20, 100+30].
  sim.runUntil([](const Simulator& s) {
    for (const auto& ev : s.trace().outputs(1)) {
      if (ev.value.holds<Pong>()) return true;
    }
    return false;
  }, 1);
  for (const auto& ev : sim.trace().outputs(1)) {
    if (ev.value.holds<Pong>()) {
      EXPECT_GE(ev.time, 120u);
      EXPECT_LE(ev.time, 130u);
    }
  }
}

TEST(SimulatorTest, FixedDelayIsExactlyMaxDelay) {
  auto cfg = smallConfig(2);
  cfg.minDelay = 20;
  cfg.maxDelay = 25;
  cfg.fixedDelay = true;
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 2; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  sim.scheduleInput(0, 100, Payload::of(Ping{1}));
  sim.run();
  for (const auto& ev : sim.trace().outputs(1)) {
    if (ev.value.holds<Pong>()) {
      EXPECT_EQ(ev.time, 125u);
    }
  }
}

TEST(SimulatorTest, DeterministicForSameSeed) {
  auto runOnce = [](std::uint64_t seed) {
    auto cfg = smallConfig();
    cfg.seed = seed;
    auto fp = FailurePattern::noFailures(3);
    Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
    for (ProcessId p = 0; p < 3; ++p) {
      sim.addProcess(p, std::make_unique<EchoAutomaton>());
    }
    sim.scheduleInput(1, 57, Payload::of(Ping{3}));
    sim.run();
    return sim.trace().messagesDelivered();
  };
  EXPECT_EQ(runOnce(42), runOnce(42));
}

TEST(SimulatorTest, DisruptionDefersButDelivers) {
  auto cfg = smallConfig(2);
  cfg.minDelay = 5;
  cfg.maxDelay = 10;
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 2; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  PartitionSpec d;
  d.start = 100;
  d.width = 700;
  d.affects = [](ProcessId from, ProcessId) { return from == 0; };
  sim.addPartition(d);
  sim.scheduleInput(0, 150, Payload::of(Ping{1}));
  sim.run();
  bool delivered = false;
  for (const auto& ev : sim.trace().outputs(1)) {
    if (ev.value.holds<Pong>()) {
      delivered = true;
      EXPECT_GE(ev.time, 800u);  // deferred past the window
    }
  }
  EXPECT_TRUE(delivered);  // reliable links: delivery still happens
}

TEST(SimulatorPartitionTest, ConfiguredAndLiveWindowsDeferAsOneSet) {
  // A configured window recurring [0, 100) every 400 and a live one-shot
  // [350, 450), both on every link. The copy sent at 345 would arrive at
  // 355; the live window defers it to 450, which the configured window
  // cuts too, so it arrives at 500 — never inside either window.
  auto cfg = smallConfig(2);
  cfg.minDelay = 10;
  cfg.maxDelay = 10;
  cfg.fixedDelay = true;
  PartitionSpec recurring;
  recurring.start = 0;
  recurring.width = 100;
  recurring.period = 400;
  cfg.partitions = {recurring};
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 2; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  PartitionSpec live;
  live.start = 350;
  live.width = 100;
  sim.addPartition(live);
  sim.scheduleInput(0, 345, Payload::of(Ping{1}));
  sim.run();
  std::vector<Time> pongs;
  for (const auto& ev : sim.trace().outputs(1)) {
    if (ev.value.holds<Pong>()) pongs.push_back(ev.time);
  }
  EXPECT_EQ(pongs, (std::vector<Time>{500}));
}

// --- Clock skew ---------------------------------------------------------------

TEST(ClockSkewTest, SpreadEndpointsAreExact) {
  SimConfig cfg;
  cfg.processCount = 4;
  cfg.timeoutPeriod = 10;
  cfg.clockSkew = clockSkewSpread(4, {3, 1}, {1, 2});
  // p0 is 3x slower, p3 is 2x faster; middle ranks interpolate between.
  EXPECT_EQ(lambdaStepPeriod(cfg, 0), 30u);
  EXPECT_EQ(lambdaStepPeriod(cfg, 3), 5u);
  EXPECT_GT(lambdaStepPeriod(cfg, 1), lambdaStepPeriod(cfg, 2));
  EXPECT_LT(lambdaStepPeriod(cfg, 1), 30u);
}

TEST(ClockSkewTest, PeriodNeverDropsBelowOne) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.timeoutPeriod = 10;
  cfg.clockSkew = {{1, 100}, {1, 1}, {2, 1}};
  EXPECT_EQ(lambdaStepPeriod(cfg, 0), 1u);  // 10/100 clamps to 1
  EXPECT_EQ(lambdaStepPeriod(cfg, 1), 10u);
  EXPECT_EQ(lambdaStepPeriod(cfg, 2), 20u);  // a gray process steps slower
  cfg.clockSkew.clear();
  EXPECT_EQ(lambdaStepPeriod(cfg, 2), 10u);  // no skew: the base period
}

TEST(SimulatorTest, RunUntilStopsEarly) {
  auto cfg = smallConfig(2);
  cfg.maxTime = 100000;
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 2; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  const bool hit = sim.runUntil(
      [](const Simulator& s) { return s.now() > 500; }, 8);
  EXPECT_TRUE(hit);
  EXPECT_LT(sim.now(), 2000u);
}

TEST(SimulatorTest, RunUntilCheckEveryOneStopsAtEarliestSatisfyingEvent) {
  // Contract regression (see runUntil's header comment): with
  // checkEvery == 1 the predicate is evaluated after EVERY processed
  // event, so now() is pinned to the first event boundary at which the
  // predicate holds — it must not overshoot. This run schedules no
  // inputs and the echo automata send no messages from λ-steps, so the
  // event sequence is exactly the staggered timeouts at 1+p, 11+p,
  // 21+p, ...: the first event at time >= 500 is process 0's λ-step at
  // 501.
  auto cfg = smallConfig(2);
  cfg.maxTime = 100000;
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  for (ProcessId p = 0; p < 2; ++p) sim.addProcess(p, std::make_unique<EchoAutomaton>());
  const bool hit = sim.runUntil(
      [](const Simulator& s) { return s.now() >= 500; }, 1);
  EXPECT_TRUE(hit);
  EXPECT_EQ(sim.now(), 501u);
}

TEST(SimulatorTest, RunUntilCoarseCheckEveryMayOvershoot) {
  // The flip side of the contract: with a large checkEvery the run may
  // process up to checkEvery - 1 further events before noticing, so
  // now() can legitimately overshoot the earliest satisfying time. Both
  // runs see identical schedules (same seed); the coarse one must never
  // stop EARLIER than the precise one.
  auto runWith = [](std::uint64_t checkEvery) {
    SimConfig cfg;
    cfg.processCount = 2;
    cfg.maxTime = 100000;
    cfg.timeoutPeriod = 10;
    cfg.minDelay = 5;
    cfg.maxDelay = 15;
    auto fp = FailurePattern::noFailures(2);
    Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
    for (ProcessId p = 0; p < 2; ++p) {
      sim.addProcess(p, std::make_unique<EchoAutomaton>());
    }
    sim.runUntil([](const Simulator& s) { return s.now() >= 777; }, checkEvery);
    return sim.now();
  };
  EXPECT_EQ(runWith(1), 781u);  // first event at or past 777: λ-step at 781
  EXPECT_GE(runWith(64), runWith(1));
}

TEST(SimulatorTest, DuplicateProcessRejected) {
  auto cfg = smallConfig(2);
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  sim.addProcess(0, std::make_unique<EchoAutomaton>());
  EXPECT_THROW(sim.addProcess(0, std::make_unique<EchoAutomaton>()),
               InvariantError);
}

TEST(SimulatorTest, MissingAutomatonRejectedAtRun) {
  auto cfg = smallConfig(2);
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp));
  sim.addProcess(0, std::make_unique<EchoAutomaton>());
  EXPECT_THROW(sim.run(), InvariantError);
}

}  // namespace
}  // namespace wfd
