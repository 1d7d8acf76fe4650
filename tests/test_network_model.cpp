// Unit tests: the pluggable NetworkModel layer — legacy-equivalent
// uniform delay, per-link asymmetric delay, partition deferral (one-shot
// and periodic), bounded duplication+reordering with exactly-once at the
// automaton boundary, and per-process clock skew.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "sim/network_model.h"

namespace wfd {
namespace {

LinkSend send(ProcessId from, ProcessId to, Time at) {
  return LinkSend{from, to, at, 0};
}

TEST(UniformDelayModelTest, ArrivalsWithinBounds) {
  UniformDelayModel m(20, 40);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    std::vector<Time> arrivals;
    m.schedule(send(0, 1, 100), rng, arrivals);
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_GE(arrivals[0], 120u);
    EXPECT_LE(arrivals[0], 140u);
  }
}

TEST(UniformDelayModelTest, FixedDelayDrawsNothing) {
  UniformDelayModel m(20, 40, /*fixed=*/true);
  Rng a(7), b(7);
  std::vector<Time> arrivals;
  m.schedule(send(0, 1, 100), a, arrivals);
  EXPECT_EQ(arrivals, (std::vector<Time>{140}));
  // The fixed model must not consume rng state (legacy equivalence).
  EXPECT_EQ(a.between(0, 1'000'000), b.between(0, 1'000'000));
}

TEST(UniformDelayModelTest, MatchesLegacyDrawSequence) {
  // The model's draw must be exactly one rng.between(min, max) per send —
  // the pre-refactor Simulator::deliveryTime sequence.
  UniformDelayModel m(5, 95);
  Rng modelRng(99), referenceRng(99);
  for (int i = 0; i < 50; ++i) {
    std::vector<Time> arrivals;
    m.schedule(send(0, 1, 1000), modelRng, arrivals);
    EXPECT_EQ(arrivals[0], 1000 + referenceRng.between(5, 95));
  }
}

TEST(AsymmetricDelayModelTest, SlowProcessStretchesItsLinksOnly) {
  auto m = AsymmetricDelayModel::slowProcess(10, 20, /*slow=*/2, /*factor=*/5);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    std::vector<Time> fast, toSlow, fromSlow;
    m->schedule(send(0, 1, 0), rng, fast);
    m->schedule(send(0, 2, 0), rng, toSlow);
    m->schedule(send(2, 1, 0), rng, fromSlow);
    EXPECT_GE(fast[0], 10u);
    EXPECT_LE(fast[0], 20u);
    EXPECT_GE(toSlow[0], 50u);
    EXPECT_LE(toSlow[0], 100u);
    EXPECT_GE(fromSlow[0], 50u);
    EXPECT_LE(fromSlow[0], 100u);
  }
}

TEST(PartitionModelTest, OneShotWindowDefersToHealPoint) {
  PartitionSpec w;
  w.start = 100;
  w.width = 50;
  w.period = 0;
  auto m = std::make_shared<PartitionModel>(
      std::make_shared<UniformDelayModel>(10, 10, true),
      std::vector<PartitionSpec>{w});
  Rng rng(1);
  std::vector<Time> arrivals;
  m->schedule(send(0, 1, 100), rng, arrivals);  // lands at 110, inside window
  EXPECT_EQ(arrivals[0], 150u);
  arrivals.clear();
  m->schedule(send(0, 1, 200), rng, arrivals);  // after the window: untouched
  EXPECT_EQ(arrivals[0], 210u);
}

TEST(PartitionModelTest, PeriodicWindowsDeferEveryRecurrence) {
  PartitionSpec w;
  w.start = 0;
  w.width = 30;
  w.period = 100;  // closed [0,30), [100,130), [200,230), ...
  auto m = std::make_shared<PartitionModel>(
      std::make_shared<UniformDelayModel>(5, 5, true),
      std::vector<PartitionSpec>{w});
  Rng rng(1);
  std::vector<Time> arrivals;
  m->schedule(send(0, 1, 110), rng, arrivals);  // 115 is inside [100,130)
  EXPECT_EQ(arrivals[0], 130u);
  arrivals.clear();
  m->schedule(send(0, 1, 245), rng, arrivals);  // 250 is in a gap
  EXPECT_EQ(arrivals[0], 250u);
  arrivals.clear();
  m->schedule(send(0, 1, 300), rng, arrivals);  // 305 inside [300,330)
  EXPECT_EQ(arrivals[0], 330u);
}

TEST(PartitionModelTest, LinkFilterLimitsTheBlastRadius) {
  PartitionSpec w;
  w.start = 0;
  w.width = 1000;
  w.period = 0;
  w.affects = [](ProcessId from, ProcessId) { return from == 0; };
  auto m = std::make_shared<PartitionModel>(
      std::make_shared<UniformDelayModel>(10, 10, true),
      std::vector<PartitionSpec>{w});
  Rng rng(1);
  std::vector<Time> affected, unaffected;
  m->schedule(send(0, 1, 50), rng, affected);
  m->schedule(send(1, 0, 50), rng, unaffected);
  EXPECT_EQ(affected[0], 1000u);
  EXPECT_EQ(unaffected[0], 60u);
}

TEST(PartitionModelTest, JointlyGaplessSpecsRejectedNotLooped) {
  // Each spec individually leaves a gap (width < period), but together
  // they cover all time on the link: A owns [0,10)+20k, B owns
  // [10,20)+20k. Deferral can never escape; the shared fixed-point must
  // raise an invariant error instead of hanging.
  PartitionSpec a;
  a.start = 0;
  a.width = 10;
  a.period = 20;
  PartitionSpec b;
  b.start = 10;
  b.width = 10;
  b.period = 20;
  auto m = std::make_shared<PartitionModel>(
      std::make_shared<UniformDelayModel>(5, 5, true),
      std::vector<PartitionSpec>{a, b});
  Rng rng(1);
  std::vector<Time> arrivals;
  EXPECT_THROW(m->schedule(send(0, 1, 100), rng, arrivals), InvariantError);
}

TEST(PartitionModelTest, ChainedWindowsConvergeAcrossSpecs) {
  // A defers into B's window, B defers out: two passes, then done.
  PartitionSpec a;
  a.start = 100;
  a.width = 50;
  a.period = 0;
  PartitionSpec b;
  b.start = 150;
  b.width = 25;
  b.period = 0;
  auto m = std::make_shared<PartitionModel>(
      std::make_shared<UniformDelayModel>(10, 10, true),
      std::vector<PartitionSpec>{a, b});
  Rng rng(1);
  std::vector<Time> arrivals;
  m->schedule(send(0, 1, 100), rng, arrivals);  // 110 -> 150 (A) -> 175 (B)
  EXPECT_EQ(arrivals[0], 175u);
}

TEST(PartitionModelTest, RejectsGaplessRecurringWindows) {
  PartitionSpec w;
  w.start = 0;
  w.width = 100;
  w.period = 100;  // no gap: deferral would never terminate
  EXPECT_THROW(PartitionModel(std::make_shared<UniformDelayModel>(1, 1),
                              std::vector<PartitionSpec>{w}),
               InvariantError);
}

TEST(ChaosLinkModelTest, AllArrivalsStayCausal) {
  ChaosLinkModel::Config cfg;
  cfg.dupNum = 1;
  cfg.dupDen = 2;
  cfg.maxExtraCopies = 3;
  cfg.reorderJitter = 25;
  ChaosLinkModel m(std::make_shared<UniformDelayModel>(10, 20), cfg);
  Rng rng(5);
  bool sawDuplicate = false;
  for (int i = 0; i < 300; ++i) {
    std::vector<Time> arrivals;
    m.schedule(send(0, 1, 1000), rng, arrivals);
    ASSERT_GE(arrivals.size(), 1u);
    sawDuplicate = sawDuplicate || arrivals.size() > 1;
    for (Time at : arrivals) {
      EXPECT_GT(at, 1000u);                       // causal
      EXPECT_LE(at, 1000u + 20 + 25 + 25);        // bounded
    }
    EXPECT_LE(arrivals.size(), 1u + cfg.maxExtraCopies);
  }
  EXPECT_TRUE(sawDuplicate);  // p=1/2 over 300 sends
}

TEST(ChaosLinkModelTest, LinkFilterKeepsOtherLinksClean) {
  ChaosLinkModel::Config cfg;
  cfg.dupNum = 1;
  cfg.dupDen = 1;  // always duplicate on affected links
  cfg.maxExtraCopies = 2;
  cfg.reorderJitter = 10;
  cfg.affects = [](ProcessId from, ProcessId) { return from == 0; };
  ChaosLinkModel m(std::make_shared<UniformDelayModel>(10, 10, true), cfg);
  Rng rng(5);
  std::vector<Time> clean;
  m.schedule(send(1, 2, 0), rng, clean);
  EXPECT_EQ(clean, (std::vector<Time>{10}));  // untouched, no jitter
  std::vector<Time> chaotic;
  m.schedule(send(0, 2, 0), rng, chaotic);
  EXPECT_GE(chaotic.size(), 2u);
}

TEST(ClockSkewModelTest, SpreadEndpointsAreExact) {
  auto m = ClockSkewModel::spread(std::make_shared<UniformDelayModel>(1, 1), 4,
                                  ClockSkewModel::Skew{3, 1},
                                  ClockSkewModel::Skew{1, 2});
  // p0 is 3x slower, p3 is 2x faster; middle ranks interpolate between.
  EXPECT_EQ(m->lambdaPeriod(0, 10), 30u);
  EXPECT_EQ(m->lambdaPeriod(3, 10), 5u);
  EXPECT_GT(m->lambdaPeriod(1, 10), m->lambdaPeriod(2, 10));
  EXPECT_LT(m->lambdaPeriod(1, 10), 30u);
}

TEST(ClockSkewModelTest, PeriodNeverDropsBelowOne) {
  ClockSkewModel m(std::make_shared<UniformDelayModel>(1, 1),
                   {ClockSkewModel::Skew{1, 100}, ClockSkewModel::Skew{1, 1}});
  EXPECT_EQ(m.lambdaPeriod(0, 10), 1u);  // 10/100 clamps to 1
  EXPECT_EQ(m.lambdaPeriod(1, 10), 10u);
}

TEST(ClockSkewModelTest, DelegatesSchedulingUntouched) {
  ClockSkewModel m(std::make_shared<UniformDelayModel>(10, 10, true),
                   {ClockSkewModel::Skew{2, 1}, ClockSkewModel::Skew{1, 1}});
  Rng rng(1);
  std::vector<Time> arrivals;
  m.schedule(send(0, 1, 100), rng, arrivals);
  EXPECT_EQ(arrivals, (std::vector<Time>{110}));
}

}  // namespace
}  // namespace wfd
