// Unit tests: the pluggable NetworkModel layer — legacy-equivalent
// uniform delay, per-link asymmetric delay, and bounded duplication+
// reordering.
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

}  // namespace
}  // namespace wfd
