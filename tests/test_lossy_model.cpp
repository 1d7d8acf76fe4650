// Unit tests: the fair-lossy NetworkModel decorators (sim/lossy_model.h)
// — i.i.d. drops, hash-scheduled Gilbert–Elliott bursts, deterministic
// one-way outages, gray-failure degradation — plus the canonical
// composition-order guard (ensureCanonicalComposition) and the run that
// shows why partition windows apply after every lossy layer.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "common/rng.h"
#include "fd/detectors.h"
#include "sim/automaton.h"
#include "sim/lossy_model.h"
#include "sim/network_model.h"
#include "sim/simulator.h"

namespace wfd {
namespace {

LinkSend send(ProcessId from, ProcessId to, Time at) {
  return LinkSend{from, to, at, 0};
}

std::shared_ptr<const NetworkModel> fixedDelay(Time d) {
  return std::make_shared<UniformDelayModel>(d, d, /*fixed=*/true);
}

// --- IidLossModel ------------------------------------------------------------

TEST(IidLossModelTest, DropsRoughlyAtRateAndNeverBelowZeroCopies) {
  IidLossModel::Config cfg;
  cfg.num = 1;
  cfg.den = 4;
  IidLossModel m(std::make_shared<UniformDelayModel>(10, 20), cfg);
  EXPECT_TRUE(m.mayDrop());
  Rng rng(3);
  int dropped = 0;
  for (int i = 0; i < 1000; ++i) {
    std::vector<Time> arrivals;
    m.schedule(send(0, 1, 100), rng, arrivals);
    ASSERT_LE(arrivals.size(), 1u);
    dropped += arrivals.empty() ? 1 : 0;
  }
  // 1/4 rate over 1000 sends: a wide deterministic band around 250.
  EXPECT_GT(dropped, 150);
  EXPECT_LT(dropped, 350);
}

TEST(IidLossModelTest, RateZeroDrawsNothingButKeepsTheCapability) {
  // The loss=0 ≡ legacy differential rests on both halves: mayDrop()
  // still arms the retransmission layer, yet the rng draw sequence is
  // untouched so the schedule replays the lossless run bit-for-bit.
  IidLossModel::Config cfg;
  cfg.num = 0;
  cfg.den = 1;
  IidLossModel m(std::make_shared<UniformDelayModel>(10, 40), cfg);
  EXPECT_TRUE(m.mayDrop());
  Rng a(7), b(7);
  for (int i = 0; i < 50; ++i) {
    std::vector<Time> arrivals;
    m.schedule(send(0, 1, 100), a, arrivals);
    EXPECT_EQ(arrivals.size(), 1u);
  }
  UniformDelayModel plain(10, 40);
  for (int i = 0; i < 50; ++i) {
    std::vector<Time> arrivals;
    plain.schedule(send(0, 1, 100), b, arrivals);
  }
  EXPECT_EQ(a.between(0, 1'000'000), b.between(0, 1'000'000));
}

TEST(IidLossModelTest, ActiveUntilEndsTheLossEra) {
  IidLossModel::Config cfg;
  cfg.num = 1;
  cfg.den = 4;
  cfg.activeUntil = 1000;
  IidLossModel m(fixedDelay(10), cfg);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::vector<Time> arrivals;
    m.schedule(send(0, 1, 2000), rng, arrivals);  // arrives at 2010 >= 1000
    EXPECT_EQ(arrivals.size(), 1u);
  }
}

TEST(IidLossModelTest, RejectsStarvingRates) {
  IidLossModel::Config cfg;
  cfg.num = 1;
  cfg.den = 3;  // > 25%: starves the fair-loss assumption
  EXPECT_THROW(IidLossModel(fixedDelay(1), cfg), InvariantError);
}

// --- GilbertElliottLossModel -------------------------------------------------

GilbertElliottLossModel::Config burstyConfig() {
  GilbertElliottLossModel::Config cfg;
  cfg.framePeriod = 1000;
  cfg.burstNum = 1;
  cfg.burstDen = 1;  // every frame bursts: the schedule is dense
  cfg.burstLen = 200;
  cfg.dropInNum = 1;
  cfg.dropInDen = 1;  // certain drop inside a burst
  cfg.dropOutNum = 0;
  cfg.dropOutDen = 1;
  cfg.seed = 42;
  return cfg;
}

TEST(GilbertElliottLossModelTest, ScheduleIsAPureFunctionOfTheConfig) {
  // Two independently constructed models with equal configs must agree on
  // every burst decision — the schedule is hash-derived, not stateful, so
  // shared const models replay identically across runs.
  const GilbertElliottLossModel a(fixedDelay(1), burstyConfig());
  const GilbertElliottLossModel b(fixedDelay(1), burstyConfig());
  for (Time t = 0; t < 20000; t += 37) {
    EXPECT_EQ(a.inBurst(t, 0, 1), b.inBurst(t, 0, 1)) << t;
  }
  EXPECT_EQ(a.burstWindowsUpTo(20000, 0, 1), b.burstWindowsUpTo(20000, 0, 1));
}

TEST(GilbertElliottLossModelTest, WindowsAreContainedInTheirFrames) {
  const GilbertElliottLossModel m(fixedDelay(1), burstyConfig());
  const auto windows = m.burstWindowsUpTo(50000, 0, 1);
  ASSERT_FALSE(windows.empty());
  for (const auto& [begin, end] : windows) {
    EXPECT_EQ(end - begin, 200u);
    EXPECT_EQ(begin / 1000, (end - 1) / 1000)
        << "window [" << begin << "," << end << ") crosses a frame edge";
  }
}

TEST(GilbertElliottLossModelTest, DropsInsideBurstsKeepsOutside) {
  const GilbertElliottLossModel m(fixedDelay(10), burstyConfig());
  const auto windows = m.burstWindowsUpTo(50000, 0, 1);
  ASSERT_FALSE(windows.empty());
  Rng rng(3);
  // A copy arriving mid-burst is dropped with certainty (dropIn = 1/1).
  const Time inBurst = windows.front().first + 100;
  std::vector<Time> arrivals;
  m.schedule(send(0, 1, inBurst - 10), rng, arrivals);
  EXPECT_TRUE(arrivals.empty());
  // A copy arriving right after the window survives (dropOut = 0).
  arrivals.clear();
  m.schedule(send(0, 1, windows.front().second), rng, arrivals);
  EXPECT_EQ(arrivals.size(), 1u);
}

TEST(GilbertElliottLossModelTest, ActiveUntilClipsWindowsAndDrops) {
  GilbertElliottLossModel::Config cfg = burstyConfig();
  cfg.activeUntil = 5000;
  const GilbertElliottLossModel m(fixedDelay(10), cfg);
  for (const auto& [begin, end] : m.burstWindowsUpTo(50000, 0, 1)) {
    EXPECT_LE(end, 5000u) << begin;
  }
  Rng rng(3);
  std::vector<Time> arrivals;
  m.schedule(send(0, 1, 40000), rng, arrivals);  // far past the loss era
  EXPECT_EQ(arrivals.size(), 1u);
}

TEST(GilbertElliottLossModelTest, UncorrelatedLinksGetDistinctSchedules) {
  GilbertElliottLossModel::Config cfg = burstyConfig();
  cfg.burstDen = 2;  // half the frames burst, so schedules can disagree
  cfg.correlated = false;
  const GilbertElliottLossModel m(fixedDelay(1), cfg);
  EXPECT_NE(m.burstWindowsUpTo(100000, 0, 1), m.burstWindowsUpTo(100000, 1, 2));
  // While the correlated flavour gives every link the same schedule.
  cfg.correlated = true;
  const GilbertElliottLossModel c(fixedDelay(1), cfg);
  EXPECT_EQ(c.burstWindowsUpTo(100000, 0, 1), c.burstWindowsUpTo(100000, 1, 2));
}

// --- OneWayOutageModel -------------------------------------------------------

TEST(OneWayOutageModelTest, CutsOneDirectionOnly) {
  OutageSpec cut;
  cut.from = 2;
  cut.start = 100;
  cut.width = 200;
  OneWayOutageModel m(fixedDelay(10), {cut});
  Rng rng(1);
  std::vector<Time> out, in;
  m.schedule(send(2, 0, 150), rng, out);  // 2's sends die inside the window
  m.schedule(send(0, 2, 150), rng, in);   // but 2 still hears the world
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(in.size(), 1u);
}

TEST(OneWayOutageModelTest, RecurringWindowsAndZeroDraws) {
  OutageSpec cut;
  cut.from = 1;
  cut.start = 0;
  cut.width = 50;
  cut.period = 100;
  OneWayOutageModel m(fixedDelay(10), {cut});
  Rng a(9), b(9);
  std::vector<Time> arrivals;
  m.schedule(send(1, 0, 10), a, arrivals);  // arrives 20, inside [0,50)
  EXPECT_TRUE(arrivals.empty());
  arrivals.clear();
  m.schedule(send(1, 0, 60), a, arrivals);  // arrives 70, in the gap
  EXPECT_EQ(arrivals.size(), 1u);
  arrivals.clear();
  m.schedule(send(1, 0, 110), a, arrivals);  // arrives 120, inside [100,150)
  EXPECT_TRUE(arrivals.empty());
  // The whole model is deterministic: zero rng draws consumed.
  EXPECT_EQ(a.between(0, 1'000'000), b.between(0, 1'000'000));
}

// --- GrayFailureModel --------------------------------------------------------

TEST(GrayFailureModelTest, DegradesOnlyTheGrayProcess) {
  GrayFailureModel::Config cfg;
  cfg.process = 1;
  cfg.delayNum = 3;
  cfg.delayDen = 1;
  GrayFailureModel m(fixedDelay(10), cfg);
  EXPECT_FALSE(m.mayDrop());  // lossNum == 0 and the inner is lossless
  Rng rng(1);
  std::vector<Time> touching, clean;
  m.schedule(send(0, 1, 100), rng, touching);
  m.schedule(send(0, 2, 100), rng, clean);
  EXPECT_EQ(touching, (std::vector<Time>{130}));  // 10 * 3 inflation
  EXPECT_EQ(clean, (std::vector<Time>{110}));
}

TEST(GrayFailureModelTest, MildLossEngagesTheDropCapability) {
  GrayFailureModel::Config cfg;
  cfg.process = 0;
  cfg.lossNum = 1;
  cfg.lossDen = 4;
  GrayFailureModel m(fixedDelay(10), cfg);
  EXPECT_TRUE(m.mayDrop());
  Rng rng(3);
  int dropped = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<Time> arrivals;
    m.schedule(send(0, 1, 0), rng, arrivals);
    dropped += arrivals.empty() ? 1 : 0;
  }
  EXPECT_GT(dropped, 0);
}

TEST(GrayFailureModelTest, RecoversAfterActiveUntil) {
  GrayFailureModel::Config cfg;
  cfg.process = 1;
  cfg.delayNum = 3;
  cfg.delayDen = 1;
  cfg.activeUntil = 1000;
  GrayFailureModel m(fixedDelay(10), cfg);
  Rng rng(1);
  std::vector<Time> arrivals;
  m.schedule(send(0, 1, 5000), rng, arrivals);  // past the gray era
  EXPECT_EQ(arrivals, (std::vector<Time>{5010}));
}

// --- Composition order: the guard and why it matters -------------------------

TEST(CompositionOrderTest, CanonicalStacksPassTheGuard) {
  IidLossModel::Config loss;
  loss.num = 1;
  loss.den = 4;
  ChaosLinkModel::Config chaos;
  chaos.dupNum = 1;
  chaos.dupDen = 2;
  chaos.maxExtraCopies = 1;
  chaos.reorderJitter = 5;
  auto canonical = std::make_shared<IidLossModel>(
      std::make_shared<ChaosLinkModel>(fixedDelay(10), chaos), loss);
  EXPECT_NO_THROW(ensureCanonicalComposition(*canonical));
}

TEST(CompositionOrderTest, ChaosOutsideLossyIsRejected) {
  IidLossModel::Config loss;
  loss.num = 1;
  loss.den = 4;
  ChaosLinkModel::Config chaos;
  chaos.dupNum = 1;
  chaos.dupDen = 2;
  chaos.maxExtraCopies = 1;
  auto wrong = std::make_shared<ChaosLinkModel>(
      std::make_shared<IidLossModel>(fixedDelay(10), loss), chaos);
  EXPECT_THROW(ensureCanonicalComposition(*wrong), InvariantError);
}

/// Sends one message to p1 on its input; p1 outputs the arrival.
class OneShotSender final : public CloneableAutomaton<OneShotSender> {
 public:
  void onInput(const StepContext&, const Payload& input, Effects& fx) override {
    fx.send(1, input);
  }
  void onMessage(const StepContext&, ProcessId, const Payload& msg,
                 Effects& fx) override {
    fx.output(msg);
  }
  void onTimeout(const StepContext&, Effects&) override {}
};

TEST(CompositionOrderTest, WrongOrderChangesWhichCopiesSurvive) {
  // A partition window deferring an arrival INTO an outage window. The
  // outage's drop decision keys on the model's arrival (10, before the
  // outage), and only then does the simulator's window defer the copy to
  // 50, inside the outage: it survives. Sampling the outage at the
  // post-heal time instead would kill it, a genuinely different run;
  // windows are SimConfig data applied after every model layer, so that
  // order cannot be built.
  OutageSpec cut;
  cut.start = 40;
  cut.width = 20;  // outage [40, 60)
  PartitionSpec window;
  window.start = 5;
  window.width = 45;  // partition [5, 50) defers arrivals to 50
  SimConfig cfg;
  cfg.processCount = 2;
  cfg.minDelay = 10;
  cfg.maxDelay = 10;
  cfg.partitions = {window};
  auto fp = FailurePattern::noFailures(2);
  Simulator sim(cfg, fp, std::make_shared<PerfectFd>(fp),
                std::make_shared<OneWayOutageModel>(
                    fixedDelay(10), std::vector<OutageSpec>{cut}));
  for (ProcessId p = 0; p < 2; ++p) {
    sim.addProcess(p, std::make_unique<OneShotSender>());
  }
  sim.scheduleInput(0, 0, Payload::of(1));
  sim.runUntilTime(100);
  ASSERT_FALSE(sim.trace().outputs(1).empty());
  EXPECT_EQ(sim.trace().outputs(1).front().time, 50u);
}

}  // namespace
}  // namespace wfd
