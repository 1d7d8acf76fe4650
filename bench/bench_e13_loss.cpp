// E13 — Lossy links: eTOB goodput and τ̂ stabilization vs loss rate,
// and failure-detector re-stabilization after loss bursts.
//
// Claim (PR-9): the stubborn retransmission layer turns fair-lossy links
// into reliable ones at a throughput cost only — every sweep point below
// passes the full broadcast checker (validity/agreement/no-creation/
// no-duplication), and what grows with the loss rate is wall time,
// retransmit traffic and the observed stabilization time τ̂, never a
// safety violation. The second table shows the adaptive-timeout ◇P
// learning its way out of loss bursts: each false suspicion doubles the
// learned timeout, so the detector stabilizes after the first burst it
// can out-wait — longer bursts take more doublings — while SWIM never
// learns but never stays fooled: indirect probes recover it within
// about one round of each burst's end, so its stabilization tracks the
// last burst regardless of width.
//
// Method:
//   loss sweep   eTOB, n=3, 15 broadcasts, loss era [0, 8000), horizon
//                20000. Points: clean, i.i.d. 5/10/20% (20% is the
//                admissibility ceiling: fair-lossy needs rate <= 1/4),
//                and a Gilbert–Elliott burst regime (300-tick bursts
//                every 2000 ticks, 90% in-burst drop). Reported: wall
//                time, delivered msgs/sec (45 deliveries / wall), the
//                checker's τ̂, dropped copies, retransmissions.
//   fd recovery  AdaptiveHeartbeatFd vs SwimFd over a burst train at
//                2000/5000/8000 of width L: stableFrom(q) = measured
//                re-stabilization time; the adaptive detector needs
//                ceil(log2(L / initialTimeout)) + 1 false suspicions
//                before its timeout out-waits L.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "bench_util.h"
#include "checkers/tob_checker.h"
#include "fd/robust_fd.h"
#include "sim/lossy_model.h"

namespace wfd::bench {
namespace {

constexpr std::size_t kN = 3;
constexpr Time kLossEra = 8000;
constexpr Time kHorizon = 20000;
constexpr std::size_t kPerProcess = 5;

struct LossPoint {
  const char* name;
  std::uint32_t num;  // i.i.d. drop rate num/den; 0 = no i.i.d. layer
  std::uint32_t den;
  bool burst;  // add the Gilbert–Elliott regime
};

constexpr LossPoint kSweep[] = {
    {"clean", 0, 1, false},     {"iid-5%", 1, 20, false},
    {"iid-10%", 1, 10, false},  {"iid-20%", 1, 5, false},
    {"ge-burst", 1, 20, true},
};

std::shared_ptr<const NetworkModel> lossyNet(const LossPoint& p) {
  std::shared_ptr<const NetworkModel> net =
      std::make_shared<UniformDelayModel>(20, 40);
  if (p.num > 0) {
    IidLossModel::Config iid;
    iid.num = p.num;
    iid.den = p.den;
    iid.activeUntil = kLossEra;
    net = std::make_shared<IidLossModel>(std::move(net), iid);
  }
  if (p.burst) {
    GilbertElliottLossModel::Config ge;
    ge.framePeriod = 2000;
    ge.burstNum = 1;
    ge.burstDen = 1;  // a burst in every frame
    ge.burstLen = 300;
    ge.dropInNum = 9;
    ge.dropInDen = 10;
    ge.seed = 13;
    ge.activeUntil = kLossEra;
    net = std::make_shared<GilbertElliottLossModel>(std::move(net), ge);
  }
  return net;
}

struct LossRun {
  double seconds = 0.0;
  Time tau = 0;
  bool pass = false;
  std::uint64_t dropped = 0;
  std::uint64_t retransmissions = 0;
};

LossRun runPoint(const LossPoint& p, std::uint64_t seed) {
  ClusterSpec spec;
  spec.stack = AlgoStack::kEtob;
  spec.config.processCount = kN;
  spec.config.maxTime = kHorizon;
  spec.config.timeoutPeriod = 10;
  spec.config.minDelay = 20;
  spec.config.maxDelay = 40;
  spec.tauOmega = 1000;
  spec.omegaMode = OmegaPreStabilization::kSplitBrain;
  spec.network = [&p](const SimConfig&) { return lossyNet(p); };
  spec.workload.start = 100;
  spec.workload.interval = 50;
  spec.workload.perProcess = kPerProcess;
  Cluster cluster(std::move(spec), seed);

  const auto start = std::chrono::steady_clock::now();
  cluster.runToHorizon();
  const auto end = std::chrono::steady_clock::now();

  const Simulator& sim = cluster.sim();
  LossRun r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  const BroadcastCheckReport check =
      checkBroadcastRun(sim.trace(), cluster.log(), sim.failurePattern());
  r.tau = check.tau;
  r.pass = check.coreOk();
  r.dropped = sim.linkDroppedSends();
  r.retransmissions = sim.linkRetransmissions();
  return r;
}

constexpr std::size_t deliveries() { return kN * kPerProcess * kN; }

// --- FD re-stabilization ----------------------------------------------------

std::vector<std::pair<Time, Time>> burstTrain(Time width) {
  return {{2000, 2000 + width}, {5000, 5000 + width}, {8000, 8000 + width}};
}

Time adaptiveStableFrom(Time width) {
  AdaptiveHeartbeatFd::Params params;
  params.heartbeatPeriod = 50;
  params.initialTimeout = 150;
  params.maxTimeout = 4000;
  params.burstWindows = burstTrain(width);
  const AdaptiveHeartbeatFd fd(FailurePattern::noFailures(kN), params);
  Time stable = 0;
  for (ProcessId q = 0; q < kN; ++q) stable = std::max(stable, fd.stableFrom(q));
  return stable;
}

Time swimStableFrom(Time width) {
  SwimFd::Params params;
  params.probePeriod = 100;
  params.indirectRelays = 3;
  params.seed = 11;
  params.burstWindows = burstTrain(width);
  const SwimFd fd(FailurePattern::noFailures(kN), params);
  Time stable = 0;
  for (ProcessId q = 0; q < kN; ++q) stable = std::max(stable, fd.stableFrom(q));
  return stable;
}

void printTables() {
  std::printf(
      "E13: eTOB through lossy links, loss era [0, %llu), horizon %llu\n"
      "(expect: every point PASSES the checker — loss costs goodput and\n"
      " stabilization time, never safety; retransmissions and tau grow\n"
      " with the drop rate and vanish at clean)\n\n",
      static_cast<unsigned long long>(kLossEra),
      static_cast<unsigned long long>(kHorizon));
  Table t({"loss", "pass", "wall_ms", "msgs/sec", "tau_hat", "dropped",
           "retransmits"});
  for (const LossPoint& p : kSweep) {
    const LossRun r = runPoint(p, 1);
    t.row({p.name, r.pass ? "yes" : "NO", fmt(r.seconds * 1e3, 1),
           fmt(deliveries() / r.seconds, 0), std::to_string(r.tau),
           std::to_string(r.dropped), std::to_string(r.retransmissions)});
  }

  std::printf(
      "\nFD re-stabilization after a burst train at 2000/5000/8000\n"
      "(expect: adaptive ◇P stabilizes after the first burst its learned\n"
      " timeout out-waits — short bursts stop fooling it entirely, long\n"
      " ones take more doublings; SWIM recovers within ~one probe round\n"
      " of every burst's end, so it tracks the LAST burst at any width)\n\n");
  Table f({"burst_len", "adaptive", "swim"});
  for (Time width : {Time{200}, Time{400}, Time{800}, Time{1600}}) {
    f.row({std::to_string(width), std::to_string(adaptiveStableFrom(width)),
           std::to_string(swimStableFrom(width))});
  }
  std::printf("\n");
}

void BM_LossPoint(benchmark::State& state, const LossPoint& p) {
  std::uint64_t seed = 1;
  double seconds = 0.0;
  std::uint64_t runs = 0;
  Time tau = 0;
  std::uint64_t retransmissions = 0;
  for (auto _ : state) {
    const LossRun r = runPoint(p, seed++);
    benchmark::DoNotOptimize(r);
    seconds += r.seconds;
    tau = r.tau;
    retransmissions = r.retransmissions;
    ++runs;
  }
  state.counters["delivered_per_sec"] =
      static_cast<double>(runs * deliveries()) / seconds;
  state.counters["tau_hat"] = static_cast<double>(tau);
  state.counters["retransmissions"] = static_cast<double>(retransmissions);
}

void BM_LossClean(benchmark::State& state) { BM_LossPoint(state, kSweep[0]); }
void BM_LossIid5(benchmark::State& state) { BM_LossPoint(state, kSweep[1]); }
void BM_LossIid10(benchmark::State& state) { BM_LossPoint(state, kSweep[2]); }
void BM_LossIid20(benchmark::State& state) { BM_LossPoint(state, kSweep[3]); }
void BM_LossGeBurst(benchmark::State& state) { BM_LossPoint(state, kSweep[4]); }

void BM_AdaptiveFdRecovery(benchmark::State& state) {
  const Time width = static_cast<Time>(state.range(0));
  Time stable = 0;
  for (auto _ : state) {
    stable = adaptiveStableFrom(width);
    benchmark::DoNotOptimize(stable);
  }
  state.counters["stable_from"] = static_cast<double>(stable);
}

BENCHMARK(BM_LossClean)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LossIid5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LossIid10)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LossIid20)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LossGeBurst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdaptiveFdRecovery)
    ->Arg(200)->Arg(400)->Arg(800)->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
