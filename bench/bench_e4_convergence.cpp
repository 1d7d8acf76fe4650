// E4 — The convergence window (paper Lemma 3's construction):
// tau = tau_Omega + Δ_t + Δ_c.
//
// Claim: after Omega stabilizes, one λ-period (the leader's next promote)
// plus one link delay suffice for every correct process to adopt the
// stable leader's sequence — ETOB-Stability and ETOB-Total-order hold
// from tau_Omega + Δ_t + Δ_c onwards.
//
// Method: sweep (tau_Omega, Δ_t) at fixed Δ_c; measure the empirical τ̂
// (last stability/total-order violation) and check τ̂ <= bound.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "checkers/tob_checker.h"
#include "checkers/workload.h"

namespace wfd::bench {
namespace {

constexpr Time kDeltaC = 60;

struct Result {
  Time tauHat = 0;
  bool withinBound = false;
};

Result run(Time tauOmega, Time deltaT, std::uint64_t seed) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = seed;
  cfg.maxTime = 40000;
  cfg.timeoutPeriod = deltaT;
  cfg.minDelay = kDeltaC / 2;
  cfg.maxDelay = kDeltaC;
  auto fp = FailurePattern::noFailures(3);
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 60;
  w.perProcess = 12;
  auto cluster = makeEtobCluster(cfg, fp, tauOmega,
                                 OmegaPreStabilization::kSplitBrain, w);
  Simulator& sim = cluster.sim();
  const BroadcastLog& log = cluster.log();
  cluster.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 10 * (deltaT + kDeltaC) &&
           broadcastConverged(s, log);
  });
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  Result r;
  r.tauHat = report.tau;
  r.withinBound = report.tau <= tauOmega + deltaT + kDeltaC;
  return r;
}

void printTable() {
  std::printf("E4: measured convergence time tau_hat vs the paper's bound\n"
              "tau_Omega + dt + dc (dc = %llu)\n\n",
              static_cast<unsigned long long>(kDeltaC));
  Table t({"tau_Omega", "delta_t", "bound", "tau_hat(max)", "within"});
  for (Time tau : {500u, 1500u, 3000u}) {
    for (Time dt : {5u, 20u, 50u}) {
      Time worst = 0;
      bool within = true;
      for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        auto r = run(tau, dt, seed);
        worst = std::max(worst, r.tauHat);
        within = within && r.withinBound;
      }
      t.row({std::to_string(tau), std::to_string(dt),
             std::to_string(tau + dt + kDeltaC), std::to_string(worst),
             within ? "yes" : "NO"});
    }
  }
  std::printf("\n");
}

void BM_ConvergenceWindow(benchmark::State& state) {
  const Time tau = static_cast<Time>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = run(tau, 20, seed++);
    benchmark::DoNotOptimize(r);
    state.counters["tau_hat"] = static_cast<double>(r.tauHat);
  }
}
BENCHMARK(BM_ConvergenceWindow)->Arg(500)->Arg(3000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
