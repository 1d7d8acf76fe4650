// E3 — Strong TOB under an always-stable leader (paper §1 property (2), §5).
//
// Claim: if Omega outputs the same leader at all processes FROM THE VERY
// BEGINNING, Algorithm 5 implements strong total order broadcast — no
// delivery is ever revoked or reordered. As tau_Omega grows, revocations
// appear (before stabilization) but always stop by tau_Omega + Δ_t + Δ_c.
//
// Method: sweep tau_Omega; count delivery-sequence prefix violations at
// correct processes and report the measured convergence witness τ̂.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "checkers/tob_checker.h"
#include "checkers/workload.h"

namespace wfd::bench {
namespace {

struct Result {
  std::uint64_t violations = 0;
  Time tauHat = 0;
  bool strongTob = false;
};

Result run(Time tauOmega, std::uint64_t seed) {
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = FailurePattern::noFailures(3);
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 50;
  w.perProcess = 10;
  auto cluster =
      makeEtobCluster(cfg, fp, tauOmega,
                      tauOmega == 0 ? OmegaPreStabilization::kStable
                                    : OmegaPreStabilization::kSplitBrain,
                      w);
  Simulator& sim = cluster.sim();
  const BroadcastLog& log = cluster.log();
  cluster.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 2000 && broadcastConverged(s, log);
  });
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  Result r;
  for (ProcessId p = 0; p < 3; ++p) {
    r.violations += sim.trace().prefixViolations(p);
  }
  r.tauHat = report.tau;
  r.strongTob = report.strongTobOk();
  return r;
}

void printTable() {
  std::printf("E3: Algorithm 5 under increasingly late Omega stabilization\n"
              "(expect: tau_Omega=0 -> zero revocations, strong TOB; bound\n"
              " tau_hat <= tau_Omega + dt + dc = tau_Omega + 50)\n\n");
  Table t({"tau_Omega", "revocations", "tau_hat", "bound", "strong_TOB"});
  for (Time tau : {0u, 500u, 1000u, 2000u, 4000u}) {
    Result sum{};
    int runs = 0;
    bool strong = true;
    Time worstTau = 0;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      auto r = run(tau, seed);
      sum.violations += r.violations;
      worstTau = std::max(worstTau, r.tauHat);
      strong = strong && r.strongTob;
      ++runs;
    }
    t.row({std::to_string(tau), std::to_string(sum.violations / runs),
           std::to_string(worstTau), std::to_string(tau + 50),
           strong ? "yes" : "no"});
  }
  std::printf("\n");
}

void BM_EtobStableLeader(benchmark::State& state) {
  const Time tau = static_cast<Time>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = run(tau, seed++);
    benchmark::DoNotOptimize(r);
    state.counters["revocations"] = static_cast<double>(r.violations);
  }
}
BENCHMARK(BM_EtobStableLeader)->Arg(0)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
