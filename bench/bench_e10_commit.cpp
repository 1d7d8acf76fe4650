// E10 — committed-prefix indications (paper §7, Concluding Remarks).
//
// Claim: "indications when a prefix of operations is committed ... could
// easily be implemented, during the stable periods, on top of ETOB", and
// Ω remains necessary. The §7 proviso ties commits to majority
// acknowledgement of a stable leader.
//
// Measured here:
//   * safety — a committed prefix is never revoked at any correct
//     process, across stabilization times, crashes and seeds;
//   * the proviso — with the majority gone, deliveries continue
//     (eventual consistency needs only Ω) but commits stop advancing;
//   * commit latency — how far the commit watermark trails delivery.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "checkers/commit_checker.h"
#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "etob/commit_etob.h"

namespace wfd::bench {
namespace {

struct Result {
  std::uint64_t indications = 0;
  std::uint64_t committedLen = 0;
  std::uint64_t revoked = 0;
  std::size_t deliveredLen = 0;
  Time lastCommitAt = 0;
};

Result run(std::size_t n, Time tauOmega, std::size_t crashes, Time crashAt,
           std::uint64_t seed) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  auto fp = crashes == 0 ? FailurePattern::noFailures(n)
                         : Environments::staggeredCrashes(n, crashes, crashAt, 50);
  BroadcastWorkload w;
  w.start = crashes > 0 && crashAt < 2000 ? crashAt + 800 : 150;
  w.perProcess = 6;
  auto cluster = makeScenarioCluster("commit-stable-majority", cfg, fp,
                                     tauOmega, OmegaPreStabilization::kRotating,
                                     w);
  Simulator& sim = cluster.sim();
  cluster.runToHorizon();
  const auto commit = checkCommitSafety(sim.trace(), fp);
  Result r;
  r.indications = commit.indications;
  r.committedLen = commit.committedLenAllCorrect;
  r.revoked = commit.revokedCommits;
  const ProcessId witness = fp.correctSet().front();
  r.deliveredLen = sim.trace().currentDelivered(witness).size();
  for (const auto& ev : sim.trace().outputs(witness)) {
    if (ev.value.holds<CommittedPrefix>()) r.lastCommitAt = ev.time;
  }
  return r;
}

void printTable() {
  std::printf("E10: committed-prefix indications on top of ETOB (paper §7)\n"
              "(safety: revoked must be 0 everywhere; no-majority: commits\n"
              " stop while deliveries continue)\n\n");
  Table t({"scenario", "indications", "committed", "delivered", "revoked"}, 15);

  auto row = [&](const char* name, Result r) {
    t.row({name, std::to_string(r.indications), std::to_string(r.committedLen),
           std::to_string(r.deliveredLen), std::to_string(r.revoked)});
  };
  row("stable-leader", run(3, 0, 0, 0, 1));
  row("late-stabilize", run(3, 2000, 0, 0, 1));
  row("minority-crash", run(5, 1500, 2, 1200, 1));
  row("majority-crash", run(5, 1500, 3, 1200, 1));
  std::printf("\n");
}

void BM_CommitEtob(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = run(3, 0, 0, 0, seed++);
    benchmark::DoNotOptimize(r);
    state.counters["committed"] = static_cast<double>(r.committedLen);
  }
}
BENCHMARK(BM_CommitEtob)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
