// E8 — Throughput and availability through leader churn (paper §1, §6, §7).
//
// Claim shape: in stable periods the Sigma gap is a latency/availability
// price, not a throughput one — both protocols deliver the whole
// workload. Through a leader-churn window (rotating Omega), ETOB keeps
// adopting the current leader's sequence while consensus-based TOB's
// pipeline stalls on re-preparation, recovering only after stabilization.
//
// Method: fixed workload; measure stable deliveries per 1000 ticks in a
// stable-leader run, and time-to-full-delivery in a churn run.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "checkers/workload.h"

namespace wfd::bench {
namespace {

struct Result {
  double deliveriesPer1k = 0;
  Time fullDeliveryAt = 0;  // maxTime if never
  std::uint64_t messages = 0;
};

SimConfig e8Config(std::size_t n, std::uint64_t seed) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 60000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  cfg.keepDeliverySnapshots = false;
  return cfg;
}

template <typename MakeCluster>
Result run(std::size_t n, std::uint64_t seed, Time tauOmega, MakeCluster make) {
  auto cfg = e8Config(n, seed);
  auto fp = FailurePattern::noFailures(n);
  BroadcastWorkload w;
  w.start = 200;
  w.interval = 30;
  w.perProcess = 25;
  auto cluster = make(cfg, fp, tauOmega, w);
  Simulator& sim = cluster.sim();
  const BroadcastLog& log = cluster.log();
  Result r;
  const bool done = cluster.runUntil(
      [&](const Simulator& s) { return broadcastConverged(s, log); });
  r.fullDeliveryAt = done ? sim.now() : cfg.maxTime;
  const auto& d = sim.trace().currentDelivered(0);
  r.deliveriesPer1k = 1000.0 * static_cast<double>(d.size()) /
                      static_cast<double>(std::max<Time>(sim.now(), 1));
  r.messages = sim.trace().messagesSent();
  return r;
}

Result etobRun(std::size_t n, std::uint64_t seed, Time tauOmega) {
  return run(n, seed, tauOmega, [](SimConfig cfg, FailurePattern fp, Time tau,
                                   const BroadcastWorkload& w) {
    return makeEtobCluster(cfg, std::move(fp), tau,
                           tau == 0 ? OmegaPreStabilization::kStable
                                    : OmegaPreStabilization::kSplitBrain,
                           w);
  });
}

Result tobRun(std::size_t n, std::uint64_t seed, Time tauOmega) {
  return run(n, seed, tauOmega, [](SimConfig cfg, FailurePattern fp, Time tau,
                                   const BroadcastWorkload& w) {
    return makeTobCluster(cfg, std::move(fp), tau,
                          tau == 0 ? OmegaPreStabilization::kStable
                                   : OmegaPreStabilization::kSplitBrain,
                          w);
  });
}

void printTable() {
  std::printf("E8: throughput (stable) and time-to-full-delivery through a\n"
              "leader-churn window (split-brain Omega until t=3000)\n\n");
  Table t({"n", "protocol", "del/1k(st)", "done(stable)", "done(churn)"}, 13);
  for (std::size_t n : {3u, 5u, 7u}) {
    Result es{}, ec{}, ss{}, sc{};
    int runs = 0;
    for (std::uint64_t seed : {1u, 2u}) {
      auto a = etobRun(n, seed, 0);
      auto b = etobRun(n, seed, 3000);
      auto c = tobRun(n, seed, 0);
      auto d = tobRun(n, seed, 3000);
      es.deliveriesPer1k += a.deliveriesPer1k;
      es.fullDeliveryAt += a.fullDeliveryAt;
      ec.fullDeliveryAt += b.fullDeliveryAt;
      ss.deliveriesPer1k += c.deliveriesPer1k;
      ss.fullDeliveryAt += c.fullDeliveryAt;
      sc.fullDeliveryAt += d.fullDeliveryAt;
      ++runs;
    }
    t.row({std::to_string(n), "ETOB", fmt(es.deliveriesPer1k / runs, 1),
           std::to_string(es.fullDeliveryAt / runs),
           std::to_string(ec.fullDeliveryAt / runs)});
    t.row({std::to_string(n), "TOB", fmt(ss.deliveriesPer1k / runs, 1),
           std::to_string(ss.fullDeliveryAt / runs),
           std::to_string(sc.fullDeliveryAt / runs)});
  }
  std::printf("\n");
}

void BM_EtobThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = etobRun(n, seed++, 0);
    benchmark::DoNotOptimize(r);
    state.counters["del_per_1k"] = r.deliveriesPer1k;
  }
}
BENCHMARK(BM_EtobThroughput)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_TobThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = tobRun(n, seed++, 0);
    benchmark::DoNotOptimize(r);
    state.counters["del_per_1k"] = r.deliveriesPer1k;
  }
}
BENCHMARK(BM_TobThroughput)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
