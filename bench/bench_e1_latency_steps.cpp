// E1 — Communication-step latency (paper §1 property (1), §5, §7,
// footnote 1, and the lower bound of [22]).
//
// Claim: ET OB stably delivers a broadcast in TWO communication steps
// under a stable leader; strong TOB (consensus-based) needs THREE.
//
// Method: fixed link delay Δ_c (so latency/Δ_c counts message hops),
// λ-period Δ_t << Δ_c, one broadcast from a non-leader after the system
// is warm; hop count = round(stable-delivery latency / Δ_c), median over
// receivers and seeds.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "checkers/workload.h"
#include "sim/app_msg.h"

namespace wfd::bench {
namespace {

constexpr Time kDelta = 1000;   // Δ_c: fixed link delay
constexpr Time kTimeout = 20;   // Δ_t: λ-period (small vs Δ_c)

SimConfig latencyConfig(std::size_t n, std::uint64_t seed) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 40000;
  cfg.timeoutPeriod = kTimeout;
  cfg.minDelay = kDelta;
  cfg.maxDelay = kDelta;
  cfg.fixedDelay = true;
  return cfg;
}

/// Runs one broadcast through a prepared cluster and returns the median
/// hop count over all processes.
template <typename MakeCluster>
double medianHops(std::size_t n, std::uint64_t seed, MakeCluster make) {
  auto cfg = latencyConfig(n, seed);
  auto fp = FailurePattern::noFailures(n);
  auto cluster = make(cfg, fp);
  // Broadcast from the highest-id process (never the leader, p0) after
  // warmup (TOB needs its prepare phase done; ETOB needs nothing).
  const Time at = 3 * kDelta + 7;
  const MsgId id = cluster.client(n - 1).submitAt(at, {1});
  // Per receiver: the message's position in d_p and the last time that
  // position changed (appeared, moved or vanished). For a message present
  // at the end this is its stable-delivery time.
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> position(n, kAbsent);
  std::vector<Time> lastChange(n, 0);
  cluster.observeDeliveries(
      [&](ProcessId p, Time t, const std::vector<MsgId>& d) {
        const auto it = std::find(d.begin(), d.end(), id);
        const std::size_t pos =
            it == d.end() ? kAbsent : static_cast<std::size_t>(it - d.begin());
        if (pos != position[p]) {
          position[p] = pos;
          lastChange[p] = t;
        }
      });
  cluster.runUntil([&](const Simulator& s) {
    for (ProcessId p = 0; p < n; ++p) {
      const auto& d = s.trace().currentDelivered(p);
      if (std::find(d.begin(), d.end(), id) == d.end()) return false;
    }
    return s.now() > at + 5 * kDelta;  // settle, catch revocations
  });
  std::vector<double> hops;
  for (ProcessId p = 0; p < n; ++p) {
    if (position[p] == kAbsent) continue;
    hops.push_back(static_cast<double>(lastChange[p] - at + kDelta / 2) / kDelta);
  }
  if (hops.empty()) return 0;
  std::sort(hops.begin(), hops.end());
  return static_cast<double>(static_cast<int>(hops[hops.size() / 2]));
}

double etobHops(std::size_t n, std::uint64_t seed) {
  return medianHops(n, seed, [](SimConfig cfg, FailurePattern fp) {
    return makeEtobCluster(cfg, std::move(fp), 0, OmegaPreStabilization::kStable,
                           kNoWorkload);
  });
}

double tobHops(std::size_t n, std::uint64_t seed) {
  return medianHops(n, seed, [](SimConfig cfg, FailurePattern fp) {
    return makeTobCluster(cfg, std::move(fp), 0, OmegaPreStabilization::kStable,
                          kNoWorkload);
  });
}

void printTable() {
  std::printf("E1: delivery latency in communication steps "
              "(stable leader; expect ETOB=2, TOB=3)\n\n");
  Table t({"n", "etob_steps", "tob_steps", "ratio"});
  for (std::size_t n : {3u, 5u, 7u}) {
    double e = 0, s = 0;
    int runs = 0;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      e += etobHops(n, seed);
      s += tobHops(n, seed);
      ++runs;
    }
    e /= runs;
    s /= runs;
    t.row({std::to_string(n), fmt(e, 1), fmt(s, 1), fmt(s / e)});
  }
  std::printf("\n");
}

void BM_EtobDeliveryLatency(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  double hops = 0;
  for (auto _ : state) {
    hops = etobHops(n, seed++);
    benchmark::DoNotOptimize(hops);
  }
  state.counters["steps"] = hops;
}
BENCHMARK(BM_EtobDeliveryLatency)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_TobDeliveryLatency(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  double hops = 0;
  for (auto _ : state) {
    hops = tobHops(n, seed++);
    benchmark::DoNotOptimize(hops);
  }
  state.counters["steps"] = hops;
}
BENCHMARK(BM_TobDeliveryLatency)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
