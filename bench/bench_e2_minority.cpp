// E2 — Availability without a correct majority (paper §1, §4, §7).
//
// Claim: ETOB + Omega implements eventual consistency in ANY environment;
// consensus-based strong TOB additionally needs Sigma, realized here by
// majority quorums — so once a majority crashes it stalls forever, while
// ETOB keeps delivering. This is the Sigma gap made measurable.
//
// Method: n = 5, three processes crash at t = 2000; every broadcast is
// scheduled AFTER the crash. Count messages stably delivered at the
// correct processes by the end of the run.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "checkers/workload.h"

namespace wfd::bench {
namespace {

struct Outcome {
  std::size_t broadcast = 0;
  std::size_t delivered = 0;  // min over correct processes
};

SimConfig e2Config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.processCount = 5;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  cfg.keepDeliverySnapshots = false;
  return cfg;
}

template <typename MakeCluster>
Outcome run(std::uint64_t seed, MakeCluster make) {
  auto cfg = e2Config(seed);
  auto fp = Environments::majorityCrash(5, 2000);  // 3 of 5 crash
  BroadcastWorkload w;
  w.start = 3000;  // after the majority is gone
  w.interval = 50;
  w.perProcess = 10;
  auto cluster = make(cfg, fp, w);
  Simulator& sim = cluster.sim();
  const BroadcastLog& log = cluster.log();
  cluster.runToHorizon();
  Outcome out;
  out.broadcast = log.size();
  std::size_t minDelivered = SIZE_MAX;
  for (ProcessId p : fp.correctSet()) {
    const auto& d = sim.trace().currentDelivered(p);
    std::size_t count = 0;
    for (MsgId id : log.ids()) {
      if (std::find(d.begin(), d.end(), id) != d.end()) ++count;
    }
    minDelivered = std::min(minDelivered, count);
  }
  out.delivered = minDelivered == SIZE_MAX ? 0 : minDelivered;
  return out;
}

Outcome etobRun(std::uint64_t seed) {
  return run(seed, [](SimConfig cfg, FailurePattern fp,
                      const BroadcastWorkload& w) {
    return makeEtobCluster(cfg, std::move(fp), 2500,
                           OmegaPreStabilization::kSplitBrain, w);
  });
}

Outcome tobRun(std::uint64_t seed) {
  return run(seed, [](SimConfig cfg, FailurePattern fp,
                      const BroadcastWorkload& w) {
    return makeTobCluster(cfg, std::move(fp), 2500,
                          OmegaPreStabilization::kSplitBrain, w);
  });
}

void printTable() {
  std::printf("E2: deliveries after a MAJORITY crash (n=5, 3 crash; all\n"
              "broadcasts post-crash; expect ETOB ~100%%, TOB 0%%)\n\n");
  Table t({"protocol", "broadcast", "delivered", "availability"});
  Outcome e{}, s{};
  int runs = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto a = etobRun(seed);
    auto b = tobRun(seed);
    e.broadcast += a.broadcast;
    e.delivered += a.delivered;
    s.broadcast += b.broadcast;
    s.delivered += b.delivered;
    ++runs;
  }
  t.row({"ETOB (Omega)", std::to_string(e.broadcast / runs),
         std::to_string(e.delivered / runs),
         fmt(100.0 * e.delivered / std::max<std::size_t>(e.broadcast, 1)) + "%"});
  t.row({"TOB (Paxos)", std::to_string(s.broadcast / runs),
         std::to_string(s.delivered / runs),
         fmt(100.0 * s.delivered / std::max<std::size_t>(s.broadcast, 1)) + "%"});
  std::printf("\n");
}

void BM_EtobUnderMajorityCrash(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto out = etobRun(seed++);
    benchmark::DoNotOptimize(out);
    state.counters["delivered"] = static_cast<double>(out.delivered);
  }
}
BENCHMARK(BM_EtobUnderMajorityCrash)->Unit(benchmark::kMillisecond);

void BM_TobUnderMajorityCrash(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto out = tobRun(seed++);
    benchmark::DoNotOptimize(out);
    state.counters["delivered"] = static_cast<double>(out.delivered);
  }
}
BENCHMARK(BM_TobUnderMajorityCrash)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
