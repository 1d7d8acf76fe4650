// E5 — Causal order during partition periods (paper §1 property (3), §5).
//
// Claim: Algorithm 5 preserves causal order in EVERY delivery sequence,
// even while Omega outputs different leaders at different processes — at
// no extra failure-detector cost. The Dynamo-style strawman (gossip +
// last-writer-wins) converges too, but it inverts causal order freely.
//
// Method: causally chained workload (per-origin chains + cross-process
// dependencies) under a long split-brain phase; count causal inversions
// in ETOB snapshots (checker) and in the gossip store's apply order.
#include <benchmark/benchmark.h>

#include <map>
#include <unordered_map>

#include "bench_util.h"
#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "rsm/gossip_lww.h"
#include "rsm/state_machines.h"

namespace wfd::bench {
namespace {

struct Result {
  std::size_t appliedEvents = 0;
  std::size_t inversions = 0;
};

SimConfig e5Config(std::size_t n, std::uint64_t seed) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 40000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  return cfg;
}

constexpr Time kClientStagger = 5;  // < minDelay: client-session causality
constexpr Time kStart = 150;
constexpr Time kInterval = 120;
constexpr std::size_t kPerProcess = 8;

/// Client-session workload: message i of p depends on its own previous
/// message AND on message i of p-1, written only kClientStagger ticks
/// earlier AT ANOTHER REPLICA — i.e. the dependency has NOT traversed the
/// network when the dependent is broadcast (a client that read at one
/// replica and writes at the next). The paper's C(m) covers this: the
/// client supplies the context C(m) through Client::submitAt; Algorithm 5
/// must buffer accordingly. The facade allocates makeMsgId(p, i) ids, so
/// cross-client dependencies are predictable.
template <typename MakeBody>
void scheduleClientSessionWorkload(Cluster& cluster, MakeBody makeBody) {
  for (ProcessId p = 0; p < 4; ++p) {
    Client client = cluster.client(p);
    for (std::size_t i = 0; i < kPerProcess; ++i) {
      const Time at = kStart + kInterval * i + kClientStagger * p;
      std::vector<MsgId> deps;
      if (i > 0) deps.push_back(makeMsgId(p, static_cast<std::uint32_t>(i - 1)));
      if (p > 0) deps.push_back(makeMsgId(p - 1, static_cast<std::uint32_t>(i)));
      client.submitAt(at, makeBody(makeMsgId(p, static_cast<std::uint32_t>(i)), i),
                      std::move(deps));
    }
  }
}

Result etobRun(std::uint64_t seed) {
  auto cfg = e5Config(4, seed);
  auto fp = FailurePattern::noFailures(4);
  auto cluster =
      makeEtobCluster(cfg, fp, 4000, OmegaPreStabilization::kSplitBrain,
                      kNoWorkload);
  Simulator& sim = cluster.sim();
  scheduleClientSessionWorkload(
      cluster, [](MsgId, std::size_t i) { return Command{i}; });
  const BroadcastLog& log = cluster.log();
  cluster.runUntil([&](const Simulator& s) {
    return s.now() > 6000 && broadcastConverged(s, log);
  });
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  Result r;
  for (ProcessId p = 0; p < 4; ++p) {
    r.appliedEvents += sim.trace().currentDelivered(p).size();
  }
  // The checker counts one error line per violating (snapshot, pair).
  for (const auto& e : report.errors) {
    if (e.rfind("causal-order", 0) == 0) ++r.inversions;
  }
  return r;
}

Result gossipRun(std::uint64_t seed) {
  auto cfg = e5Config(4, seed);
  auto fp = FailurePattern::noFailures(4);
  auto cluster =
      makeScenarioCluster("gossip-lww-convergence", cfg, fp, 0,
                          OmegaPreStabilization::kStable, kNoWorkload);
  Simulator& sim = cluster.sim();
  // Same client-session workload; bodies are LWW puts with per-message
  // keys so nothing is shadowed and every update is applied somewhere.
  scheduleClientSessionWorkload(
      cluster, [](MsgId id, std::size_t i) { return makePut(id, i); });
  const BroadcastLog& log = cluster.log();
  cluster.runToHorizon();
  // Apply order per process from GossipApplied outputs; an inversion is a
  // declared dependency applied AFTER its dependent (or never).
  Result r;
  for (ProcessId p = 0; p < 4; ++p) {
    std::unordered_map<MsgId, std::size_t> applyIndex;
    for (const auto& ev : sim.trace().outputs(p)) {
      if (const auto* applied = ev.value.as<GossipApplied>()) {
        applyIndex.emplace(applied->id, applyIndex.size());
      }
    }
    r.appliedEvents += applyIndex.size();
    for (MsgId id : log.ids()) {
      auto self = applyIndex.find(id);
      if (self == applyIndex.end()) continue;
      for (MsgId dep : log.find(id)->deps) {
        auto d = applyIndex.find(dep);
        if (d == applyIndex.end() || d->second > self->second) ++r.inversions;
      }
    }
  }
  return r;
}

void printTable() {
  std::printf("E5: causal-order inversions under split-brain Omega\n"
              "(expect ETOB = 0; gossip/LWW > 0)\n\n");
  Table t({"system", "applied", "inversions"});
  Result e{}, g{};
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto a = etobRun(seed);
    auto b = gossipRun(seed);
    e.appliedEvents += a.appliedEvents;
    e.inversions += a.inversions;
    g.appliedEvents += b.appliedEvents;
    g.inversions += b.inversions;
  }
  t.row({"ETOB (Alg 5)", std::to_string(e.appliedEvents),
         std::to_string(e.inversions)});
  t.row({"gossip LWW", std::to_string(g.appliedEvents),
         std::to_string(g.inversions)});
  std::printf("\n");
}

void BM_EtobCausalWorkload(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = etobRun(seed++);
    benchmark::DoNotOptimize(r);
    state.counters["inversions"] = static_cast<double>(r.inversions);
  }
}
BENCHMARK(BM_EtobCausalWorkload)->Unit(benchmark::kMillisecond);

void BM_GossipCausalWorkload(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = gossipRun(seed++);
    benchmark::DoNotOptimize(r);
    state.counters["inversions"] = static_cast<double>(r.inversions);
  }
}
BENCHMARK(BM_GossipCausalWorkload)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  wfd::bench::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
