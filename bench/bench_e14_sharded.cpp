// E14 — Sharded serving: aggregate throughput and routing-to-commit
// latency vs shard count, under uniform and Zipfian(0.99) keys.
//
// Claim (PR-10): sharding the commit-eTOB KV service over a consistent
// hash ring gives near-linear strong scaling IN TOTAL ORDERING WORK,
// not just in parallel hardware. The whole benchmark is single-threaded
// — S shards step interleaved on one core — so every speedup below is
// algorithmic: each §7 commit indication carries the full committed
// prefix, making a shard's cost superlinear (~quadratic) in the
// commands IT orders. Splitting a fixed N = 1024 ops across S
// independent shards cuts per-shard load to N/S and total work to
// ~N²/S, so S=8 clears 4x the S=1 aggregate ops/sec under uniform keys
// (the recorded BENCH_pr10-shard.json pins this). Zipfian(0.99) keys
// concentrate load on the hot shard, which caps the win — the gap
// between the two key distributions is the price of skew, the
// classical motivation for hot-key splitting.
//
// Method: per point, a ShardedService (S commit-eTOB shards x 3
// replicas, Δ_t=10, delays [20,40], stable Omega) driven by a
// ShardRouter. Issue S puts per 10-tick interval (fixed total N=1024,
// key space 256), polling each interval; then settle until every put
// is observed committed. Reported: aggregate committed-ops/sec of wall
// time, and p50/p99 of (commit-observed - issue) in ticks. Latency is
// quantized by the 10-tick poll cadence; that floor is shared by every
// point, so the cross-S comparison stands.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.h"
#include "shard/shard_router.h"
#include "shard/sharded_service.h"
#include "shard/zipf.h"

namespace wfd::bench {
namespace {

constexpr std::uint64_t kTotalOps = 1024;
constexpr std::uint64_t kKeySpace = 256;
constexpr Time kInterval = 10;

struct E14Run {
  double seconds = 0.0;
  std::uint64_t committed = 0;
  std::vector<Time> latencies;
};

E14Run runSharded(std::size_t shards, bool zipfian, std::uint64_t seed) {
  ShardedSpec spec;
  spec.shards = shards;
  spec.replicasPerShard = 3;
  spec.stack = AlgoStack::kCommitEtob;
  spec.config.maxTime = 200'000;
  spec.config.timeoutPeriod = 10;
  spec.config.minDelay = 20;
  spec.config.maxDelay = 40;
  spec.config.keepDeliverySnapshots = false;  // aggregates suffice
  spec.omegaMode = OmegaPreStabilization::kStable;
  ShardedService svc(spec, seed);
  ShardRouter router(svc);

  UniformKeyGenerator uniform(kKeySpace, splitmix64(seed ^ 0x653134ULL));
  ZipfianKeyGenerator zipf(kKeySpace, 0.99, splitmix64(seed ^ 0x653134ULL));

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t issued = 0;
  while (issued < kTotalOps) {
    svc.advanceBy(kInterval);
    for (std::size_t j = 0; j < shards && issued < kTotalOps; ++j) {
      const std::uint64_t key = zipfian ? zipf.next() : uniform.next();
      router.put(key, ++issued);
    }
    router.poll();
  }
  // Settle: keep stepping until every put is observed committed (or the
  // horizon cuts a straggler off — counted, not hidden).
  while (router.pendingPuts() > 0 && svc.advanceBy(kInterval)) {
    router.poll();
  }
  const auto end = std::chrono::steady_clock::now();

  E14Run r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  for (const RouterOp& op : router.ops()) {
    if (op.kind == RouterOp::Kind::kPut && op.committed) {
      ++r.committed;
      r.latencies.push_back(op.commitTime - op.time);
    }
  }
  return r;
}

Time percentile(std::vector<Time>& lat, double p) {
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  const std::size_t idx = static_cast<std::size_t>(p * (lat.size() - 1));
  return lat[idx];
}

void BM_E14Point(benchmark::State& state, bool zipfian) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  double seconds = 0.0;
  std::uint64_t committed = 0;
  std::vector<Time> latencies;
  for (auto _ : state) {
    E14Run r = runSharded(shards, zipfian, seed++);
    benchmark::DoNotOptimize(r);
    seconds += r.seconds;
    committed += r.committed;
    latencies = std::move(r.latencies);
  }
  state.counters["ops_per_sec"] = static_cast<double>(committed) / seconds;
  state.counters["committed"] =
      static_cast<double>(committed) / static_cast<double>(state.iterations());
  state.counters["p50_ticks"] = static_cast<double>(percentile(latencies, 0.50));
  state.counters["p99_ticks"] = static_cast<double>(percentile(latencies, 0.99));
}

void BM_E14ShardedUniform(benchmark::State& state) {
  BM_E14Point(state, /*zipfian=*/false);
}
void BM_E14ShardedZipf(benchmark::State& state) {
  BM_E14Point(state, /*zipfian=*/true);
}

BENCHMARK(BM_E14ShardedUniform)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E14ShardedZipf)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wfd::bench

BENCHMARK_MAIN();
