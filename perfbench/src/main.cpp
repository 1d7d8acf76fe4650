// perfbench — the repository benchmark.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-file PATH]
//   perfbench --selftest
//
// One run repeats the workload's repetition (same seed, same generated
// inputs) until --seconds of wall time have passed, at least three
// times. The first repetition runs the checkers; every later one must
// reproduce its digest and work counters exactly. The reported rate is
// the 10th percentile of the repetitions' rates, set-up time the 90th
// percentile of their set-up medians (see perfbench/README.md). With --trace 1 one more, traced,
// repetition follows; it must match the untraced digest, and its spans
// give the per-layer metrics and the Chrome trace file.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and metrics. Exit status is 0 iff every check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

int runSelfTests();

namespace {

constexpr std::size_t kMinReps = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Peak resident memory of this process image: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss survives exec, so under a
/// launcher it would report the launcher's peak.)
double peakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Quartile with the 'exclusive' method of Python's statistics.quantiles.
double quartile(std::vector<double> v, int q) {
  std::sort(v.begin(), v.end());
  const double m = static_cast<double>(v.size() + 1) * q / 4.0;
  const auto j = static_cast<std::size_t>(m);
  if (j < 1) return v.front();
  if (j >= v.size()) return v.back();
  return v[j - 1] + (m - static_cast<double>(j)) * (v[j] - v[j - 1]);
}

RepOutcome runRep(const WorkloadDef& def, std::uint64_t seed, Tracer& tracer,
                  bool check) {
  return def.isKv ? runKvRep(def.kv, seed, tracer, check)
                  : runExploreRep(def.explore, seed, tracer);
}

double counter(const RepOutcome& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : it->second;
}

/// Per-layer metrics of the traced repetition. Busy shares are self time
/// over the repetition's traced wall time (set-up sample, window, check);
/// every layer the workload does not call reads 0.
std::vector<Metric> perLayer(const WorkloadDef& def, const Tracer& tr,
                             const RepOutcome& traced, double slowdown) {
  const auto self = tr.selfSecondsByName();
  const auto total = tr.totalSecondsByName();
  const auto lanes = tr.selfSecondsByLane();
  double wall = 0.0;
  for (const Tracer::Span& s : tr.spans()) {
    if (s.parent < 0 && !s.instant) wall += 1e-9 * static_cast<double>(s.endNs - s.startNs);
  }
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto share = [&](double seconds) { return wall > 0.0 ? seconds / wall : 0.0; };

  // Per-shard stepping (KV) and per-stack runs (explorer) by lane.
  double hotShard = 0.0, allShards = 0.0;
  std::vector<double> perStack(std::size(wfd::kAllAlgoStacks), 0.0);
  for (const auto& [key, seconds] : lanes) {
    if (key.first == "api.advanceTo") {
      hotShard = std::max(hotShard, seconds);
      allShards += seconds;
    } else if (key.first == "api.runToHorizon" && key.second >= 0) {
      perStack[static_cast<std::size_t>(key.second)] += seconds;
    }
  }
  if (def.isKv) {
    perStack[static_cast<std::size_t>(wfd::AlgoStack::kCommitEtob)] = allShards;
  }
  const double setupTotal = get(total, "bench.setup");

  std::vector<Metric> m;
  m.push_back({"shard.step_share", share(get(total, "shard.advanceTo")), "share"});
  m.push_back({"shard.hot_step_share", allShards > 0.0 ? hotShard / allShards : 0.0, "share"});
  m.push_back({"shard.hot_put_share", counter(traced, "shard.hot_put_share"), "share"});
  m.push_back({"shard.rebalances", counter(traced, "shard.rebalances"), "count"});
  m.push_back({"shard.construct_share",
               setupTotal > 0.0 ? get(self, "shard.construct") / setupTotal : 0.0, "share"});
  m.push_back({"router.put_share", share(get(self, "router.put")), "share"});
  m.push_back({"router.get_share", share(get(self, "router.get")), "share"});
  m.push_back({"router.poll_share", share(get(self, "router.poll")), "share"});
  m.push_back({"router.retried_puts", counter(traced, "router.retried_puts"), "count"});
  m.push_back({"sim.events_per_op", counter(traced, "sim.events_per_op"), "events/op"});
  m.push_back({"sim.msgs_per_op", counter(traced, "sim.msgs_per_op"), "msgs/op"});
  m.push_back({"sim.weight_per_op", counter(traced, "sim.weight_per_op"), "words/op"});
  m.push_back({"link.retransmits_per_op", counter(traced, "link.retransmits_per_op"), "msgs/op"});
  m.push_back({"link.acks_per_op", counter(traced, "link.acks_per_op"), "msgs/op"});
  m.push_back({"link.dropped_sends", counter(traced, "link.dropped_sends"), "count"});
  m.push_back({"etob.commit_lag", counter(traced, "etob.commit_lag"), "count"});
  m.push_back({"etob.adopted_bodies", counter(traced, "etob.adopted_bodies"), "count"});
  m.push_back({"rsm.rebuilds", counter(traced, "rsm.rebuilds"), "count"});
  m.push_back({"checkers.sharded_kv_share", share(get(self, "checkers.checkShardedKvRun")), "share"});
  m.push_back({"checkers.eval_share", share(get(self, "checkers.evaluateScenarioRun")), "share"});
  m.push_back({"explore.sample_share", share(get(self, "explore.sampleFuzzPlan")), "share"});
  m.push_back({"scenario.lower_share", share(get(self, "scenario.lower")), "share"});
  m.push_back({"api.run_share",
               share(get(self, "api.runToHorizon") + get(self, "api.advanceTo")), "share"});
  for (std::size_t k = 0; k < perStack.size(); ++k) {
    m.push_back({std::string("api.run_share.") + wfd::algoStackName(wfd::kAllAlgoStacks[k]),
                 share(perStack[k]), "share"});
  }
  m.push_back({"trace.slowdown", slowdown, "ratio"});
  return m;
}

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-file PATH]\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

int runWorkload(const WorkloadDef& def, std::uint64_t seed, double seconds,
                bool trace, const std::string& traceFile) {
  std::printf("# perfbench %s seed=%llu seconds=%s trace=%d\n", def.name,
              static_cast<unsigned long long>(seed), num(seconds).c_str(),
              trace ? 1 : 0);
  Tracer off(false);
  const auto start = Clock::now();
  std::vector<RepOutcome> reps;
  reps.push_back(runRep(def, seed, off, /*check=*/true));
  while (reps.size() < kMinReps || secondsSince(start) < seconds) {
    reps.push_back(runRep(def, seed, off, /*check=*/false));
  }
  const RepOutcome& first = reps.front();
  std::vector<std::string> problems = first.problems;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].digest != first.digest || reps[i].counters != first.counters) {
      problems.push_back("repetition " + std::to_string(i) +
                         " diverged from repetition 0 (digest or counters)");
    }
  }

  std::vector<double> rates, setups, windows;
  for (const RepOutcome& r : reps) {
    rates.push_back(static_cast<double>(r.completed) / r.windowSeconds);
    setups.push_back(r.setupSeconds);
    windows.push_back(r.windowSeconds);
    std::printf("rep %zu window_s %s rate %s setup_s %s\n", rates.size() - 1,
                num(r.windowSeconds).c_str(), num(rates.back()).c_str(),
                num(r.setupSeconds).c_str());
  }
  const double opsPerS = median(rates);
  // Reported rate: the 10th percentile of the repetitions' rates, the rate
  // nine in ten of them reach. On a shared host the same repetition runs
  // steadily or erratically (faster) for seconds to minutes at a time; the
  // median flips with the mix, the 10th percentile follows the steady ones.
  std::vector<double> sorted = rates;
  std::sort(sorted.begin(), sorted.end());
  const double sustained = nearestRank(sorted, 0.10);
  // Set-up time the same way: each repetition reports the median of its
  // set-up samples, the run the 90th percentile of those (steady state).
  sorted = setups;
  std::sort(sorted.begin(), sorted.end());
  const double setup = nearestRank(sorted, 0.90);
  const std::uint64_t attempted = first.attempted * reps.size();
  const std::uint64_t failed = first.failed * reps.size();

  // Human-readable report: every end-to-end figure by name and unit.
  const char* rateName = def.isKv ? "committed_ops_per_s" : "plans_per_s";
  const char* rateUnit = def.isKv ? "ops/s" : "plans/s";
  std::printf("repetitions %zu (median window %s s)\n", reps.size(),
              num(median(windows)).c_str());
  std::printf("%s %s %s (median; q1 %s, q3 %s)\n", rateName, num(opsPerS).c_str(),
              rateUnit, num(quartile(rates, 1)).c_str(), num(quartile(rates, 3)).c_str());
  std::printf("ops_per_s %s %s (10th percentile of %s, the reported rate)\n",
              num(sustained).c_str(), rateUnit, rateName);
  for (const Figure& f : first.figures) {
    std::printf("%s %s %s (%s)\n", f.name.c_str(), num(f.value).c_str(),
                f.unit.c_str(), f.note.c_str());
  }
  std::printf("setup_s %s s (90th percentile of the repetitions' medians; median %s)\n",
              num(setup).c_str(), num(median(setups)).c_str());
  std::printf("digest %016llx\n", static_cast<unsigned long long>(first.digest));
  for (const auto& [name, value] : first.counters) {
    std::printf("counter %s %s\n", name.c_str(), num(value).c_str());
  }

  const double peakRss = peakRssMiB();  // before any traced repetition
  std::printf("peak_rss_mb %s MiB\n", num(peakRss).c_str());
  if (!(peakRss > 0.0)) problems.push_back("cannot read VmHWM from /proc/self/status");

  std::vector<Metric> metrics;
  if (trace) {
    Tracer tr(true);
    const RepOutcome traced = runRep(def, seed, tr, /*check=*/true);
    if (traced.digest != first.digest || traced.counters != first.counters) {
      problems.push_back("traced repetition diverged from the untraced ones");
    }
    const double tracedRate =
        static_cast<double>(traced.completed) / traced.windowSeconds;
    metrics = perLayer(def, tr, traced, opsPerS / tracedRate);
    std::printf("traced %s %s %s (%zu spans)\n", rateName, num(tracedRate).c_str(),
                rateUnit, tr.spans().size());
    for (const auto& [name, seconds] : tr.selfSecondsByName()) {
      std::printf("self_s %s %s\n", name.c_str(), num(seconds).c_str());
    }
    if (!traceFile.empty()) {
      if (tr.writeChromeTrace(traceFile)) {
        std::printf("chrome trace written to %s\n", traceFile.c_str());
      } else {
        problems.push_back("cannot write " + traceFile);
      }
    }
  } else {
    metrics.push_back({"ops_per_s", sustained, "ops/s"});
    metrics.push_back({"setup_s", setup, "s"});
    metrics.push_back({"peak_rss_mb", peakRss, "MiB"});
  }
  for (const std::string& p : problems) std::printf("problem %s\n", p.c_str());
  printJson(problems.empty(), attempted, failed, metrics);
  return problems.empty() ? 0 : 1;
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = [] {
    std::vector<WorkloadDef> d;
    {
      WorkloadDef w{};
      w.name = "kv-write-s1";
      w.defaultSeed = 1;
      w.isKv = true;
      w.kv = {1, false, 4096, 512, 0, false};
      d.push_back(w);
    }
    {
      WorkloadDef w{};
      w.name = "kv-read-s8-zipf";
      w.defaultSeed = 1;
      w.isKv = true;
      w.kv = {8, true, 4096, 2048, 19, false};
      d.push_back(w);
    }
    {
      WorkloadDef w{};
      w.name = "kv-fault-s4-lossy";
      w.defaultSeed = 1;
      w.isKv = true;
      w.kv = {4, false, 4096, 2048, 1, true};
      d.push_back(w);
    }
    {
      WorkloadDef w{};
      w.name = "explore-all-stacks";
      w.defaultSeed = 1;
      w.isKv = false;
      w.explore = {20, 1};
      d.push_back(w);
    }
    return d;
  }();
  return defs;
}

const WorkloadDef* findWorkload(const std::string& name) {
  for (const WorkloadDef& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string traceFile;
  std::uint64_t seed = 0;
  bool seedGiven = false;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return runSelfTests();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
      seedGiven = true;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds >= 0.0)) return usage("--seconds takes a number >= 0");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      trace = value[0] - '0';
    } else if (arg == "--trace-file") {
      traceFile = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const WorkloadDef* def = findWorkload(workload);
  if (def == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  return runWorkload(*def, seedGiven ? seed : def->defaultSeed, seconds,
                     trace == 1, traceFile);
}
