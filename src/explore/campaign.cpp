#include "explore/campaign.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <iterator>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "api/capabilities.h"
#include "common/ensure.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"

namespace wfd {

// --- CoverageMap -------------------------------------------------------------

void CoverageMap::add(const std::string& feature, std::uint64_t hits) {
  counts_[feature] += hits;
}

void CoverageMap::addSignature(const std::vector<std::string>& features) {
  for (const std::string& f : features) add(f);
}

void CoverageMap::merge(const CoverageMap& other) {
  for (const auto& [feature, hits] : other.counts_) add(feature, hits);
}

std::uint64_t CoverageMap::count(const std::string& feature) const {
  const auto it = counts_.find(feature);
  return it == counts_.end() ? 0 : it->second;
}

std::uint64_t CoverageMap::rarity(
    const std::vector<std::string>& features) const {
  std::uint64_t rarest = std::numeric_limits<std::uint64_t>::max();
  for (const std::string& f : features) rarest = std::min(rarest, count(f));
  return rarest;
}

std::uint64_t CoverageMap::totalHits() const {
  std::uint64_t total = 0;
  for (const auto& [feature, hits] : counts_) total += hits;
  return total;
}

Json CoverageMap::toJson() const {
  Json j = Json::object();
  for (const auto& [feature, hits] : counts_) j.set(feature, Json::number(hits));
  return j;
}

// --- Coverage signature ------------------------------------------------------

namespace {

std::string bucketed(const char* name, std::uint64_t v, std::uint64_t cap) {
  const std::uint64_t b = std::min(v, cap);
  return std::string(name) + ":" + std::to_string(b) + (b == cap ? "+" : "");
}

/// Floor(log2(v)) + 1 for v > 0 — a coarse magnitude class so near-miss
/// windows of 90 and 100 ticks share a feature while 10 and 10000 don't.
std::uint64_t log2Class(std::uint64_t v) {
  std::uint64_t c = 0;
  while (v > 0) {
    v >>= 1;
    ++c;
  }
  return c;
}

}  // namespace

std::vector<std::string> coverageSignature(const FuzzPlan& plan,
                                           const ScenarioRunResult& result) {
  std::vector<std::string> sig;
  sig.push_back(std::string("stack:") + algoStackName(plan.stack));
  sig.push_back(bucketed("processes", plan.processCount, 8));
  sig.push_back(std::string("omega:") + omegaModeName(plan.omegaMode));

  sig.push_back(bucketed("crashes", plan.crashes.size(), 3));
  for (const PlanCrash& c : plan.crashes) {
    if (c.time == 0) sig.push_back("crash-at-0");
  }
  sig.push_back(bucketed("partitions", plan.partitions.size(), 3));
  for (const PlanPartition& p : plan.partitions) {
    sig.push_back(p.period != 0 ? "partition-recurring" : "partition-oneshot");
    sig.push_back(p.isolate == kNoProcess ? "partition-blackout"
                                          : "partition-isolating");
  }
  if (plan.chaos.dupNum > 0) sig.push_back("layer:chaos");
  if (!plan.skews.empty()) sig.push_back("layer:skew");
  if (plan.slowLink.process != kNoProcess) sig.push_back("layer:slow-link");
  if (plan.workload.causalChain) sig.push_back("workload:causal-chain");
  if (plan.workload.crossDeps) sig.push_back("workload:cross-deps");

  // Outcome features. tau-hat > 0 under the spec oracle is a checker
  // near-miss: the run disagreed on total order for a while and still
  // satisfied the EVENTUAL clauses — exactly the pre-stabilization
  // behaviour worth mutating toward.
  if (result.pass) {
    sig.push_back("outcome:pass");
  } else {
    for (const std::string& f : result.failures) {
      sig.push_back("fail:" + f.substr(0, f.find(" (")));
    }
  }
  sig.push_back("tau-hat-log2:" + std::to_string(log2Class(result.tauHat)));
  // 6-bit delivered-sequence digest class: a cheap behavioural bucket —
  // plans whose runs land in rare classes produced rare delivery
  // interleavings, whatever the checkers thought of them.
  sig.push_back("digest-class:" + std::to_string(result.digest & 0x3f));

  std::sort(sig.begin(), sig.end());
  sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
  return sig;
}

// --- Mutation ----------------------------------------------------------------

namespace {

/// Mutation kinds, tried in rotation from a seeded starting point until
/// one yields an admissible plan.
enum : std::uint64_t {
  kMutReseedSchedule = 0,
  kMutAddCrash,
  kMutDropCrash,
  kMutAddPartition,
  kMutResizePartition,
  kMutToggleChaos,
  kMutToggleSkew,
  kMutToggleSlowLink,
  kMutScaleWorkload,
  kMutHalveTauOmega,
  kMutGrowSystem,
  kMutKindCount,
};

bool applyMutation(FuzzPlan& p, std::uint64_t kind, Rng& rng) {
  const std::size_t n = p.processCount;
  switch (kind) {
    case kMutReseedSchedule:
      p.simSeed = rng.engine()();
      return true;
    case kMutAddCrash: {
      // Pick among the not-yet-crashed processes (admissibility will
      // still reject e.g. a lost majority on the consensus stack).
      std::vector<ProcessId> alive;
      for (ProcessId q = 0; q < n; ++q) {
        bool crashed = false;
        for (const PlanCrash& c : p.crashes) crashed |= c.process == q;
        if (!crashed) alive.push_back(q);
      }
      if (alive.size() <= 1) return false;
      PlanCrash c;
      c.process = alive[rng.below(alive.size())];
      c.time = rng.chance(1, 4) ? 0 : rng.between(1, 4000);
      p.crashes.push_back(c);
      std::sort(p.crashes.begin(), p.crashes.end(),
                [](const PlanCrash& a, const PlanCrash& b) {
                  return a.process < b.process;
                });
      return true;
    }
    case kMutDropCrash:
      if (p.crashes.empty()) return false;
      p.crashes.erase(p.crashes.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(p.crashes.size())));
      return true;
    case kMutAddPartition: {
      if (p.partitions.size() >= 3) return false;
      // One-shot only: the one-recurring-family admissibility budget may
      // already be spent, and one-shot windows always heal.
      PlanPartition part;
      part.start = rng.between(200, 3000);
      part.width = rng.between(100, 800);
      part.period = 0;
      part.isolate = rng.chance(1, 3) ? kNoProcess : rng.below(n);
      p.partitions.push_back(part);
      return true;
    }
    case kMutResizePartition: {
      if (p.partitions.empty()) return false;
      PlanPartition& part = p.partitions[rng.below(p.partitions.size())];
      if (rng.chance(1, 2)) {
        part.width = std::max<Time>(1, part.width / 2);
      } else {
        part.width *= 2;
        // Keep a recurring family healing (period > width).
        if (part.period != 0 && part.period <= part.width) {
          part.period = 2 * part.width;
        }
      }
      return true;
    }
    case kMutToggleChaos:
      if (p.chaos.dupNum > 0) {
        p.chaos = PlanChaos{};
      } else {
        p.chaos.dupNum = 1;
        p.chaos.dupDen = static_cast<std::uint32_t>(rng.between(2, 4));
        p.chaos.maxExtraCopies = static_cast<std::uint32_t>(rng.between(1, 3));
        p.chaos.reorderJitter = rng.between(10, 80);
        p.chaos.onlyTouching = rng.chance(1, 3) ? rng.below(n) : kNoProcess;
      }
      return true;
    case kMutToggleSkew:
      if (!p.skews.empty()) {
        p.skews.clear();
      } else {
        static constexpr PlanSkew kSkewMenu[] = {{1, 1}, {2, 1}, {3, 1},
                                                 {1, 2}, {2, 3}, {3, 2}};
        p.skews.reserve(n);
        for (std::size_t q = 0; q < n; ++q) {
          p.skews.push_back(kSkewMenu[rng.below(std::size(kSkewMenu))]);
        }
      }
      return true;
    case kMutToggleSlowLink:
      if (p.slowLink.process != kNoProcess) {
        p.slowLink = PlanSlowLink{};
      } else {
        p.slowLink.process = rng.below(n);
        p.slowLink.factor = rng.between(2, 4);
      }
      return true;
    case kMutScaleWorkload:
      if (p.stack == AlgoStack::kOmegaEc) return false;
      p.workload.perProcess = rng.chance(1, 2)
                                  ? std::max<std::size_t>(1, p.workload.perProcess / 2)
                                  : std::min<std::size_t>(10, p.workload.perProcess * 2);
      return true;
    case kMutHalveTauOmega:
      // Shrinking tau_Omega is always fairness-preserving; GROWING it is
      // not (the omega-ec stream-length cap in the sampler), so the
      // mutator only ever moves it down.
      if (p.omegaMode == OmegaPreStabilization::kStable || p.tauOmega < 2) {
        return false;
      }
      p.tauOmega /= 2;
      return true;
    case kMutGrowSystem:
      if (n >= 8) return false;
      ++p.processCount;
      if (!p.skews.empty()) p.skews.push_back(PlanSkew{1, 1});
      return true;
    default:
      return false;
  }
}

}  // namespace

std::optional<FuzzPlan> mutateFuzzPlan(const FuzzPlan& base,
                                       std::uint64_t mutationSeed) {
  Rng rng(mutationSeed);
  const std::uint64_t start = rng.below(kMutKindCount);
  for (std::uint64_t attempt = 0; attempt < kMutKindCount; ++attempt) {
    FuzzPlan p = base;
    if (!applyMutation(p, (start + attempt) % kMutKindCount, rng)) continue;
    p.maxTime = planHorizon(p);
    if (!planAdmissibilityViolations(p).empty()) continue;
    return p;
  }
  return std::nullopt;
}

// --- Work-stealing pool ------------------------------------------------------

namespace {

/// Runs fn(worker, task) for every task in [0, count) across `jobs`
/// worker threads. Each worker owns a deque seeded with a contiguous
/// slice of the index space; a worker that drains its own deque steals
/// the back half of the first non-empty victim's. Tasks never spawn
/// tasks, so "every deque empty" is a complete termination condition.
/// jobs <= 1 executes inline on the calling thread — no threads, no
/// locks, bit-for-bit the sequential path.
void poolRun(unsigned jobs, std::uint64_t count,
             const std::function<void(unsigned, std::uint64_t)>& fn) {
  if (count == 0) return;
  if (jobs <= 1 || count == 1) {
    for (std::uint64_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::uint64_t>(jobs, count));
  struct Queue {
    std::mutex m;
    std::deque<std::uint64_t> q;
  };
  std::vector<Queue> queues(workers);
  for (unsigned w = 0; w < workers; ++w) {
    const std::uint64_t lo = count * w / workers;
    const std::uint64_t hi = count * (w + 1) / workers;
    for (std::uint64_t i = lo; i < hi; ++i) queues[w].q.push_back(i);
  }

  std::atomic<bool> abort{false};
  std::mutex errorMutex;
  std::exception_ptr firstError;

  auto workerLoop = [&](unsigned w) {
    try {
      while (!abort.load(std::memory_order_relaxed)) {
        std::uint64_t task = 0;
        bool have = false;
        {
          std::lock_guard<std::mutex> lock(queues[w].m);
          if (!queues[w].q.empty()) {
            task = queues[w].q.front();
            queues[w].q.pop_front();
            have = true;
          }
        }
        if (!have) {
          // Steal the back half of the first non-empty victim. Loot is
          // staged locally so no two queue locks are ever held at once.
          std::vector<std::uint64_t> loot;
          for (unsigned off = 1; off < workers && loot.empty(); ++off) {
            Queue& victim = queues[(w + off) % workers];
            std::lock_guard<std::mutex> lock(victim.m);
            const std::size_t take = (victim.q.size() + 1) / 2;
            for (std::size_t i = 0; i < take; ++i) {
              loot.push_back(victim.q.back());
              victim.q.pop_back();
            }
          }
          if (loot.empty()) return;  // everything drained — done
          std::lock_guard<std::mutex> lock(queues[w].m);
          for (std::uint64_t t : loot) queues[w].q.push_back(t);
          continue;
        }
        fn(w, task);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
      }
      abort.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(workerLoop, w);
  for (std::thread& t : threads) t.join();
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace

// --- Shard merge -------------------------------------------------------------

std::optional<std::vector<CampaignRunRecord>> mergeCampaignShards(
    std::uint64_t generation, std::uint64_t expectedCount,
    std::vector<std::vector<CampaignRunRecord>> shards, std::string* error) {
  auto fail = [error](std::string why) -> std::optional<std::vector<CampaignRunRecord>> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  std::vector<CampaignRunRecord> merged(expectedCount);
  std::vector<bool> seen(expectedCount, false);
  std::uint64_t total = 0;
  for (std::vector<CampaignRunRecord>& shard : shards) {
    for (CampaignRunRecord& rec : shard) {
      if (rec.generation != generation) {
        return fail("record from generation " + std::to_string(rec.generation) +
                    " merged into generation " + std::to_string(generation));
      }
      if (rec.index >= expectedCount) {
        return fail("record index " + std::to_string(rec.index) +
                    " outside [0, " + std::to_string(expectedCount) + ")");
      }
      if (seen[rec.index]) {
        return fail("plan " + std::to_string(rec.index) +
                    " double-counted across shards");
      }
      seen[rec.index] = true;
      merged[rec.index] = std::move(rec);
      ++total;
    }
  }
  if (total != expectedCount) {
    for (std::uint64_t i = 0; i < expectedCount; ++i) {
      if (!seen[i]) {
        return fail("plan " + std::to_string(i) +
                    " missing from every shard (a worker's results were "
                    "dropped)");
      }
    }
  }
  return merged;
}

// --- Campaign runner ---------------------------------------------------------

namespace {

std::uint64_t deriveMutationSeed(std::uint64_t masterSeed,
                                 std::uint64_t generation, std::uint64_t slot,
                                 std::uint64_t parentFingerprint) {
  std::uint64_t s = splitmix64(masterSeed ^ 0x9e3779b97f4a7c15ULL);
  s = splitmix64(s ^ generation);
  s = splitmix64(s ^ slot);
  s = splitmix64(s ^ parentFingerprint);
  return s;
}

/// Builds generation `gen` (> 0): mutations of the rarest-coverage prior
/// runs, deterministically — the ranking depends only on the MERGED
/// report of generations < gen. Slots whose mutation lands inadmissible
/// fall back to the continued sampled plan stream, so the generation
/// size is always exactly the budget.
std::vector<FuzzPlan> scheduleGeneration(const CampaignReport& sofar,
                                         const CampaignOptions& options,
                                         std::uint64_t gen,
                                         std::uint64_t budget,
                                         std::uint64_t* nextSampleIndex) {
  std::vector<FuzzPlan> out;
  if (budget == 0 || sofar.runs.empty()) return out;

  struct Ranked {
    std::uint64_t rarity;
    const CampaignRunRecord* rec;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(sofar.runs.size());
  for (const CampaignRunRecord& rec : sofar.runs) {
    ranked.push_back({sofar.coverage.rarity(rec.signature), &rec});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.rarity != b.rarity) return a.rarity < b.rarity;
    if (a.rec->generation != b.rec->generation) {
      return a.rec->generation < b.rec->generation;
    }
    return a.rec->index < b.rec->index;
  });

  // A few mutants per rare seed beats one mutant from many mediocre
  // seeds (greybox "energy"); 4 matches common power-schedule defaults.
  constexpr std::uint64_t kMutantsPerSeed = 4;
  const std::uint64_t seedCount = std::min<std::uint64_t>(
      ranked.size(),
      std::max<std::uint64_t>(1, (budget + kMutantsPerSeed - 1) / kMutantsPerSeed));

  out.reserve(budget);
  for (std::uint64_t slot = 0; slot < budget; ++slot) {
    const FuzzPlan& parent = ranked[slot % seedCount].rec->plan;
    const std::uint64_t mseed = deriveMutationSeed(
        options.seed, gen, slot, planFingerprint(parent));
    std::optional<FuzzPlan> mutated = mutateFuzzPlan(parent, mseed);
    out.push_back(mutated ? std::move(*mutated)
                          : sampleFuzzPlan(options.stack, options.seed,
                                           (*nextSampleIndex)++,
                                           options.bigClusterMaxN,
                                           options.lossGenome));
  }
  return out;
}

}  // namespace

CampaignReport runCampaign(const CampaignOptions& options,
                           const std::function<bool()>& keepGoing) {
  CampaignReport report;
  const std::uint64_t mutationBudget = options.mutationsPerGeneration != 0
                                           ? options.mutationsPerGeneration
                                           : options.runs / 4;
  std::uint64_t nextSampleIndex = options.runs;

  for (std::uint64_t gen = 0; gen < options.generations; ++gen) {
    std::vector<FuzzPlan> plans;
    if (gen == 0) {
      plans.reserve(options.runs);
      for (std::uint64_t i = 0; i < options.runs; ++i) {
        plans.push_back(sampleFuzzPlan(options.stack, options.seed, i,
                                       options.bigClusterMaxN,
                                       options.lossGenome));
      }
    } else {
      plans = scheduleGeneration(report, options, gen, mutationBudget,
                                 &nextSampleIndex);
    }
    if (plans.empty()) break;
    if (keepGoing && !keepGoing()) {
      report.truncated = true;
      break;
    }

    // Execute the generation on the pool: worker w appends only to
    // shard w, and the merge re-orders by index — so the merged result
    // (and everything derived from it) is independent of which worker
    // ran which plan, i.e. of the thread count and the steal schedule.
    const unsigned workers = options.jobs <= 1
                                 ? 1
                                 : static_cast<unsigned>(std::min<std::uint64_t>(
                                       options.jobs, plans.size()));
    std::vector<std::vector<CampaignRunRecord>> shards(workers);
    std::atomic<bool> stopped{false};
    poolRun(options.jobs, plans.size(), [&](unsigned w, std::uint64_t i) {
      // The budget is polled before every run: once it is spent, no
      // worker starts another plan.
      if (stopped.load(std::memory_order_relaxed) ||
          (keepGoing && !keepGoing())) {
        stopped.store(true, std::memory_order_relaxed);
        return;
      }
      CampaignRunRecord rec;
      rec.generation = gen;
      rec.index = i;
      rec.plan = plans[i];
      rec.result = runFuzzPlan(rec.plan, options.oracle);
      rec.signature = coverageSignature(rec.plan, rec.result);
      shards[w].push_back(std::move(rec));
    });

    // A generation cut short keeps its longest executed prefix [0, kept):
    // with jobs > 1 a worker may have finished runs past the first index
    // nobody started, and those are dropped so the merge still checks
    // exactly-once coverage of everything that is kept.
    std::uint64_t kept = plans.size();
    if (stopped) {
      std::vector<bool> ran(plans.size(), false);
      for (const auto& shard : shards) {
        for (const CampaignRunRecord& rec : shard) ran[rec.index] = true;
      }
      kept = static_cast<std::uint64_t>(
          std::find(ran.begin(), ran.end(), false) - ran.begin());
      for (auto& shard : shards) {
        std::erase_if(shard, [kept](const CampaignRunRecord& rec) {
          return rec.index >= kept;
        });
      }
    }

    std::string mergeError;
    std::optional<std::vector<CampaignRunRecord>> merged =
        mergeCampaignShards(gen, kept, std::move(shards), &mergeError);
    WFD_ENSURE_MSG(merged.has_value(), "campaign merge: " << mergeError);

    for (CampaignRunRecord& rec : *merged) {
      report.coverage.addSignature(rec.signature);
      if (!rec.result.pass) {
        CampaignViolation v;
        v.generation = rec.generation;
        v.index = rec.index;
        v.plan = rec.plan;
        v.result = rec.result;
        report.violations.push_back(std::move(v));
      }
      report.runs.push_back(std::move(rec));
    }
    report.runsExecuted += kept;
    if (stopped) {
      report.truncated = true;
      break;
    }
  }

  // Shrink every violation — also on the pool. Each shrink is an
  // independent deterministic search writing to its own slot, so the
  // shrunken witnesses are thread-count-independent too.
  poolRun(options.jobs, report.violations.size(),
          [&](unsigned, std::uint64_t i) {
            CampaignViolation& v = report.violations[i];
            if (options.shrink) {
              v.shrunken = shrinkFuzzPlan(v.plan, options.oracle,
                                          options.maxShrinkAttempts, &v.result,
                                          keepGoing);
            } else {
              v.shrunken.plan = v.plan;
              v.shrunken.result = v.result;
            }
          });
  return report;
}

// --- JSON emission -----------------------------------------------------------

std::string campaignRunJsonLine(const CampaignRunRecord& rec) {
  Json j = Json::object();
  j.set("generation", Json::number(rec.generation));
  j.set("run", Json::number(rec.index));
  j.set("stack", Json::str(algoStackName(rec.plan.stack)));
  j.set("plan", Json::str(hex64(planFingerprint(rec.plan))));
  j.set("sim_seed", Json::number(rec.plan.simSeed));
  j.set("processes", Json::number(rec.plan.processCount));
  j.set("network", Json::str(rec.result.network));
  j.set("max_time", Json::number(rec.plan.maxTime));
  j.set("pass", Json::boolean(rec.result.pass));
  j.set("events", Json::number(rec.result.eventsProcessed));
  j.set("messages_sent", Json::number(rec.result.messagesSent));
  j.set("tau_hat", Json::number(rec.result.tauHat));
  j.set("digest", Json::str(hex64(rec.result.digest)));
  Json failures = Json::array();
  for (const std::string& f : rec.result.failures) failures.push(Json::str(f));
  j.set("failures", std::move(failures));
  return j.dump();
}

std::string campaignCoverageJsonLine(AlgoStack stack,
                                     const CampaignReport& report) {
  Json j = Json::object();
  j.set("coverage", Json::str(algoStackName(stack)));
  j.set("runs", Json::number(report.runsExecuted));
  j.set("distinct_features", Json::number(report.coverage.distinctFeatures()));
  j.set("feature_hits", Json::number(report.coverage.totalHits()));
  j.set("features", report.coverage.toJson());
  return j.dump();
}

}  // namespace wfd
