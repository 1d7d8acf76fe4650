#include "explore/campaign.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "api/capabilities.h"
#include "common/hash.h"
#include "common/strings.h"

namespace wfd {

// --- CoverageMap -------------------------------------------------------------

void CoverageMap::add(const std::string& feature, std::uint64_t hits) {
  counts_[feature] += hits;
}

void CoverageMap::addSignature(const std::vector<std::string>& features) {
  for (const std::string& f : features) add(f);
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
    for (const std::string& key : failureKeys(result)) sig.push_back("fail:" + key);
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

// --- Claim counter -----------------------------------------------------------

namespace {

/// Runs fn(i) for i = 0, 1, 2, ... across up to `jobs` threads, handing
/// out the indices of [0, count) in order from one mutex-guarded counter.
/// Each claim first polls `keepGoing` (nullable) under that lock; the
/// first refusal or the first exception from fn stops all further claims.
/// So the claimed indices are exactly [0, k) and every claimed fn(i)
/// finishes; returns k (then rethrows the first exception, if any).
/// jobs <= 1 runs on the calling thread and starts no threads.
std::uint64_t poolRun(unsigned jobs, std::uint64_t count,
                      const std::function<bool()>& keepGoing,
                      const std::function<void(std::uint64_t)>& fn) {
  std::mutex m;
  std::uint64_t next = 0;
  bool stopped = false;
  std::exception_ptr firstError;

  auto claim = [&](std::uint64_t* i) {
    std::lock_guard<std::mutex> lock(m);
    if (stopped || next == count) return false;
    if (keepGoing && !keepGoing()) {
      stopped = true;
      return false;
    }
    *i = next++;
    return true;
  };
  auto worker = [&]() {
    std::uint64_t i = 0;
    while (claim(&i)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(m);
        if (!firstError) firstError = std::current_exception();
        stopped = true;
      }
    }
  };

  const std::uint64_t workers = std::min<std::uint64_t>(jobs, count);
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::uint64_t w = 0; w < workers; ++w) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  if (firstError) std::rethrow_exception(firstError);
  return next;
}

// --- Campaign runner ---------------------------------------------------------


std::uint64_t deriveMutationSeed(std::uint64_t masterSeed,
                                 std::uint64_t generation, std::uint64_t slot,
                                 std::uint64_t parentFingerprint) {
  std::uint64_t s = splitmix64(masterSeed ^ 0x9e3779b97f4a7c15ULL);
  s = splitmix64(s ^ generation);
  s = splitmix64(s ^ slot);
  s = splitmix64(s ^ parentFingerprint);
  return s;
}

/// Generation `gen` (> 0): `budget` mutations of the rarest-coverage
/// prior runs, deterministically — the ranking depends only on the
/// MERGED report of generations < gen. next() makes the plan of the next
/// slot, so plans are made in slot order as the runs claim them, never
/// ahead. A slot whose mutation lands inadmissible falls back to the
/// continued sampled plan stream, so every slot gets a plan.
class MutantSchedule {
 public:
  MutantSchedule(const CampaignReport& sofar, const CampaignOptions& options,
                 std::uint64_t gen, std::uint64_t budget,
                 std::uint64_t* nextSampleIndex)
      : options_(options), gen_(gen), nextSampleIndex_(nextSampleIndex) {
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
        std::max<std::uint64_t>(1, budget / kMutantsPerSeed +
                                       (budget % kMutantsPerSeed != 0)));
    parents_.reserve(seedCount);
    for (std::uint64_t i = 0; i < seedCount; ++i) {
      parents_.push_back(&ranked[i].rec->plan);
    }
  }

  /// Plan of the next slot.
  FuzzPlan next() {
    const std::uint64_t slot = slot_++;
    const FuzzPlan& parent = *parents_[slot % parents_.size()];
    const std::uint64_t mseed = deriveMutationSeed(
        options_.seed, gen_, slot, planFingerprint(parent));
    std::optional<FuzzPlan> mutated = mutateFuzzPlan(parent, mseed);
    return mutated ? std::move(*mutated)
                   : sampleFuzzPlan(options_.stack, options_.seed,
                                    (*nextSampleIndex_)++,
                                    options_.bigClusterMaxN,
                                    options_.lossGenome);
  }

 private:
  const CampaignOptions& options_;
  std::uint64_t gen_;
  std::uint64_t* nextSampleIndex_;
  /// The `seedCount` rarest prior runs' plans, rarest first.
  std::vector<const FuzzPlan*> parents_;
  std::uint64_t slot_ = 0;
};

}  // namespace

CampaignReport runCampaign(const CampaignOptions& options,
                           const std::function<bool()>& keepGoing) {
  CampaignReport report;
  const std::uint64_t mutationBudget = options.mutationsPerGeneration != 0
                                           ? options.mutationsPerGeneration
                                           : options.runs / 4;
  std::uint64_t nextSampleIndex = options.runs;

  for (std::uint64_t gen = 0; gen < options.generations; ++gen) {
    // Plans are made as the runs claim them, never ahead, so neither a
    // huge --runs nor a huge --mutations is paid for before the first
    // run. Generation 0's plan i is a pure function of i, so the run that
    // claims i samples it; later generations make theirs in slot order.
    const std::uint64_t count =
        gen == 0 ? options.runs : (report.runs.empty() ? 0 : mutationBudget);
    if (count == 0) break;
    std::optional<MutantSchedule> mutants;
    if (gen > 0) {
      mutants.emplace(report, options, gen, count, &nextSampleIndex);
    }

    // The record slots grow with the claims. A deque keeps every slot in
    // place as it grows, and each run writes only the slot of the index
    // it claimed, so the records (and everything derived from them) are
    // independent of which thread ran which plan, i.e. of the thread
    // count.
    std::deque<CampaignRunRecord> records;
    std::mutex recordsMutex;
    const std::uint64_t kept =
        poolRun(options.jobs, count, keepGoing, [&](std::uint64_t i) {
          CampaignRunRecord* rec = nullptr;
          {
            std::lock_guard<std::mutex> lock(recordsMutex);
            while (records.size() <= i) {
              records.emplace_back();
              if (mutants) records.back().plan = mutants->next();
            }
            rec = &records[i];
          }
          rec->generation = gen;
          rec->index = i;
          if (gen == 0) {
            rec->plan = sampleFuzzPlan(options.stack, options.seed, i,
                                       options.bigClusterMaxN,
                                       options.lossGenome);
          }
          rec->result = runFuzzPlan(rec->plan, options.oracle);
          rec->signature = coverageSignature(rec->plan, rec->result);
        });

    for (CampaignRunRecord& rec : records) {
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
    if (kept < count) {
      report.truncated = true;
      break;
    }
  }

  // Shrink every violation — also on the pool. Each shrink is an
  // independent deterministic search writing to its own slot, so the
  // shrunken witnesses are thread-count-independent too. No claim is
  // refused here: the shrinker polls keepGoing between attempts itself,
  // so a violation whose budget is spent is still reported, unshrunk.
  poolRun(options.jobs, report.violations.size(), nullptr,
          [&](std::uint64_t i) {
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
  j.set("runs", Json::number(report.runs.size()));
  j.set("distinct_features", Json::number(report.coverage.distinctFeatures()));
  j.set("feature_hits", Json::number(report.coverage.totalHits()));
  j.set("features", report.coverage.toJson());
  return j.dump();
}

}  // namespace wfd
