// The three sharded-KV workloads: an open-loop client on the simulated
// clock. Every 10 ticks S puts (S = shard count) and their gets are due
// and issued, whether or not earlier puts have committed, so a put's
// latency is counted from its due tick and generator lateness is zero by
// construction.
#include <algorithm>
#include <limits>
#include <memory>

#include "common/hash.h"
#include "etob/commit_etob.h"
#include "rsm/replica.h"
#include "rsm/state_machines.h"
#include "shard/sharded_kv_checker.h"
#include "shard/sharded_service.h"
#include "shard/zipf.h"
#include "sim/lossy_model.h"
#include "sim/network_model.h"
#include "workloads.h"

namespace perfbench {

namespace {

using wfd::Time;

/// Issue cadence: S puts are due every kInterval ticks.
constexpr Time kInterval = 10;
/// A put still unresolved this long after its last attempt is re-issued
/// (fresh value, current owner). Fault-free commit latency is a few
/// hundred ticks, so only puts stranded by a crash are ever retried.
constexpr Time kRetryAfterTicks = 2000;
/// Bounded settle window after the last put is issued.
constexpr Time kSettleTicks = 20000;
constexpr Time kNever = std::numeric_limits<Time>::max();

using CommitEtobKvReplica =
    wfd::ReplicaAutomaton<wfd::CommitEtobAutomaton, wfd::KvStore>;

wfd::ShardedSpec kvSpec(const KvShape& w) {
  wfd::ShardedSpec spec;
  spec.shards = w.shards;
  spec.replicasPerShard = 3;
  spec.stack = wfd::AlgoStack::kCommitEtob;
  // Delta_t = 10, delays in [20, 40], stable Omega; the horizon and the
  // event guard are far beyond any run here.
  spec.config.maxTime = 100'000'000;
  spec.config.maxEvents = std::uint64_t{1} << 40;
  spec.config.timeoutPeriod = 10;
  spec.config.minDelay = 20;
  spec.config.maxDelay = 40;
  spec.config.keepDeliverySnapshots = false;
  spec.omegaMode = wfd::OmegaPreStabilization::kStable;
  if (w.faults) {
    spec.network = [](std::size_t, const wfd::SimConfig& c)
        -> std::shared_ptr<const wfd::NetworkModel> {
      wfd::IidLossModel::Config loss;
      loss.num = 1;
      loss.den = 10;
      return std::make_shared<wfd::IidLossModel>(
          std::make_shared<wfd::UniformDelayModel>(c.minDelay, c.maxDelay),
          loss);
    };
  }
  return spec;
}

/// The deployment is fixed: ring placement and per-shard schedules come
/// from this constant, so every workload seed meets the same service (the
/// same hot shard, the same crash victims) and only the ops differ.
constexpr std::uint64_t kServiceSeed = 1;

template <typename Gen>
void drawKeys(const KvShape& w, Gen puts, Gen gets, KvOps& ops) {
  ops.putKeys.reserve(w.puts);
  ops.getKeys.reserve(w.puts * w.getsPerPut);
  for (std::uint64_t i = 0; i < w.puts; ++i) ops.putKeys.push_back(puts.next());
  for (std::uint64_t i = 0; i < w.puts * w.getsPerPut; ++i) {
    ops.getKeys.push_back(gets.next());
  }
}

/// First commit time of a logical put; kNever while unresolved.
Time resolvedAt(const KvLog& log, std::size_t logical) {
  Time best = kNever;
  for (std::size_t op : log.attempts[logical]) {
    if (log.ops[op].committed) best = std::min(best, log.ops[op].commitTime);
  }
  return best;
}

/// Longest stretch after `crashTick` during which a put first routed to
/// `shard` was pending and no such put resolved.
Time unavailableTicks(const KvLog& log, std::size_t shard, Time crashTick) {
  struct Put {
    Time due;
    Time resolved;
  };
  std::vector<Put> puts;
  for (std::size_t i = 0; i < log.attempts.size(); ++i) {
    const wfd::RouterOp& first = log.ops[log.attempts[i].front()];
    if (first.shard == shard) puts.push_back({first.time, resolvedAt(log, i)});
  }
  std::vector<Time> resolutions;
  for (const Put& p : puts) {
    if (p.resolved != kNever && p.resolved > crashTick) {
      resolutions.push_back(p.resolved);
    }
  }
  std::sort(resolutions.begin(), resolutions.end());
  resolutions.erase(std::unique(resolutions.begin(), resolutions.end()),
                    resolutions.end());
  Time longest = 0;
  Time prev = crashTick;
  for (Time r : resolutions) {
    // The stretch ending at r starts at prev, or later if every put
    // pending at r was issued after prev.
    Time earliest = kNever;
    for (const Put& p : puts) {
      if (p.due <= r && p.resolved >= r) earliest = std::min(earliest, p.due);
    }
    longest = std::max(longest, r - std::max(prev, earliest));
    prev = r;
  }
  return longest;
}

/// The open-loop client: issues the generated ops against the service
/// through one router, retrying stranded puts, and records spans around
/// every call it makes into the shard, router and api layers.
class KvDriver {
 public:
  KvDriver(const KvShape& w, const KvOps& ops, wfd::ShardedService& svc,
           wfd::ShardRouter& router, Tracer& tracer, KvLog& log)
      : w_(w), ops_(ops), svc_(svc), router_(router), tr_(tracer), log_(log) {
    log_.attempts.assign(w.puts, {});
    lastIssue_.assign(w.puts, 0);
  }

  /// The timed window: issue phase then bounded settle phase.
  void run() {
    Time t = 0;
    std::size_t nextPut = 0;
    std::size_t nextGet = 0;
    while (nextPut < w_.puts) {
      injectFaults(nextPut);
      t += kInterval;
      step(t);
      for (std::size_t j = 0; j < w_.shards && nextPut < w_.puts; ++j) {
        open_.push_back(nextPut);
        put(nextPut++);
        for (std::uint32_t g = 0; g < w_.getsPerPut; ++g) {
          get(ops_.getKeys[nextGet++]);
        }
      }
      poll();
      sweep(t);
    }
    readCommitLag();
    const Time settleEnd = t + kSettleTicks;
    while (!open_.empty() && t < settleEnd) {
      t += kInterval;
      step(t);
      poll();
      sweep(t);
    }
  }

  Time crashTick() const { return crashTick_; }
  std::uint64_t retries() const { return retries_; }
  std::int64_t commitLag() const { return commitLag_; }
  std::uint64_t adoptedBodies() const { return adoptedBodies_; }

 private:
  void injectFaults(std::size_t issued) {
    if (!w_.faults) return;
    if (crashTick_ == kNever && issued >= w_.puts / 2) {
      // Replica 0 is shard 0's Omega leader.
      auto s = tr_.span("shard.crashReplica", -1, 0);
      crashTick_ = svc_.now();
      svc_.crashReplica(0, 0, crashTick_);
    }
    if (!quorumLost_ && issued >= 3 * w_.puts / 4) {
      // Two of three: shard 1 loses its quorum and leaves the ring.
      auto s = tr_.span("shard.crashReplica", -1, 1);
      svc_.crashReplica(1, 1, svc_.now());
      svc_.crashReplica(1, 2, svc_.now());
      quorumLost_ = true;
    }
  }

  void step(Time t) {
    auto s = tr_.span("shard.advanceTo");
    if (tr_.enabled()) {
      // Traced run only: step each shard here first so its cost is
      // attributed per shard; the service call below then finds every
      // shard already at t (bit-identical to stepping through it).
      for (std::size_t sh = 0; sh < svc_.shardCount(); ++sh) {
        auto c = tr_.span("api.advanceTo", -1, static_cast<std::int32_t>(sh));
        svc_.shard(sh).advanceTo(t);
      }
    }
    svc_.advanceTo(t);
  }

  void put(std::size_t logical) {
    auto& attempts = log_.attempts[logical];
    // Values encode (attempt, logical index + 1): every write is unique.
    const std::uint64_t value =
        (static_cast<std::uint64_t>(attempts.size()) << 32) | (logical + 1);
    const std::size_t opIndex = router_.ops().size();
    {
      auto s = tr_.span("router.put", static_cast<std::int64_t>(opIndex));
      router_.put(ops_.putKeys[logical], value);
    }
    attempts.push_back(opIndex);
    lastIssue_[logical] = svc_.now();
    if (tr_.enabled()) watched_.push_back(opIndex);
  }

  void get(std::uint64_t key) {
    auto s = tr_.span("router.get",
                      static_cast<std::int64_t>(router_.ops().size()));
    router_.get(key);
    markResolved();
  }

  void poll() {
    auto s = tr_.span("router.poll");
    router_.poll();
    markResolved();
  }

  /// Traced run: a put's span and the call that saw it commit share the
  /// op index (an instant inside that get/poll span).
  void markResolved() {
    if (!tr_.enabled()) return;
    const auto& ops = router_.ops();
    std::size_t keep = 0;
    for (std::size_t op : watched_) {
      if (ops[op].committed) {
        tr_.instant("router.resolved", static_cast<std::int64_t>(op));
      } else {
        watched_[keep++] = op;
      }
    }
    watched_.resize(keep);
  }

  /// Drops resolved puts from the open set and retries stranded ones.
  void sweep(Time now) {
    const auto& ops = router_.ops();
    std::size_t keep = 0;
    for (std::size_t logical : open_) {
      const auto& attempts = log_.attempts[logical];
      const bool resolved = std::any_of(
          attempts.begin(), attempts.end(),
          [&ops](std::size_t op) { return ops[op].committed; });
      if (resolved) continue;
      if (now - lastIssue_[logical] >= kRetryAfterTicks) {
        put(logical);
        ++retries_;
      }
      open_[keep++] = logical;
    }
    open_.resize(keep);
  }

  /// eTOB state at the read replicas when the issue phase ends.
  void readCommitLag() {
    for (std::size_t sh = 0; sh < svc_.shardCount(); ++sh) {
      if (svc_.correctReplicasOf(sh) == 0) continue;
      wfd::Client c = svc_.shard(sh).client(svc_.readReplicaOf(sh));
      commitLag_ += static_cast<std::int64_t>(c.delivered().size()) -
                    static_cast<std::int64_t>(c.committedPrefix().size());
      const auto* replica =
          dynamic_cast<const CommitEtobKvReplica*>(&c.automaton());
      if (replica != nullptr) {
        adoptedBodies_ += replica->ordering().adoptedBodyCount();
      }
    }
  }

  const KvShape& w_;
  const KvOps& ops_;
  wfd::ShardedService& svc_;
  wfd::ShardRouter& router_;
  Tracer& tr_;
  KvLog& log_;
  std::vector<Time> lastIssue_;
  /// Logical puts not yet seen committed, in issue order.
  std::vector<std::size_t> open_;
  /// Traced run: put attempts not yet seen committed.
  std::vector<std::size_t> watched_;
  Time crashTick_ = kNever;
  bool quorumLost_ = false;
  std::uint64_t retries_ = 0;
  std::int64_t commitLag_ = 0;
  std::uint64_t adoptedBodies_ = 0;
};

}  // namespace

KvOps generateKvOps(const KvShape& w, std::uint64_t seed) {
  const std::uint64_t putSeed = wfd::splitmix64(seed ^ 0x7075744b657973ULL);
  const std::uint64_t getSeed = wfd::splitmix64(seed ^ 0x6765744b657973ULL);
  KvOps ops;
  if (w.zipfian) {
    drawKeys(w, wfd::ZipfianKeyGenerator(w.keySpace, 0.99, putSeed),
             wfd::ZipfianKeyGenerator(w.keySpace, 0.99, getSeed), ops);
  } else {
    drawKeys(w, wfd::UniformKeyGenerator(w.keySpace, putSeed),
             wfd::UniformKeyGenerator(w.keySpace, getSeed), ops);
  }
  return ops;
}

KvFailures countKvFailures(const KvLog& log) {
  KvFailures f;
  for (std::size_t i = 0; i < log.attempts.size(); ++i) {
    if (resolvedAt(log, i) == kNever) ++f.unresolvedPuts;
  }
  const wfd::ShardedKvReport rep = wfd::checkShardedKvRun(log.ops);
  f.flaggedGets = rep.uncommittedReads + rep.monotonicityViolations +
                  rep.staleReads + rep.errors.size();
  if (rep.uncommittedReads > 0) f.problems.push_back("sharded_kv: committed-reads");
  if (rep.monotonicityViolations > 0) f.problems.push_back("sharded_kv: monotone-reads");
  if (rep.staleReads > 0) f.problems.push_back("sharded_kv: read-your-writes");
  for (const std::string& e : rep.errors) f.problems.push_back("sharded_kv: " + e);
  return f;
}

RepOutcome runKvRep(const KvShape& w, std::uint64_t seed, Tracer& tracer,
                    bool check, KvLog* logOut) {
  RepOutcome out;

  // Set-up: generators + generated ops, the service, the router. Timed
  // kSetupSamples times; the last instance is the one driven. Only the
  // kept sample is traced.
  Tracer quiet(false);
  KvOps ops;
  std::unique_ptr<wfd::ShardedService> svc;
  std::unique_ptr<wfd::ShardRouter> router;
  std::vector<double> setup;
  for (int k = 0; k < kSetupSamples; ++k) {
    Tracer& tr = k + 1 == kSetupSamples ? tracer : quiet;
    router.reset();
    svc.reset();
    const auto t0 = Clock::now();
    auto s = tr.span("bench.setup");
    {
      auto g = tr.span("bench.generate");
      ops = generateKvOps(w, seed);
    }
    {
      auto c = tr.span("shard.construct");
      svc = std::make_unique<wfd::ShardedService>(kvSpec(w), kServiceSeed);
    }
    {
      auto c = tr.span("router.construct");
      router = std::make_unique<wfd::ShardRouter>(*svc);
    }
    setup.push_back(secondsSince(t0));
  }
  out.setupSeconds = median(setup);

  KvLog log;
  KvDriver driver(w, ops, *svc, *router, tracer, log);
  const auto w0 = Clock::now();
  {
    auto s = tracer.span("bench.window");
    driver.run();
  }
  out.windowSeconds = secondsSince(w0);
  log.ops = router->ops();

  // Outside the timed window: outcome, counters, checker.
  std::vector<Time> latencies;
  for (std::size_t i = 0; i < log.attempts.size(); ++i) {
    const Time r = resolvedAt(log, i);
    if (r != kNever) latencies.push_back(r - log.ops[log.attempts[i].front()].time);
  }
  std::sort(latencies.begin(), latencies.end());
  out.completed = latencies.size();
  out.digest = wfd::shardedRunDigest(*svc, *router);

  const double committed = std::max<double>(1.0, static_cast<double>(out.completed));
  std::uint64_t events = 0, msgs = 0, weight = 0, retransmits = 0, acks = 0,
                dropped = 0;
  for (std::size_t sh = 0; sh < svc->shardCount(); ++sh) {
    const wfd::Simulator& sim = svc->shard(sh).sim();
    events += sim.eventsProcessed();
    msgs += sim.trace().messagesSent();
    weight += sim.trace().weightSent();
    retransmits += sim.linkRetransmissions();
    acks += sim.linkAcksScheduled();
    dropped += sim.linkDroppedSends();
  }
  std::vector<std::uint64_t> putsPerShard(svc->shardCount(), 0);
  std::uint64_t putOps = 0;
  for (const wfd::RouterOp& op : log.ops) {
    if (op.kind == wfd::RouterOp::Kind::kPut) {
      ++putsPerShard[op.shard];
      ++putOps;
    }
  }
  auto& c = out.counters;
  c["sim.events_per_op"] = static_cast<double>(events) / committed;
  c["sim.msgs_per_op"] = static_cast<double>(msgs) / committed;
  c["sim.weight_per_op"] = static_cast<double>(weight) / committed;
  c["link.retransmits_per_op"] = static_cast<double>(retransmits) / committed;
  c["link.acks_per_op"] = static_cast<double>(acks) / committed;
  c["link.dropped_sends"] = static_cast<double>(dropped);
  c["shard.rebalances"] = static_cast<double>(svc->rebalances());
  c["shard.hot_put_share"] =
      static_cast<double>(*std::max_element(putsPerShard.begin(), putsPerShard.end())) /
      static_cast<double>(std::max<std::uint64_t>(putOps, 1));
  c["rsm.rebuilds"] = static_cast<double>(svc->stats().rebuilds);
  c["etob.commit_lag"] = static_cast<double>(driver.commitLag());
  c["etob.adopted_bodies"] = static_cast<double>(driver.adoptedBodies());
  c["router.retried_puts"] = static_cast<double>(driver.retries());

  out.attempted = w.puts + ops.getKeys.size();
  out.failed = w.puts - out.completed;
  if (check) {
    auto s = tracer.span("checkers.checkShardedKvRun");
    const KvFailures f = countKvFailures(log);
    out.failed = f.failed();
    out.problems = f.problems;
  }

  if (!latencies.empty()) {
    const auto n = static_cast<double>(latencies.size());
    const std::string note = "n=" + std::to_string(latencies.size());
    out.figures.push_back({"commit_p50_ticks",
                           static_cast<double>(nearestRank(latencies, 0.50)),
                           "ticks", note});
    // The highest whole percentile (at most 99) with >= 10 samples beyond.
    const int tail = std::min(99, static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n))));
    if (tail > 50) {
      out.figures.push_back({"commit_p" + std::to_string(tail) + "_ticks",
                             static_cast<double>(nearestRank(latencies, tail / 100.0)),
                             "ticks", note});
    }
  }
  if (w.faults) {
    out.figures.push_back(
        {"unavailable_ticks",
         static_cast<double>(unavailableTicks(log, 0, driver.crashTick())),
         "ticks", "after shard 0's leader crash at tick " +
                      std::to_string(driver.crashTick())});
  }
  out.figures.push_back(
      {"failed_ops_ratio",
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "ratio", std::to_string(out.failed) + " of " + std::to_string(out.attempted)});
  out.figures.push_back({"generator_lateness_ticks", 0.0, "ticks",
                         "open loop on the simulated clock: 0 by construction"});
  if (logOut != nullptr) *logOut = std::move(log);
  return out;
}

}  // namespace perfbench
