#include "scenario/scenario.h"

#include <algorithm>
#include <utility>

#include "checkers/commit_checker.h"
#include "checkers/ec_checker.h"
#include "checkers/tob_checker.h"
#include "checkers/trace_digest.h"
#include "common/ensure.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/strings.h"
#include "rsm/gossip_lww.h"
#include "shard/shard_router.h"
#include "shard/sharded_kv_checker.h"
#include "shard/zipf.h"

namespace wfd {

ClusterSpec clusterSpec(const Scenario& s) {
  WFD_ENSURE_MSG(s.shards == 0 && s.keyed == KeyedWorkload{} &&
                     s.shardFaults.empty() && !s.checks.requireRebalance,
                 "a sharded scenario lowers through shardedSpec()");
  return static_cast<const ClusterSpec&>(s);
}

ShardedSpec shardedSpec(const Scenario& s) {
  WFD_ENSURE_MSG(s.shards > 0, "a flat scenario lowers through clusterSpec()");
  WFD_ENSURE_MSG(!s.pattern && !s.network && !s.detector &&
                     s.workload.perProcess == 0 && s.ecInstances == 0 &&
                     !s.kvReplica && !s.automaton,
                 "a sharded scenario has no flat pattern, network, detector, "
                 "broadcast workload, EC instances, kvReplica or automaton");
  ShardedSpec spec;
  spec.shards = s.shards;
  spec.replicasPerShard = s.config.processCount;
  spec.stack = s.stack;
  spec.config = s.config;
  spec.tauOmega = s.tauOmega;
  spec.omegaMode = s.omegaMode;
  return spec;
}

ScenarioInstance instantiateScenario(const Scenario& s, std::uint64_t seed) {
  return ScenarioInstance(std::make_unique<Cluster>(clusterSpec(s), seed));
}

namespace {

/// checkBroadcastRun on one cluster, each failed core clause recorded as
/// "broadcast: <clause>" + where (" (shard 2)" on a sharded entry).
BroadcastCheckReport checkBroadcast(const Cluster& c, const std::string& where,
                                    std::vector<std::string>& failures) {
  const BroadcastCheckReport rep =
      checkBroadcastRun(c.sim().trace(), c.log(), c.pattern());
  const std::pair<bool, const char*> clauses[] = {
      {rep.validityOk, "validity"},         {rep.agreementOk, "agreement"},
      {rep.noCreationOk, "no-creation"},    {rep.noDuplicationOk, "no-duplication"},
      {rep.causalOrderOk, "causal-order"}};
  for (const auto& [ok, clause] : clauses) {
    if (!ok) failures.push_back("broadcast: " + std::string(clause) + where);
  }
  return rep;
}

}  // namespace

ScenarioRunResult evaluateScenarioRun(const Scenario& s, std::uint64_t seed,
                                      const Cluster& cluster) {
  const Simulator& sim = cluster.sim();
  ScenarioRunResult r;
  r.scenario = s.name;
  r.seed = seed;
  r.stack = algoStackName(s.stack);
  r.network = sim.network().name();
  r.endTime = sim.now();
  r.eventsProcessed = sim.eventsProcessed();
  r.messagesSent = sim.trace().messagesSent();
  r.messagesDelivered = sim.trace().messagesDelivered();
  r.duplicatesSuppressed = sim.duplicatesSuppressed();

  const Trace& trace = sim.trace();
  const BroadcastLog& log = cluster.log();
  const FailurePattern& fp = sim.failurePattern();
  auto fail = [&r](std::string clause) { r.failures.push_back(std::move(clause)); };

  // The stack's spec: the clauses every admissible run of it satisfies.
  if (!s.automaton) {
    switch (s.stack) {
      case AlgoStack::kEtob:
      case AlgoStack::kCommitEtob:
      case AlgoStack::kTobViaConsensus: {
        // Commit safety is deliberately NOT part of commit-eTOB's spec:
        // §7's no-revocation guarantee is conditional on its proviso (a
        // stable majority acknowledging one leader), which sampled fuzz
        // plans violate freely — conflicting pre-stabilization commits
        // then resolve by the strength join (commit_etob.h), revoking one
        // side. Entries whose environment keeps the proviso promise it
        // through checks.commit.
        const BroadcastCheckReport rep =
            checkBroadcast(cluster, "", r.failures);
        r.tauHat = rep.tau;
        if (s.checks.requireStrongTob && !rep.strongTobOk()) {
          fail("broadcast: strong-tob (tau-hat=" + std::to_string(rep.tau) +
               ")");
        }
        if (!broadcastConverged(sim, log)) {
          fail(
              "convergence: correct processes did not agree on a complete d_i");
        }
        break;
      }
      case AlgoStack::kGossipLww: {
        const std::vector<ProcessId> correct = fp.correctSet();
        WFD_ENSURE_MSG(!correct.empty(),
                       "gossip-lww spec needs a correct replica");
        const auto& reference =
            static_cast<const GossipLwwStore&>(sim.automaton(correct.front()));
        for (ProcessId p : correct) {
          if (!static_cast<const GossipLwwStore&>(sim.automaton(p))
                   .sameTable(reference)) {
            fail("gossip: divergence (replica " + std::to_string(p) + ")");
            break;
          }
        }
        break;
      }
      case AlgoStack::kOmegaEc: {
        const EcCheckReport rep = checkEcRun(trace, fp);
        if (!rep.integrityOk) fail("ec: integrity");
        if (!rep.validityOk) fail("ec: validity");
        if (!rep.terminationOk(s.ecInstances)) {
          fail("ec: termination (decided " +
               std::to_string(rep.decidedByAllCorrect) + " of " +
               std::to_string(s.ecInstances) + ")");
        }
        // Eventual agreement: a finite witness k̂ must fall INSIDE the
        // decided range — agreementFromK == ecInstances + 1 means the very
        // last instance still disagreed, i.e. no agreed suffix was ever
        // observed.
        if (rep.agreementFromK > s.ecInstances) {
          fail("ec: agreement (no agreed suffix; k-hat=" +
               std::to_string(rep.agreementFromK) + " > " +
               std::to_string(s.ecInstances) + ")");
        }
        break;
      }
    }
  }
  // What the environment promises on top.
  if (s.checks.commit) {
    const CommitCheckReport rep = checkCommitSafety(trace, fp);
    // Run-specific details stay behind " (" — the part before it is the
    // stable clause KEY the explorer's shrinker matches on (explorer.h).
    if (!rep.safetyOk()) {
      fail("commit: prefixes revoked (" + std::to_string(rep.revokedCommits) +
           ")");
    }
    if (s.checks.requireCommitProgress && rep.indications == 0) {
      fail("commit: no indications despite a stable majority");
    }
  }

  r.digest = traceDigest(trace);
  r.pass = r.failures.empty();
  return r;
}

namespace {

ScenarioRunResult runShardedScenario(const Scenario& s, std::uint64_t seed) {
  const KeyedWorkload& w = s.keyed;
  WFD_ENSURE_MSG(w.keys > 0, "workload needs a non-empty key space");

  ShardedService svc(shardedSpec(s), seed);
  ShardRouter router(svc);

  UniformKeyGenerator uniform(w.keys, splitmix64(seed ^ 0x776b6c64ULL));
  ZipfianKeyGenerator zipf(w.keys, w.zipfian ? w.theta : 0.5,
                           splitmix64(seed ^ 0x776b6c64ULL));
  const auto nextKey = [&]() { return w.zipfian ? zipf.next() : uniform.next(); };

  std::vector<ShardFault> faults = s.shardFaults;
  std::stable_sort(faults.begin(), faults.end(),
                   [](const ShardFault& a, const ShardFault& b) {
                     return a.at < b.at;
                   });
  std::size_t nextFault = 0;
  const auto injectThrough = [&](Time target) {
    while (nextFault < faults.size() && faults[nextFault].at <= target) {
      const ShardFault& f = faults[nextFault++];
      if (f.at > svc.now()) svc.advanceTo(f.at);
      if (f.kind == ShardFault::Kind::kCrash) {
        svc.crashReplica(f.shard, f.replica, svc.now());
      } else {
        svc.isolateReplica(f.shard, f.replica, svc.now(), f.until);
      }
    }
  };

  std::vector<std::uint64_t> written;
  written.reserve(w.puts);
  for (std::uint64_t i = 0; i < w.puts; ++i) {
    const Time target = svc.now() + w.interval;
    injectThrough(target);
    if (svc.now() < target) svc.advanceTo(target);
    const std::uint64_t key = nextKey();
    router.put(key, i + 1);  // values are 1-based op indices — unique
    written.push_back(key);
    router.poll();
    if (w.getEvery != 0 && (i + 1) % w.getEvery == 0) {
      const std::uint64_t pick =
          splitmix64(seed ^ (0x67657473ULL + i)) % written.size();
      router.get(written[pick]);
    }
  }
  injectThrough(s.config.maxTime);

  svc.runUntilQuiescent();
  router.poll();

  // Final read pass: every distinct written key, ascending.
  std::sort(written.begin(), written.end());
  written.erase(std::unique(written.begin(), written.end()), written.end());
  for (const std::uint64_t key : written) router.get(key);

  ScenarioRunResult r;
  r.scenario = s.name;
  r.seed = seed;
  r.stack = algoStackName(s.stack);
  r.network = svc.shard(0).sim().network().name();
  r.endTime = svc.now();
  for (std::size_t sh = 0; sh < svc.shardCount(); ++sh) {
    const Simulator& sim = svc.shard(sh).sim();
    r.eventsProcessed += sim.eventsProcessed();
    r.messagesSent += sim.trace().messagesSent();
    r.messagesDelivered += sim.trace().messagesDelivered();
    r.duplicatesSuppressed += sim.duplicatesSuppressed();
  }
  r.shards = svc.shardCount();
  r.refolds = router.refolds();
  r.rebalances = svc.rebalances();

  const ShardedKvReport kv = checkShardedKvRun(router.ops());
  r.puts = kv.puts;
  r.committedPuts = kv.committedPuts;
  r.gets = kv.gets;
  r.successfulGets = kv.successfulGets;
  auto fail = [&r](std::string clause) { r.failures.push_back(std::move(clause)); };
  if (kv.uncommittedReads > 0) fail("sharded_kv: committed-reads");
  if (kv.monotonicityViolations > 0) fail("sharded_kv: monotone-reads");
  if (kv.staleReads > 0) fail("sharded_kv: read-your-writes");
  for (const std::string& e : kv.errors) fail("sharded_kv: " + e);
  // Every put is a client broadcast in its shard's log(), so each shard's
  // ordering is held to the broadcast core of its stack's spec like a
  // flat entry's (ShardedService admits only commit-eTOB).
  for (std::size_t sh = 0; sh < svc.shardCount(); ++sh) {
    checkBroadcast(svc.shard(sh), " (shard " + std::to_string(sh) + ")",
                   r.failures);
  }
  if (s.checks.commit) {
    for (std::size_t sh = 0; sh < svc.shardCount(); ++sh) {
      const CommitCheckReport c = checkCommitSafety(
          svc.shard(sh).sim().trace(), svc.shard(sh).pattern());
      if (!c.safetyOk()) {
        fail("commit: shard " + std::to_string(sh) +
             " revoked a committed prefix");
      }
    }
    if (s.checks.requireCommitProgress && kv.committedPuts == 0) {
      fail("progress: no put was observed committed");
    }
  }
  if (s.checks.requireRebalance && svc.rebalances() == 0) {
    fail("rebalance: crash schedule re-homed no keys");
  }
  r.pass = r.failures.empty();
  r.digest = shardedRunDigest(svc, router);
  return r;
}

}  // namespace

ScenarioRunResult runScenario(const Scenario& s, std::uint64_t seed) {
  if (s.shards > 0) return runShardedScenario(s, seed);
  Cluster cluster(clusterSpec(s), seed);
  cluster.runToHorizon();
  return evaluateScenarioRun(s, seed, cluster);
}

std::string toJsonLine(const ScenarioRunResult& r) {
  // Key order is part of the CLI's documented output (docs/SCENARIOS.md),
  // so the line is assembled in order with the json.h writer doing the
  // string escaping — byte-identical to the legacy emission for
  // escape-free values, valid JSON for everything else.
  std::string out = "{";
  out += "\"scenario\":" + jsonQuoted(r.scenario);
  out += ",\"seed\":" + std::to_string(r.seed);
  out += ",\"pass\":" + std::string(r.pass ? "true" : "false");
  out += ",\"stack\":" + jsonQuoted(r.stack);
  out += ",\"network\":" + jsonQuoted(r.network);
  out += ",\"end_time\":" + std::to_string(r.endTime);
  out += ",\"events\":" + std::to_string(r.eventsProcessed);
  out += ",\"messages_sent\":" + std::to_string(r.messagesSent);
  out += ",\"messages_delivered\":" + std::to_string(r.messagesDelivered);
  out += ",\"duplicates_suppressed\":" + std::to_string(r.duplicatesSuppressed);
  out += ",\"tau_hat\":" + std::to_string(r.tauHat);
  if (r.shards > 0) {
    out += ",\"shards\":" + std::to_string(r.shards);
    out += ",\"puts\":" + std::to_string(r.puts);
    out += ",\"committed_puts\":" + std::to_string(r.committedPuts);
    out += ",\"gets\":" + std::to_string(r.gets);
    out += ",\"successful_gets\":" + std::to_string(r.successfulGets);
    out += ",\"refolds\":" + std::to_string(r.refolds);
    out += ",\"rebalances\":" + std::to_string(r.rebalances);
  }
  out += ",\"digest\":" + jsonQuoted(hex64(r.digest));
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ",";
    out += jsonQuoted(r.failures[i]);
  }
  out += "]}";
  return out;
}

}  // namespace wfd
