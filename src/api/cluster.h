// wfd::service — the unified Cluster/Client facade.
//
// The paper's claim is about a replicated *service*: an eventually
// consistent one stays available to clients where a strongly consistent
// one stalls (Theorem 2). This module is that service surface. One
// declarative ClusterSpec names everything a deployment needs — protocol
// stack, scheduler parameters, failure pattern, network-model and
// detector factories — and Cluster turns it into a running replicated
// system that callers drive *incrementally*:
//
//   ClusterSpec spec;                       // what to run
//   spec.stack = AlgoStack::kEtob;
//   Cluster cluster(spec, /*seed=*/42);     // a running service
//   Client c0 = cluster.client(0);          // per-process handle
//   c0.submit({1, 2, 3});                   // broadcast through replica 0
//   cluster.advanceBy(500);                 // step virtual time
//   cluster.crashAt(4, cluster.now() + 10); // live fault injection
//   cluster.runUntilQuiescent();            // settle
//   c0.delivered();                         // observe d_0
//
// Everything above the simulator goes through this surface: the scenario
// runner lowers catalog entries to ClusterSpecs (scenario.cpp is a thin
// adapter), the explorer lowers FuzzPlans the same way, the benches
// build their swept cluster variants here, and the examples are facade
// calls only. Determinism is preserved end-to-end: a (spec, seed) pair
// plus the timed sequence of facade calls fully determines the run, and
// a run split into arbitrary advanceTo/advanceBy increments is
// bit-for-bit the run executed in one go (the digest-equivalence tests
// in tests/test_api.cpp pin both properties over the whole catalog).
//
// Thread affinity: a Cluster is entirely self-contained — it owns its
// Simulator, Rng, trace log and observers, holds no global or static
// mutable state, and nothing in this layer (or below it, audited down to
// src/common/: the only function-local statics in the library are const)
// is shared between instances. DISTINCT Clusters may therefore run on
// distinct threads with no synchronization, which is what the campaign
// runner's worker threads do (explore/campaign.h): each worker
// constructs, drives and destroys its own Cluster per plan it claims. A SINGLE
// Cluster (and its Client handles, which borrow it) is not synchronized
// and must stay confined to one thread at a time. TSan enforces the
// audit in CI (the `tsan` preset + campaign smoke).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "api/capabilities.h"
#include "checkers/broadcast_log.h"
#include "checkers/workload.h"
#include "common/types.h"
#include "fd/detectors.h"
#include "sim/failure_pattern.h"
#include "sim/network_model.h"
#include "sim/simulator.h"

namespace wfd {

class Cluster;

/// Declarative description of a replicated service deployment. Every
/// field is data or a pure factory, so (spec, seed) fully determines the
/// cluster's run. A scenario catalog entry is this struct plus a name and
/// what its environment promises (Scenario in scenario/scenario.h
/// derives from it).
struct ClusterSpec {
  AlgoStack stack = AlgoStack::kEtob;

  /// Base scheduler parameters. The per-cluster seed overrides
  /// config.seed at construction.
  SimConfig config;

  /// Failure pattern factory (receives config.processCount);
  /// nullptr = no failures.
  std::function<FailurePattern(std::size_t n)> pattern;

  /// Network model factory; nullptr = uniform delay from the config
  /// (the legacy scheduling, bit-for-bit).
  std::function<std::shared_ptr<const NetworkModel>(const SimConfig&)> network;

  /// Failure detector factory; nullptr = OmegaFd(pattern, tauOmega,
  /// omegaMode). Also re-invoked after live crash injection so the
  /// oracle's history stays valid for the updated pattern. gossip-LWW
  /// reads no detector, so this has no effect on that stack.
  std::function<std::shared_ptr<const FailureDetector>(const FailurePattern&)>
      detector;
  Time tauOmega = 0;
  OmegaPreStabilization omegaMode = OmegaPreStabilization::kSplitBrain;

  /// The cluster's broadcast workload, scheduled once at construction
  /// with per-origin ids 0..perProcess-1 (ignored by kOmegaEc, which
  /// drives proposals; must be empty — perProcess == 0 — when
  /// `automaton` is set, since a custom automaton defines its own input
  /// surface). perProcess == 0 schedules nothing; client submissions
  /// take ids above the workload's either way.
  BroadcastWorkload workload;

  /// kOmegaEc: number of EC instances each process proposes.
  Instance ecInstances = 0;

  /// Wrap the ordering stack in a replicated KvStore (ReplicaAutomaton):
  /// clients gain put()/kvGet() on top of the broadcast surface. Only
  /// valid for the broadcast stacks (eTOB, commit-eTOB, TOB). A put is an
  /// ordinary client broadcast whose body is the command. A broadcast
  /// `workload` is rejected here: its marker bodies are not commands.
  bool kvReplica = false;

  /// Escape hatch: install custom automata instead of the stack lowering
  /// (e.g. the CHT extractor example). The cluster still owns stepping,
  /// fault injection and observers; the Client protocol surface is
  /// whatever the automaton implements (capabilities all false).
  std::function<std::unique_ptr<Automaton>(const SimConfig&, ProcessId)>
      automaton;
};

/// Per-process client handle — the paper's application sitting at p_i.
/// A Client is a cheap value tied to its Cluster (which must outlive
/// it); all five stacks expose this one surface, with per-stack
/// availability advertised by capabilities().
class Client {
 public:
  ProcessId process() const { return process_; }
  const Capabilities& capabilities() const;

  /// Broadcasts an application message from this process at time t (must
  /// be >= now; submit() uses now() + 1). The facade allocates the MsgId,
  /// records the submission in the cluster's broadcast log (so checkers
  /// see it), schedules the input and returns the id, on every stack. On
  /// a kvReplica cluster the body is a state-machine Command.
  /// Requires capabilities().submits.
  MsgId submitAt(Time t, std::vector<std::uint64_t> body,
                 std::vector<MsgId> causalDeps = {});
  MsgId submit(std::vector<std::uint64_t> body,
               std::vector<MsgId> causalDeps = {});

  /// Replicated KV write at time t (put() uses now() + 1): an LWW put on
  /// the gossip stack, a KvStore put command on a kvReplica cluster —
  /// either way a client broadcast, whose MsgId is returned.
  /// Requires capabilities().kv.
  MsgId putAt(Time t, std::uint64_t key, std::uint64_t value);
  MsgId put(std::uint64_t key, std::uint64_t value);

  /// Current delivery sequence d_i; empty when the stack exposes none
  /// (capabilities().deliverySequence is false).
  const std::vector<MsgId>& delivered() const;

  /// Longest prefix of d_i this process learned is committed (§7).
  /// Empty on every stack without commit semantics — exactly the stacks
  /// where capabilities().committedPrefix is false. The reference reads
  /// the live automaton: it is valid until the cluster next steps.
  const std::vector<MsgId>& committedPrefix() const;

  /// Replicated KV read; nullopt when absent or unsupported.
  std::optional<std::uint64_t> kvGet(std::uint64_t key) const;
  /// KV aggregate counters (keys stored / commands or puts applied /
  /// full state-machine rebuilds after a delivery-sequence rewrite).
  ///
  /// These counters are REPLICA-GROUP-LOCAL: they reflect only the keys
  /// that reached this cluster. In a sharded deployment most keys hash
  /// to other clusters, so summing one client's kvStats over time
  /// silently undercounts the service — aggregate across shards through
  /// ShardedService::stats() (shard/sharded_service.h) instead.
  struct KvStats {
    std::size_t keys = 0;
    std::uint64_t applied = 0;
    std::uint64_t rebuilds = 0;
  };
  KvStats kvStats() const;

  /// Body of a broadcast message known to this process's ordering layer
  /// (on a kvReplica cluster: a replicated command, id-addressable from
  /// delivered()/committedPrefix()). nullptr when the id is unknown here
  /// or the stack keeps no ordering-layer message store. The pointer is
  /// invalidated by advancing the cluster.
  const std::vector<std::uint64_t>* findBody(MsgId id) const;

  /// EC decision history of this process (self-proposing stack):
  /// (instance, decided value), in decision order.
  std::vector<std::pair<Instance, Value>> decisions() const;

  /// Push-style consumption: cb(time, d_i) on every change of this
  /// process's delivery sequence, synchronously as the run advances.
  void onDeliver(std::function<void(Time, const std::vector<MsgId>&)> cb);

  /// The live automaton behind this client (tests/examples peek at
  /// protocol internals the uniform surface does not carry).
  const Automaton& automaton() const;

 private:
  friend class Cluster;
  Client(Cluster* cluster, ProcessId process)
      : cluster_(cluster), process_(process) {}

  Cluster* cluster_;
  ProcessId process_;
};

/// A running replicated service: owns the Simulator plus everything the
/// uniform client surface needs (broadcast log, id allocation, observer
/// fan-out). Pinned to one address — create with make_unique to hand
/// ownership around (ScenarioInstance does).
class Cluster {
 public:
  /// Builds and wires the whole system: pattern, detector, network,
  /// one stack automaton per process, the spec's workload. Performs the
  /// exact construction sequence the scenario path always used, so
  /// (spec, seed) reproduces pre-facade trace digests bit-for-bit.
  Cluster(ClusterSpec spec, std::uint64_t seed);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Introspection --------------------------------------------------------

  const ClusterSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }
  const Capabilities& capabilities() const { return caps_; }
  std::size_t processCount() const { return sim_->config().processCount; }
  Time now() const { return sim_->now(); }
  /// Input history: the spec's workload and every client submission, KV
  /// writes included — what the broadcast checkers verify against.
  const BroadcastLog& log() const { return log_; }
  const FailurePattern& pattern() const { return sim_->failurePattern(); }

  /// The underlying simulator (checkers read its trace; tests peek at
  /// internals). Stepping through the facade and through sim() compose —
  /// both drain the same event queue.
  Simulator& sim() { return *sim_; }
  const Simulator& sim() const { return *sim_; }

  // --- Incremental stepping -------------------------------------------------

  /// Processes every event with time <= t (monotone: t >= now()).
  /// Returns true while the run can still make progress.
  bool advanceTo(Time t);
  /// advanceTo(now() + d).
  bool advanceBy(Time d);
  /// Runs to the config horizon (maxTime / maxEvents).
  void runToHorizon();
  /// Simulator::runUntil pass-through (same checkEvery contract).
  bool runUntil(const std::function<bool(const Simulator&)>& pred,
                std::uint64_t checkEvery = 64);
  /// Runs until the service is quiescent: no application input is still
  /// pending and no observable (delivery sequence or output of any
  /// process) changed for `window` consecutive ticks — or until the
  /// horizon. window == 0 uses 4 * (maxDelay + timeoutPeriod), enough
  /// for any in-flight message plus the λ-steps reacting to it. Returns
  /// now() at the stop point. Note protocol background chatter (gossip
  /// anti-entropy, eTOB promote refreshes) does not count as activity —
  /// quiescence is about the service's observable state.
  Time runUntilQuiescent(Time window = 0);

  // --- Live fault injection -------------------------------------------------

  /// Crashes p at time t (>= now): from t on, p takes no steps and its
  /// incoming messages vanish. The failure detector is rebuilt for the
  /// updated pattern — through the spec's factory when given, otherwise
  /// as an OmegaFd that re-stabilizes at max(tauOmega, t) (a crash can
  /// reopen a leader-election window, never close one retroactively).
  /// At least one process must remain correct.
  void crashAt(ProcessId p, Time t);

  /// Cuts every link touching p during [start, end) (start >= now): a
  /// copy of a later send that would ARRIVE on a cut link inside the
  /// window arrives at `end` instead (links stay reliable — this models
  /// the paper's partitions, which delay but never lose). The rule is by
  /// arrival time, so a send just before `start` can be deferred too;
  /// copies already in flight when the call is made keep their arrival.
  void isolate(ProcessId p, Time start, Time end);

  // --- Clients and observers ------------------------------------------------

  Client client(ProcessId p);

  /// cb(process, time, d_p) on every delivery-sequence change anywhere.
  using DeliveryObserver =
      std::function<void(ProcessId, Time, const std::vector<MsgId>&)>;
  void observeDeliveries(DeliveryObserver cb);
  /// cb(process, time, output) on every append-only output anywhere
  /// (EC decisions, commit indications, gossip applies, ...).
  using OutputObserver = std::function<void(ProcessId, Time, const Payload&)>;
  void observeOutputs(OutputObserver cb);

 private:
  friend class Client;

  /// The one submission path: allocates the MsgId, logs the message and
  /// schedules its BroadcastInput at p.
  MsgId submitAt(ProcessId p, Time t, std::vector<std::uint64_t> body,
                 std::vector<MsgId> causalDeps);
  std::uint64_t observableFingerprint() const;
  void rebuildDetector(Time injectionTime);

  ClusterSpec spec_;
  std::uint64_t seed_ = 0;
  Capabilities caps_;
  std::unique_ptr<Simulator> sim_;
  BroadcastLog log_;
  /// Per-process next client MsgId sequence number; starts at
  /// spec.workload.perProcess, above the workload's ids 0..perProcess-1.
  std::vector<std::uint32_t> nextClientSeq_;
  std::vector<DeliveryObserver> deliveryObservers_;
  std::vector<OutputObserver> outputObservers_;
};

}  // namespace wfd
