#include "api/cluster.h"

#include <algorithm>
#include <utility>

#include "checkers/trace_digest.h"
#include "common/ensure.h"
#include "ec/ec_driver.h"
#include "ec/ec_types.h"
#include "ec/omega_ec.h"
#include "etob/commit_etob.h"
#include "etob/etob_automaton.h"
#include "rsm/gossip_lww.h"
#include "rsm/replica.h"
#include "rsm/state_machines.h"
#include "tob/tob_via_consensus.h"

namespace wfd {

const char* algoStackName(AlgoStack stack) {
  switch (stack) {
    case AlgoStack::kEtob:
      return "etob";
    case AlgoStack::kCommitEtob:
      return "commit-etob";
    case AlgoStack::kTobViaConsensus:
      return "tob-via-consensus";
    case AlgoStack::kGossipLww:
      return "gossip-lww";
    case AlgoStack::kOmegaEc:
      return "omega-ec";
  }
  return "?";
}

bool parseAlgoStack(const std::string& name, AlgoStack* out) {
  for (AlgoStack stack : kAllAlgoStacks) {
    if (name == algoStackName(stack)) {
      *out = stack;
      return true;
    }
  }
  return false;
}

Capabilities stackCapabilities(AlgoStack stack) {
  Capabilities caps;
  switch (stack) {
    case AlgoStack::kEtob:
    case AlgoStack::kTobViaConsensus:
      caps.submits = true;
      caps.deliverySequence = true;
      break;
    case AlgoStack::kCommitEtob:
      caps.submits = true;
      caps.deliverySequence = true;
      caps.committedPrefix = true;
      break;
    case AlgoStack::kGossipLww:
      caps.submits = true;  // LWW put bodies; non-put bodies are ignored
      caps.kv = true;
      break;
    case AlgoStack::kOmegaEc:
      caps.selfProposing = true;
      break;
  }
  return caps;
}

namespace {

using EtobKvReplica = ReplicaAutomaton<EtobAutomaton, KvStore>;
using CommitEtobKvReplica = ReplicaAutomaton<CommitEtobAutomaton, KvStore>;
using TobKvReplica = ReplicaAutomaton<TobViaConsensusAutomaton, KvStore>;

/// The canonical stack lowering: one automaton per process. This is THE
/// place protocol stacks are instantiated — the scenario runner, the
/// explorer, the benches and the examples all arrive here.
std::unique_ptr<Automaton> makeStackAutomaton(const ClusterSpec& spec,
                                              const SimConfig& cfg,
                                              ProcessId p) {
  if (spec.automaton) return spec.automaton(cfg, p);
  switch (spec.stack) {
    case AlgoStack::kEtob:
      if (spec.kvReplica) {
        return std::make_unique<EtobKvReplica>(EtobAutomaton{});
      }
      return std::make_unique<EtobAutomaton>();
    case AlgoStack::kCommitEtob:
      if (spec.kvReplica) {
        return std::make_unique<CommitEtobKvReplica>(CommitEtobAutomaton{});
      }
      return std::make_unique<CommitEtobAutomaton>();
    case AlgoStack::kTobViaConsensus:
      if (spec.kvReplica) {
        return std::make_unique<TobKvReplica>(
            TobViaConsensusAutomaton(p, cfg.processCount));
      }
      return std::make_unique<TobViaConsensusAutomaton>(p, cfg.processCount);
    case AlgoStack::kGossipLww:
      return std::make_unique<GossipLwwStore>();
    case AlgoStack::kOmegaEc:
      // Salt the proposal stream with the seed so different seeds exercise
      // different proposal histories, deterministically.
      return std::make_unique<EcDriverAutomaton<OmegaEcAutomaton>>(
          OmegaEcAutomaton{}, binaryProposals(cfg.seed), spec.ecInstances);
  }
  WFD_ENSURE_MSG(false, "unknown algorithm stack");
  return nullptr;
}

/// The uniform read surface of a process automaton, resolved in ONE
/// place: every Client accessor (kvGet, kvStats, committedPrefix) reads
/// through this view, so a new wrapped stack cannot update one accessor
/// and silently miss another.
struct AutomatonView {
  const GossipLwwStore* gossip = nullptr;
  const KvStore* kv = nullptr;                    // replica-wrapped machine
  const std::vector<MsgId>* committed = nullptr;  // §7 committed prefix
  std::uint64_t rebuilds = 0;                     // replica state rebuilds
};

AutomatonView viewOf(const Automaton& a) {
  AutomatonView v;
  if (const auto* g = dynamic_cast<const GossipLwwStore*>(&a)) {
    v.gossip = g;
  } else if (const auto* r = dynamic_cast<const EtobKvReplica*>(&a)) {
    v.kv = &r->machine();
    v.rebuilds = r->rebuilds();
  } else if (const auto* r = dynamic_cast<const CommitEtobKvReplica*>(&a)) {
    v.kv = &r->machine();
    v.committed = &r->ordering().committedPrefix();
    v.rebuilds = r->rebuilds();
  } else if (const auto* r = dynamic_cast<const TobKvReplica*>(&a)) {
    v.kv = &r->machine();
    v.rebuilds = r->rebuilds();
  } else if (const auto* c = dynamic_cast<const CommitEtobAutomaton*>(&a)) {
    v.committed = &c->committedPrefix();
  }
  return v;
}

}  // namespace

Cluster::Cluster(ClusterSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  WFD_ENSURE_MSG(!spec_.kvReplica || spec_.stack == AlgoStack::kEtob ||
                     spec_.stack == AlgoStack::kCommitEtob ||
                     spec_.stack == AlgoStack::kTobViaConsensus,
                 "kvReplica wraps the broadcast stacks only");
  WFD_ENSURE_MSG(spec_.ecInstances == 0 || spec_.stack == AlgoStack::kOmegaEc,
                 "ecInstances is an omega-ec knob");
  WFD_ENSURE_MSG(!spec_.automaton || spec_.workload.perProcess == 0,
                 "a custom-automaton cluster schedules no workload — clear "
                 "workload.perProcess and drive inputs explicitly");

  // This construction sequence (seed override, pattern, detector,
  // network, simulator, automata, workload) is the pre-facade
  // instantiateScenario path verbatim — the digest-equivalence tests
  // rely on it drawing from the Rng in exactly the same order.
  SimConfig cfg = spec_.config;
  cfg.seed = seed;
  FailurePattern fp = spec_.pattern
                          ? spec_.pattern(cfg.processCount)
                          : FailurePattern::noFailures(cfg.processCount);
  WFD_ENSURE_MSG(fp.size() == cfg.processCount,
                 "cluster pattern size != processCount");
  std::shared_ptr<const FailureDetector> detector =
      spec_.detector
          ? spec_.detector(fp)
          : std::make_shared<OmegaFd>(fp, spec_.tauOmega, spec_.omegaMode);
  std::shared_ptr<const NetworkModel> network =
      spec_.network ? spec_.network(cfg) : nullptr;
  sim_ = std::make_unique<Simulator>(cfg, fp, std::move(detector),
                                     std::move(network));
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    sim_->addProcess(p, makeStackAutomaton(spec_, cfg, p));
  }
  if (spec_.stack != AlgoStack::kOmegaEc && !spec_.automaton) {
    // A workload's bodies are {origin, i} markers, not state-machine
    // commands: a KvStore replica would throw on {1, i} and erase key i
    // on {2, i}. KV writes go through Client::put.
    WFD_ENSURE_MSG(spec_.workload.perProcess == 0 || !spec_.kvReplica,
                   "a kvReplica cluster takes writes through Client::put, "
                   "not a broadcast workload");
    log_ = scheduleBroadcastWorkload(*sim_, spec_.workload);
  }
  // Workload ids use per-origin sequences 0..perProcess-1; client
  // submissions continue above them.
  nextClientSeq_.assign(cfg.processCount,
                        static_cast<std::uint32_t>(spec_.workload.perProcess));

  caps_ = spec_.automaton ? Capabilities{} : stackCapabilities(spec_.stack);
  if (spec_.kvReplica) caps_.kv = true;

  // Observer fan-out. Hooks never affect scheduling, so installing them
  // unconditionally keeps hook-free and hook-bearing runs identical.
  sim_->setDeliveryHook(
      [this](ProcessId p, Time t, const std::vector<MsgId>& seq) {
        for (const DeliveryObserver& obs : deliveryObservers_) obs(p, t, seq);
      });
  sim_->setOutputHook([this](ProcessId p, Time t, const Payload& out) {
    for (const OutputObserver& obs : outputObservers_) obs(p, t, out);
  });
}

bool Cluster::advanceTo(Time t) {
  WFD_ENSURE_MSG(t >= sim_->now(), "advanceTo goes forward only");
  return sim_->runUntilTime(t);
}

bool Cluster::advanceBy(Time d) { return advanceTo(sim_->now() + d); }

void Cluster::runToHorizon() { sim_->run(); }

bool Cluster::runUntil(const std::function<bool(const Simulator&)>& pred,
                       std::uint64_t checkEvery) {
  return sim_->runUntil(pred, checkEvery);
}

std::uint64_t Cluster::observableFingerprint() const {
  const Trace& trace = sim_->trace();
  TraceHasher h;
  for (ProcessId p = 0; p < processCount(); ++p) {
    h.mix(trace.outputs(p).size());
    const std::vector<MsgId>& d = trace.currentDelivered(p);
    h.mix(d.size());
    for (MsgId id : d) h.mix(id);
  }
  return h.digest();
}

Time Cluster::runUntilQuiescent(Time window) {
  const SimConfig& cfg = sim_->config();
  if (window == 0) window = 4 * (cfg.maxDelay + cfg.timeoutPeriod);
  std::uint64_t before = observableFingerprint();
  while (true) {
    // Each probe runs a full window AND past every message arrival known
    // so far — a partition can hold a message in flight far beyond the
    // window with nothing moving meanwhile, and "quiet until the
    // deferred work lands" is not quiescence.
    const Time target =
        std::max(sim_->now(), sim_->latestScheduledArrival()) + window;
    const bool more = sim_->runUntilTime(target);
    const std::uint64_t after = observableFingerprint();
    const bool changed = after != before;
    before = after;
    if (!more) return sim_->now();  // horizon / limits: as settled as it gets
    // Quiescent only when (a) nothing observable moved for a whole
    // window, (b) no application input is still scheduled, and (c) no
    // message sent during the probe was deferred beyond the window.
    if (!changed && sim_->pendingInputs() == 0 &&
        sim_->latestScheduledArrival() <= sim_->now() + window) {
      return sim_->now();
    }
  }
}

void Cluster::rebuildDetector(Time injectionTime) {
  const FailurePattern& fp = sim_->failurePattern();
  if (spec_.detector) {
    sim_->setDetector(spec_.detector(fp));
    return;
  }
  // A live crash reopens the leader-election window: the default Omega
  // re-stabilizes (in the spec's pre-stabilization mode) once the crash
  // is in effect, on the lowest process still correct.
  sim_->setDetector(std::make_shared<OmegaFd>(
      fp, std::max(spec_.tauOmega, injectionTime), spec_.omegaMode));
}

void Cluster::crashAt(ProcessId p, Time t) {
  WFD_ENSURE(p < processCount());
  // Validate BEFORE mutating: a rejected injection must leave the
  // cluster exactly as it was (pattern untouched, detector not rebuilt).
  const FailurePattern& fp = sim_->failurePattern();
  const std::size_t correctAfter =
      fp.correctSet().size() - (fp.correct(p) ? 1 : 0);
  WFD_ENSURE_MSG(correctAfter >= 1,
                 "at least one process must remain correct");
  sim_->setCrash(p, t);
  rebuildDetector(t);
}

void Cluster::isolate(ProcessId p, Time start, Time end) {
  WFD_ENSURE(p < processCount());
  WFD_ENSURE_MSG(start >= sim_->now(), "partition windows start at >= now");
  WFD_ENSURE(start <= end);
  PartitionSpec spec;
  spec.start = start;
  spec.width = end - start;  // one-shot window
  spec.affects = [p](ProcessId from, ProcessId to) {
    return from == p || to == p;
  };
  sim_->addPartition(std::move(spec));
}

Client Cluster::client(ProcessId p) {
  WFD_ENSURE(p < processCount());
  return Client(this, p);
}

void Cluster::observeDeliveries(DeliveryObserver cb) {
  WFD_ENSURE(static_cast<bool>(cb));
  deliveryObservers_.push_back(std::move(cb));
}

void Cluster::observeOutputs(OutputObserver cb) {
  WFD_ENSURE(static_cast<bool>(cb));
  outputObservers_.push_back(std::move(cb));
}

MsgId Cluster::submitAt(ProcessId p, Time t,
                        std::vector<std::uint64_t> body,
                        std::vector<MsgId> causalDeps) {
  WFD_ENSURE_MSG(t >= sim_->now(), "submissions are scheduled at >= now");
  AppMsg m;
  m.id = makeMsgId(p, nextClientSeq_[p]++);
  m.origin = p;
  m.body = std::move(body);
  m.causalDeps = std::move(causalDeps);
  log_.record(m, t);
  const MsgId id = m.id;
  sim_->scheduleInput(p, t, Payload::of(BroadcastInput{std::move(m)}));
  return id;
}

// --- Client ------------------------------------------------------------------

const Capabilities& Client::capabilities() const { return cluster_->caps_; }

MsgId Client::submitAt(Time t, std::vector<std::uint64_t> body,
                       std::vector<MsgId> causalDeps) {
  WFD_ENSURE_MSG(capabilities().submits, "stack accepts no client broadcasts");
  return cluster_->submitAt(process_, t, std::move(body), std::move(causalDeps));
}

MsgId Client::submit(std::vector<std::uint64_t> body,
                     std::vector<MsgId> causalDeps) {
  return submitAt(cluster_->now() + 1, std::move(body), std::move(causalDeps));
}

MsgId Client::putAt(Time t, std::uint64_t key, std::uint64_t value) {
  WFD_ENSURE_MSG(capabilities().kv, "stack exposes no replicated KV store");
  return cluster_->submitAt(process_, t, makePut(key, value), {});
}

MsgId Client::put(std::uint64_t key, std::uint64_t value) {
  return putAt(cluster_->now() + 1, key, value);
}

const std::vector<MsgId>& Client::delivered() const {
  return cluster_->sim_->trace().currentDelivered(process_);
}

const std::vector<MsgId>& Client::committedPrefix() const {
  static const std::vector<MsgId> kNone;
  const AutomatonView v = viewOf(cluster_->sim_->automaton(process_));
  return v.committed ? *v.committed : kNone;
}

std::optional<std::uint64_t> Client::kvGet(std::uint64_t key) const {
  const AutomatonView v = viewOf(cluster_->sim_->automaton(process_));
  if (v.gossip) {
    auto it = v.gossip->table().find(key);
    if (it == v.gossip->table().end()) return std::nullopt;
    return it->second.value;
  }
  if (v.kv) return v.kv->get(key);
  return std::nullopt;
}

Client::KvStats Client::kvStats() const {
  const AutomatonView v = viewOf(cluster_->sim_->automaton(process_));
  if (v.gossip) {
    return {v.gossip->table().size(), v.gossip->appliedCount(), 0};
  }
  if (v.kv) return {v.kv->size(), v.kv->appliedCount(), v.rebuilds};
  return {};
}

std::vector<std::pair<Instance, Value>> Client::decisions() const {
  std::vector<std::pair<Instance, Value>> out;
  for (const OutputEvent& ev : cluster_->sim_->trace().outputs(process_)) {
    if (const auto* d = ev.value.as<EcDecision>()) {
      out.emplace_back(d->instance, d->value);
    }
  }
  return out;
}

void Client::onDeliver(std::function<void(Time, const std::vector<MsgId>&)> cb) {
  WFD_ENSURE(static_cast<bool>(cb));
  const ProcessId self = process_;
  cluster_->observeDeliveries(
      [self, cb = std::move(cb)](ProcessId p, Time t,
                                 const std::vector<MsgId>& seq) {
        if (p == self) cb(t, seq);
      });
}

const Automaton& Client::automaton() const {
  return cluster_->sim_->automaton(process_);
}

}  // namespace wfd
