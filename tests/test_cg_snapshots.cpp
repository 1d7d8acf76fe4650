// Shared causality-graph snapshots: update(CG_i) carries a handle on the
// sender's change log, and mergeSnapshot replays only what the receiver
// lacks. These tests pin that replay against the full-graph union
// (CausalityGraph::unionWith, the oracle) through non-FIFO, stale, own
// and forked snapshots, and pin the merge work of a KV run as linear.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "common/rng.h"
#include "etob/causality_graph.h"
#include "etob/commit_etob.h"
#include "etob/etob_automaton.h"
#include "rsm/replica.h"
#include "rsm/state_machines.h"

namespace wfd {
namespace {

AppMsg makeMsg(MsgId id, std::vector<MsgId> causalDeps = {}) {
  AppMsg m;
  m.id = id;
  m.origin = msgIdOrigin(id);
  m.body = {msgIdSeq(id), m.origin};
  m.causalDeps = std::move(causalDeps);
  return m;
}

/// "" iff the two graphs hold the same nodes in the same insertion
/// order, the same edges and the same bodies (and, if `promote`, the
/// same maintained promote sequence); otherwise the first difference.
std::string graphDiff(const CausalityGraph& got, const CausalityGraph& want,
                      bool promote) {
  std::ostringstream out;
  if (got.ids() != want.ids()) {
    out << "ids differ: " << got.ids().size() << " vs " << want.ids().size();
    return out.str();
  }
  if (got.edgeCount() != want.edgeCount()) return "edge counts differ";
  if (got.approxWeight() != want.approxWeight()) return "weights differ";
  for (const MsgId id : want.ids()) {
    if (got.predecessors(id) != want.predecessors(id)) {
      out << "in-edges of " << id << " differ";
      return out.str();
    }
    if (got.contains(id) != want.contains(id)) {
      out << "body presence of " << id << " differs";
      return out.str();
    }
    if (!want.contains(id)) continue;
    const AppMsg& a = got.message(id);
    const AppMsg& b = want.message(id);
    if (a.origin != b.origin || a.body != b.body || a.causalDeps != b.causalDeps) {
      out << "body of " << id << " differs";
      return out.str();
    }
  }
  if (promote && got.promoteSequence() != want.promoteSequence()) {
    return "promote sequences differ";
  }
  return "";
}

/// One process of the differential run: the production graph (merges
/// snapshots) and its shadow (merges the sender's whole graph).
struct Proc {
  CausalityGraph real;
  CausalityGraph shadow;
  std::uint32_t nextSeq = 0;
};

/// An update in flight: the sender's snapshot, and a copy of the
/// sender's shadow graph at send time (what update(CG_i) used to carry).
struct InFlight {
  std::size_t to = 0;
  CausalityGraph::Snapshot snap;
  std::shared_ptr<const CausalityGraph> sent;
};

TEST(SharedSnapshotTest, ReplayEqualsFullUnionOnRandomSchedules) {
  for (const CgEdgeMode mode : {CgEdgeMode::kFullPaper, CgEdgeMode::kFrontier}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "mode " << static_cast<int>(mode) << " seed " << seed);
      Rng rng(seed);
      std::vector<Proc> procs;
      for (int k = 0; k < 3; ++k) procs.push_back(Proc{CausalityGraph(mode), CausalityGraph(mode), 0});
      std::vector<AppMsg> created;
      std::vector<InFlight> inFlight;
      std::uint64_t merges = 0;
      std::uint64_t forks = 0;
      auto deliver = [&](std::size_t slot, bool keep) {
        const InFlight f = inFlight[slot];
        if (!keep) {
          inFlight[slot] = inFlight.back();
          inFlight.pop_back();
        }
        Proc& p = procs[f.to];
        p.real.mergeSnapshot(f.snap);
        p.shadow.unionWith(*f.sent);
        p.real.extendPromote();
        p.shadow.extendPromote();
        ++merges;
        ASSERT_EQ(graphDiff(p.real, p.shadow, /*promote=*/true), "");
        // The snapshot alone replays to the sender's graph at send time.
        if (rng.chance(1, 4)) {
          CausalityGraph fresh(mode);
          fresh.mergeSnapshot(f.snap);
          ASSERT_EQ(graphDiff(fresh, *f.sent, /*promote=*/false), "");
          for (const AppMsg& m : created) {
            bool inGraph = false;
            for (const MsgId id : f.sent->ids()) inGraph |= id == m.id;
            ASSERT_EQ(f.snap.mentions(m.id), inGraph) << m.id;
          }
        }
      };
      for (int step = 0; step < 500; ++step) {
        const std::size_t who = rng.below(procs.size());
        Proc& p = procs[who];
        const std::uint64_t action = rng.below(100);
        if (action < 30) {
          // broadcastETOB: declared deps may name messages this process
          // has not seen (placeholders); the graph's frontier is added
          // as EtobCore::onInput does.
          std::vector<MsgId> causal;
          for (const AppMsg& m : created) {
            if (rng.chance(1, 12)) causal.push_back(m.id);
          }
          const AppMsg m = makeMsg(
              makeMsgId(static_cast<ProcessId>(who), p.nextSeq++), causal);
          std::vector<MsgId> deps = causal;
          for (const MsgId f : p.real.frontier()) deps.push_back(f);
          p.real.addMessage(m, deps);
          p.shadow.addMessage(m, deps);
          created.push_back(m);
          ASSERT_EQ(graphDiff(p.real, p.shadow, true), "");
          const auto sent = std::make_shared<const CausalityGraph>(p.shadow);
          for (std::size_t to = 0; to < procs.size(); ++to) {
            inFlight.push_back(InFlight{to, p.real.snapshot(), sent});
          }
        } else if (action < 36 && !created.empty()) {
          // Rebase-style add: a committed message learned with no deps.
          const AppMsg& m = created[rng.below(created.size())];
          p.real.addMessage(m, {});
          p.shadow.addMessage(m, {});
          ASSERT_EQ(graphDiff(p.real, p.shadow, true), "");
        } else if (action < 39) {
          // Rebase of the promote engine onto a prefix of its sequence.
          const std::vector<MsgId> seq = p.real.promoteSequence();
          const std::vector<MsgId> base(
              seq.begin(), seq.begin() + static_cast<std::ptrdiff_t>(
                                             rng.below(seq.size() + 1)));
          p.real.resetPromote(base);
          p.shadow.resetPromote(base);
          ASSERT_EQ(graphDiff(p.real, p.shadow, true), "");
        } else if (action < 41 && procs.size() < 6) {
          // A copied process (the CHT tree's copy-clone): shares the log
          // until one side appends past the other.
          procs.push_back(procs[who]);
          procs.back().nextSeq = 0;
          ++forks;
        } else if (!inFlight.empty()) {
          // Non-FIFO delivery; a kept message arrives again later, stale.
          deliver(rng.below(inFlight.size()), rng.chance(1, 10));
          if (HasFatalFailure()) return;
        }
        if (HasFatalFailure()) return;
      }
      while (!inFlight.empty()) {
        deliver(inFlight.size() - 1, false);
        if (HasFatalFailure()) return;
      }
      EXPECT_GT(merges, 200u);
      EXPECT_GT(forks, 0u);
    }
  }
}

TEST(SharedSnapshotTest, StaleAndOwnSnapshotsAreNoOps) {
  CausalityGraph a, b;
  a.addMessage(makeMsg(makeMsgId(0, 0)), {});
  const CausalityGraph::Snapshot early = a.snapshot();
  a.addMessage(makeMsg(makeMsgId(0, 1)), {makeMsgId(0, 0)});
  const CausalityGraph::Snapshot late = a.snapshot();
  b.mergeSnapshot(late);
  EXPECT_EQ(b.replayedEntries(), 2u);
  b.mergeSnapshot(early);  // stale: reordered behind `late`
  b.mergeSnapshot(late);   // duplicate
  EXPECT_EQ(b.replayedEntries(), 2u);
  a.mergeSnapshot(early);  // own, on loopback
  a.mergeSnapshot(late);
  EXPECT_EQ(a.replayedEntries(), 0u);
  EXPECT_TRUE(early.mentions(makeMsgId(0, 0)));
  EXPECT_FALSE(early.mentions(makeMsgId(0, 1)));
  EXPECT_TRUE(late.mentions(makeMsgId(0, 1)));
  EXPECT_FALSE(CausalityGraph().snapshot().mentions(makeMsgId(0, 0)));
}

/// Broadcasts one message from `a` and returns the update it sent.
CausalityGraph::Snapshot broadcastFrom(EtobAutomaton& a, const StepContext& ctx,
                                       MsgId id) {
  Effects fx;
  a.onInput(ctx, Payload::of(BroadcastInput{makeMsg(id)}), fx);
  const auto* update = fx.sends().back().payload.as<EtobUpdateMsg>();
  EXPECT_NE(update, nullptr);
  return update == nullptr ? CausalityGraph::Snapshot{} : update->cg;
}

TEST(SharedSnapshotTest, CopiedAutomatonsForkTheirLogs) {
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 1;
  EtobAutomaton a;
  for (std::uint32_t k = 0; k < 4; ++k) broadcastFrom(a, ctx, makeMsgId(0, k));
  std::unique_ptr<Automaton> clone = a.clone();
  auto& b = static_cast<EtobAutomaton&>(*clone);
  // Step the copies differently; `a` appends to the shared log in place,
  // `b` then forks it, and each keeps going on its own log.
  std::vector<CausalityGraph::Snapshot> fromA, fromB;
  std::vector<CausalityGraph> graphsA;  // a's graph at each of its sends
  for (std::uint32_t k = 0; k < 3; ++k) {
    fromA.push_back(broadcastFrom(a, ctx, makeMsgId(0, 10 + k)));
    graphsA.push_back(a.causalityGraph());
    fromB.push_back(broadcastFrom(b, ctx, makeMsgId(0, 20 + k)));
  }
  // Each copy's snapshots replay to that copy's own graph.
  for (const auto* side : {&fromA, &fromB}) {
    const EtobAutomaton& owner = side == &fromA ? a : b;
    CausalityGraph replay;
    replay.mergeSnapshot(side->back());
    EXPECT_EQ(graphDiff(replay, owner.causalityGraph(), false), "");
  }
  EXPECT_FALSE(fromB.back().mentions(makeMsgId(0, 10)));
  EXPECT_FALSE(fromA.back().mentions(makeMsgId(0, 20)));
  // A receiver that saw the shared prefix, then both forks, equals the
  // full union; so does one copy merging the other's snapshot.
  CausalityGraph receiver;
  receiver.mergeSnapshot(fromA.front());
  receiver.mergeSnapshot(fromB.back());
  receiver.mergeSnapshot(fromA.back());
  CausalityGraph oracle;
  oracle.unionWith(graphsA.front());
  oracle.unionWith(b.causalityGraph());
  oracle.unionWith(a.causalityGraph());
  EXPECT_EQ(graphDiff(receiver, oracle, false), "");
  CausalityGraph bOracle = b.causalityGraph();
  bOracle.unionWith(a.causalityGraph());
  Effects fx;
  b.onMessage(ctx, 0, Payload::of(EtobUpdateMsg{fromA.back()}), fx);
  EXPECT_EQ(graphDiff(b.causalityGraph(), bOracle, false), "");
}

TEST(SharedSnapshotTest, KvRunMergeWorkIsLinearInPuts) {
  // One 3-replica commit-eTOB KV cluster, 512 puts issued one at a time
  // at the leader, each waiting for its commit. A full-graph union per
  // update visits every node the sender knows — quadratic in the puts:
  // 3 receivers × Σ_{k≤512} k = 393,984 nodes for this run — while the
  // replay touches each log entry once per other replica.
  constexpr std::size_t kReplicas = 3;
  constexpr std::uint64_t kPuts = 512;
  ClusterSpec spec;
  spec.stack = AlgoStack::kCommitEtob;
  spec.kvReplica = true;
  spec.config.processCount = kReplicas;
  spec.tauOmega = 0;
  spec.omegaMode = OmegaPreStabilization::kStable;
  spec.workload.perProcess = 0;
  Cluster cluster(spec, 1);
  Client leader = cluster.client(0);
  for (std::uint64_t k = 0; k < kPuts; ++k) {
    leader.put(k, k + 1);
    while (leader.committedPrefix().size() <= k) {
      ASSERT_TRUE(cluster.advanceBy(10)) << "put " << k << " never committed";
    }
  }
  std::uint64_t replayed = 0;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    const auto* replica =
        dynamic_cast<const ReplicaAutomaton<CommitEtobAutomaton, KvStore>*>(
            &cluster.client(p).automaton());
    ASSERT_NE(replica, nullptr);
    replayed += replica->ordering().causalityGraph().replayedEntries();
  }
  EXPECT_LE(replayed, 2 * kReplicas * kPuts);
  EXPECT_EQ(replayed, 1024u);
}

}  // namespace
}  // namespace wfd
