// Integration tests: Algorithm 5 (ET OB) against the full ETOB
// specification, including the paper's three headline properties:
//  (P1) is benched in E1; here we verify the protocol machinery;
//  (P2) stable Omega from time 0 => strong TOB (τ̂ = 0, no revocations);
//  (P3) causal order always, even under split-brain Omega.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checkers/tob_checker.h"
#include "checkers/workload.h"
#include "common/ensure.h"
#include "common/rng.h"
#include "etob/commit_etob.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "helpers.h"

namespace wfd {
namespace {

SimConfig etobConfig(std::size_t n, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.seed = seed;
  cfg.maxTime = 30000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  return cfg;
}

Simulator makeEtobSim(SimConfig cfg, FailurePattern fp, Time tauOmega,
                      OmegaPreStabilization mode, EtobConfig protoCfg = {}) {
  auto omega = std::make_shared<OmegaFd>(fp, tauOmega, mode);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>(protoCfg));
  }
  return sim;
}

BroadcastWorkload defaultWorkload() {
  BroadcastWorkload w;
  w.start = 100;
  w.interval = 60;
  w.perProcess = 5;
  return w;
}

TEST(EtobTest, StableLeaderYieldsStrongTob) {
  auto cfg = etobConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto sim = makeEtobSim(cfg, fp, 0, OmegaPreStabilization::kStable);
  auto log = scheduleBroadcastWorkload(sim, defaultWorkload());
  sim.runUntil([&](const Simulator& s) { return broadcastConverged(s, log); });
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.strongTobOk()) << "tau = " << report.tau;
  EXPECT_TRUE(report.causalOrderOk);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sim.trace().prefixViolations(p), 0u);
  }
}

TEST(EtobTest, SplitBrainEventuallyConvergesWithFiniteTau) {
  auto cfg = etobConfig(3);
  auto fp = FailurePattern::noFailures(3);
  const Time tauOmega = 3000;
  auto sim = makeEtobSim(cfg, fp, tauOmega, OmegaPreStabilization::kSplitBrain);
  auto log = scheduleBroadcastWorkload(sim, defaultWorkload());
  sim.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 2000 && broadcastConverged(s, log);
  });
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.causalOrderOk);
  // The paper's Lemma 3 bound: τ ≤ τ_Ω + Δ_t + Δ_c.
  EXPECT_LE(report.tau, tauOmega + cfg.timeoutPeriod + cfg.maxDelay);
}

TEST(EtobTest, WorksWithMinorityCorrect) {
  // 3 of 5 crash: no majority — consensus-based TOB would stall, ETOB
  // must still satisfy the spec (Theorem 2: any environment).
  auto cfg = etobConfig(5);
  auto fp = Environments::staggeredCrashes(5, 3, 1500, 100);
  auto sim = makeEtobSim(cfg, fp, 2500, OmegaPreStabilization::kSplitBrain);
  auto log = scheduleBroadcastWorkload(sim, defaultWorkload());
  sim.runUntil([&](const Simulator& s) {
    return s.now() > 4000 && broadcastConverged(s, log);
  });
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.causalOrderOk);
}

TEST(EtobTest, CausalChainsRespectedUnderSplitBrain) {
  auto cfg = etobConfig(4);
  auto fp = FailurePattern::noFailures(4);
  auto sim = makeEtobSim(cfg, fp, 5000, OmegaPreStabilization::kSplitBrain);
  auto w = defaultWorkload();
  w.causalChainPerOrigin = true;
  w.crossProcessDeps = true;
  auto log = scheduleBroadcastWorkload(sim, w);
  sim.runUntil([&](const Simulator& s) {
    return s.now() > 7000 && broadcastConverged(s, log);
  });
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.causalOrderOk)
      << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.coreOk());
}

TEST(EtobTest, LeaderCrashRecovers) {
  // The stable leader crashes mid-run; Omega re-stabilizes on p1.
  auto cfg = etobConfig(3);
  auto fp = FailurePattern::crashesAt(3, {{0, 2000}});
  auto omega = std::make_shared<OmegaFd>(
      fp, 3000, OmegaPreStabilization::kStable);  // pre-3000: trusts p1? no:
  // kStable outputs the eventual leader (p1, lowest correct) from time 0;
  // use rotating pre-phase so p0 actually leads for a while.
  omega = std::make_shared<OmegaFd>(fp, 3000, OmegaPreStabilization::kRotating, 400);
  Simulator sim(cfg, fp, omega);
  for (ProcessId p = 0; p < 3; ++p) {
    sim.addProcess(p, std::make_unique<EtobAutomaton>());
  }
  auto log = scheduleBroadcastWorkload(sim, defaultWorkload());
  sim.runUntil([&](const Simulator& s) {
    return s.now() > 5000 && broadcastConverged(s, log);
  });
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
}

// Direct-drive checks of promote adoption, run against both automata:
// the promote path is EtobCore's, and the §7 layer must not change it for
// sequences that do not contradict a commit.
template <typename Automaton>
class EtobAdoptionTest : public ::testing::Test {};

struct AutomatonName {
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, EtobAutomaton> ? "Etob" : "CommitEtob";
  }
};

using AdoptingAutomata = ::testing::Types<EtobAutomaton, CommitEtobAutomaton>;
TYPED_TEST_SUITE(EtobAdoptionTest, AdoptingAutomata, AutomatonName);

TYPED_TEST(EtobAdoptionTest, PromoteFromNonLeaderIgnored) {
  // Direct unit check of the adoption guard.
  TypeParam a;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 2;  // trusts p2
  Effects fx;
  AppMsg m;
  m.id = makeMsgId(1, 0);
  m.origin = 1;
  a.onMessage(ctx, 1, Payload::of(EtobPromoteMsg{{m}, 1}), fx);
  EXPECT_TRUE(a.delivered().empty());
  EXPECT_EQ(fx.delivered(), nullptr);
  // From the trusted leader it is adopted.
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m}, 1}), fx);
  EXPECT_EQ(a.delivered(), (std::vector<MsgId>{m.id}));
  ASSERT_NE(a.findMessage(m.id), nullptr);
  EXPECT_EQ(a.findMessage(m.id)->origin, 1u);
}

TYPED_TEST(EtobAdoptionTest, OnlyLeaderPromotes) {
  TypeParam a;
  StepContext ctx;
  ctx.self = 1;
  ctx.processCount = 3;
  ctx.fd.leader = 0;
  Effects fx;
  a.onTimeout(ctx, fx);
  EXPECT_TRUE(fx.sends().empty());
  ctx.fd.leader = 1;  // now it considers itself leader
  a.onTimeout(ctx, fx);
  ASSERT_EQ(fx.sends().size(), 1u);
  EXPECT_EQ(fx.sends()[0].to, kBroadcast);
  EXPECT_TRUE(fx.sends()[0].payload.holds<EtobPromoteMsg>());
}

TYPED_TEST(EtobAdoptionTest, StaleReorderedPromoteDoesNotRegressAdoption) {
  // Mutation guard on the epoch check in EtobCore::advancePromote: remove
  // it and this test adopts the shorter stale sequence.
  TypeParam a;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 2;
  Effects fx;
  AppMsg m1;
  m1.id = makeMsgId(2, 0);
  m1.origin = 2;
  AppMsg m2;
  m2.id = makeMsgId(2, 1);
  m2.origin = 2;
  // Epoch 2 (a full snapshot) overtakes epoch 1 in the non-FIFO network.
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m1, m2}, 2}), fx);
  EXPECT_EQ(a.delivered(), (std::vector<MsgId>{m1.id, m2.id}));
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m1}, 1}), fx);
  EXPECT_EQ(a.delivered(), (std::vector<MsgId>{m1.id, m2.id}))
      << "stale reordered promote must not shrink d_i";
}

TYPED_TEST(EtobAdoptionTest, DeltaPromoteGapBuffersUntilBaseArrives) {
  TypeParam a;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 2;
  Effects fx;
  AppMsg m1;
  m1.id = makeMsgId(2, 0);
  m1.origin = 2;
  AppMsg m2;
  m2.id = makeMsgId(2, 1);
  m2.origin = 2;
  // The epoch-2 delta (suffix {m2} over a base of length 1) overtakes the
  // epoch-1 promote that carries its base: it must buffer, not adopt —
  // adopting {m2} alone would violate causal order, and the chain cannot
  // name m1 yet.
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m2}, 2, 1}), fx);
  EXPECT_TRUE(a.delivered().empty()) << "incomplete chain must not adopt";
  EXPECT_EQ(fx.delivered(), nullptr);
  // The base arrives late; both epochs splice and the newest head wins.
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m1}, 1}), fx);
  EXPECT_EQ(a.delivered(), (std::vector<MsgId>{m1.id, m2.id}));
  // Bodies learned only from promote suffixes stay resolvable (the RSM
  // layer hard-requires content for every delivered id).
  ASSERT_NE(a.findMessage(m1.id), nullptr);
  ASSERT_NE(a.findMessage(m2.id), nullptr);
  EXPECT_EQ(a.findMessage(m2.id)->origin, 2u);
}

TYPED_TEST(EtobAdoptionTest, AdoptedBodiesDrainOnceUpdatesArrive) {
  // Regression: promote-learned bodies used to be retained forever; they
  // must drain as soon as the causality graph learns the same content.
  TypeParam a;
  StepContext ctx;
  ctx.self = 0;
  ctx.processCount = 3;
  ctx.fd.leader = 2;
  Effects fx;
  AppMsg m;
  m.id = makeMsgId(2, 0);
  m.origin = 2;
  a.onMessage(ctx, 2, Payload::of(EtobPromoteMsg{{m}, 1}), fx);
  EXPECT_EQ(a.adoptedBodyCount(), 1u) << "promote-learned body buffered";
  ASSERT_NE(a.findMessage(m.id), nullptr);
  // The broadcaster's update arrives; the buffered copy drains and the
  // body stays resolvable through the graph.
  CausalityGraph peer;
  peer.addMessage(m, {});
  a.onMessage(ctx, 2, Payload::of(EtobUpdateMsg{peer.snapshot()}), fx);
  EXPECT_EQ(a.adoptedBodyCount(), 0u);
  ASSERT_NE(a.findMessage(m.id), nullptr);
  EXPECT_EQ(a.findMessage(m.id)->origin, 2u);
}

// PromoteChain as it was before its parked promotes moved into an
// epoch-ordered vector: they sat in a map keyed by epoch.
struct ReferenceChain {
  std::uint64_t epoch = 0;
  std::vector<MsgId> ids;
  std::map<std::uint64_t, EtobPromoteMsg> pending;
};

// advancePromoteChain as it was before promotes were spliced straight
// from the message: every promote is copied into `pending`, then the
// drain loop splices whatever has become reconstructible. The reference
// for PromoteChainTest below.
bool referenceAdvancePromoteChain(ReferenceChain& chain, const EtobPromoteMsg& msg,
                                  const CausalityGraph& cg,
                                  std::unordered_map<MsgId, AppMsg>& adoptedBodies) {
  if (msg.epoch <= chain.epoch) return false;
  chain.pending.emplace(msg.epoch, msg);
  bool advanced = false;
  while (!chain.pending.empty()) {
    const auto it = chain.pending.begin();
    if (it->first <= chain.epoch) {
      chain.pending.erase(it);
      continue;
    }
    const EtobPromoteMsg& p = it->second;
    const bool full = p.baseLen == 0;
    if (!full && it->first != chain.epoch + 1) break;
    if (full) {
      chain.ids.clear();
    } else {
      WFD_ENSURE_MSG(chain.ids.size() == p.baseLen,
                     "promote delta base length mismatch");
    }
    for (const AppMsg& m : p.seq) {
      chain.ids.push_back(m.id);
      if (!cg.contains(m.id)) adoptedBodies.emplace(m.id, m);
    }
    chain.epoch = it->first;
    chain.pending.erase(it);
    advanced = true;
  }
  return advanced;
}

/// One sender's promotes at epochs 1..count, as EtobCore::promote sends
/// them: a delta carries the suffix past the previous epoch's length; a
/// full snapshot (the first, and about one in five, half of them after a
/// rebase that cut the sequence back) carries the whole sequence.
std::vector<EtobPromoteMsg> promoteHistory(Rng& rng, std::uint64_t count) {
  std::vector<EtobPromoteMsg> history;
  std::vector<AppMsg> seq;
  std::uint64_t next = 0;
  for (std::uint64_t epoch = 1; epoch <= count; ++epoch) {
    const std::size_t base = seq.size();
    const bool full = base == 0 || rng.chance(1, 5);
    if (full && base > 0 && rng.chance(1, 2)) seq.resize(rng.below(base + 1));
    for (std::uint64_t k = rng.below(4); k > 0; --k) {
      AppMsg m;
      m.id = makeMsgId(2, next++);
      m.origin = 2;
      m.body = {next};
      seq.push_back(m);
    }
    EtobPromoteMsg msg;
    msg.epoch = epoch;
    msg.baseLen = full ? 0 : base;
    msg.seq.assign(seq.begin() + static_cast<std::ptrdiff_t>(msg.baseLen), seq.end());
    history.push_back(std::move(msg));
  }
  return history;
}

std::vector<std::uint64_t> pendingEpochs(const PromoteChain& chain) {
  std::vector<std::uint64_t> epochs;
  for (const EtobPromoteMsg& msg : chain.pending) epochs.push_back(msg.epoch);
  return epochs;
}

std::vector<std::uint64_t> pendingEpochs(const ReferenceChain& chain) {
  std::vector<std::uint64_t> epochs;
  for (const auto& [epoch, msg] : chain.pending) epochs.push_back(epoch);
  return epochs;
}

std::map<MsgId, std::vector<std::uint64_t>> stashed(
    const std::unordered_map<MsgId, AppMsg>& bodies) {
  std::map<MsgId, std::vector<std::uint64_t>> out;
  for (const auto& [id, m] : bodies) out.emplace(id, m.body);
  return out;
}

TEST(PromoteChainTest, SpliceMatchesInsertThenDrain) {
  // One sender's promote history arrives locally reordered (how far a
  // promote can overtake others varies by seed, up to a full shuffle),
  // with duplicates that land after the chain has passed them. After
  // every message, the in-place splice must leave exactly the chain and
  // stash the insert-then-drain reference leaves.
  std::size_t splices = 0;
  std::size_t fullBehindGap = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::vector<EtobPromoteMsg> history = promoteHistory(rng, 60);
    std::vector<EtobPromoteMsg> arrivals = history;
    for (int k = 0; k < 20; ++k) arrivals.push_back(history[rng.below(history.size())]);
    const std::size_t window = std::size_t{1} << rng.below(7);
    for (std::size_t i = 0; i + 1 < arrivals.size(); ++i) {
      const std::size_t j = i + rng.below(std::min(window, arrivals.size() - i));
      std::swap(arrivals[i], arrivals[j]);
    }
    // The graph already knows about a third of the bodies; the rest must
    // be stashed when spliced.
    CausalityGraph cg;
    for (const EtobPromoteMsg& msg : history) {
      for (const AppMsg& m : msg.seq) {
        if (!cg.contains(m.id) && rng.chance(1, 3)) cg.addMessage(m, {});
      }
    }
    PromoteChain chain;
    ReferenceChain reference;
    std::unordered_map<MsgId, AppMsg> bodies;
    std::unordered_map<MsgId, AppMsg> referenceBodies;
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
      const EtobPromoteMsg& msg = arrivals[k];
      if (msg.baseLen == 0 && msg.epoch > reference.epoch &&
          !reference.pending.empty() && msg.epoch > reference.pending.begin()->first) {
        ++fullBehindGap;
      }
      const bool want = referenceAdvancePromoteChain(reference, msg, cg, referenceBodies);
      const bool got = advancePromoteChain(chain, msg, cg, bodies);
      splices += got ? 1 : 0;
      const std::string where =
          "seed " + std::to_string(seed) + ", arrival " + std::to_string(k);
      ASSERT_EQ(got, want) << where;
      ASSERT_EQ(chain.epoch, reference.epoch) << where;
      ASSERT_EQ(chain.ids, reference.ids) << where;
      ASSERT_EQ(pendingEpochs(chain), pendingEpochs(reference)) << where;
      ASSERT_EQ(stashed(bodies), stashed(referenceBodies)) << where;
    }
    EXPECT_EQ(chain.epoch, history.size()) << "seed " << seed;
  }
  EXPECT_GT(splices, 200u);
  EXPECT_GT(fullBehindGap, 20u);
}

TEST(EtobTest, AdoptedBodiesDrainAfterConvergence) {
  // End-to-end form of the drain regression: rotating pre-stabilization
  // leaders make every process adopt ahead of its graph at some point;
  // once gossip converges no buffered body may remain.
  auto cfg = etobConfig(3);
  auto fp = FailurePattern::noFailures(3);
  auto sim = makeEtobSim(cfg, fp, 1500, OmegaPreStabilization::kRotating);
  auto log = scheduleBroadcastWorkload(sim, defaultWorkload());
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) {
    return s.now() > 3000 && broadcastConverged(s, log);
  }));
  sim.run();  // let all in-flight updates land
  for (ProcessId p = 0; p < 3; ++p) {
    const auto& a = static_cast<const EtobAutomaton&>(sim.automaton(p));
    EXPECT_EQ(a.adoptedBodyCount(), 0u) << "process " << p;
  }
}

// Property sweep: the ETOB spec holds across seeds, process counts,
// pre-stabilization modes and edge modes.
struct EtobSweepParam {
  std::uint64_t seed;
  std::size_t n;
  int mode;
  int edgeMode;

  // gtest prints the parameter (and ctest names the test) with this.
  friend void PrintTo(const EtobSweepParam& p, std::ostream* os) {
    *os << "seed" << p.seed << "_n" << p.n << "_mode" << p.mode << "_edge"
        << p.edgeMode;
  }
};

class EtobSweepTest : public ::testing::TestWithParam<EtobSweepParam> {};

TEST_P(EtobSweepTest, SpecHolds) {
  const auto param = GetParam();
  auto cfg = etobConfig(param.n, param.seed);
  auto fp = FailurePattern::noFailures(param.n);
  const Time tauOmega = 2500;
  EtobConfig protoCfg;
  protoCfg.edgeMode = static_cast<CgEdgeMode>(param.edgeMode);
  auto sim = makeEtobSim(cfg, fp, tauOmega,
                         static_cast<OmegaPreStabilization>(param.mode), protoCfg);
  auto w = defaultWorkload();
  w.perProcess = 4;
  w.causalChainPerOrigin = true;
  auto log = scheduleBroadcastWorkload(sim, w);
  const bool converged = sim.runUntil([&](const Simulator& s) {
    return s.now() > tauOmega + 1500 && broadcastConverged(s, log);
  });
  EXPECT_TRUE(converged);
  const auto report = checkBroadcastRun(sim.trace(), log, fp);
  EXPECT_TRUE(report.coreOk()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.causalOrderOk);
  EXPECT_LE(report.tau, tauOmega + cfg.timeoutPeriod + cfg.maxDelay);
}

std::vector<EtobSweepParam> sweepParams() {
  std::vector<EtobSweepParam> out;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    for (std::size_t n : {3u, 5u}) {
      for (int mode : {0, 1, 2}) {
        for (int edge : {0, 1}) {
          out.push_back({seed, n, mode, edge});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EtobSweepTest, ::testing::ValuesIn(sweepParams()));

}  // namespace
}  // namespace wfd
