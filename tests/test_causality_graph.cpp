// Unit tests: the causality graph CG_i and UpdatePromote of Algorithm 5.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/ensure.h"
#include "etob/causality_graph.h"

namespace wfd {
namespace {

AppMsg msg(ProcessId origin, std::uint32_t seq) {
  AppMsg m;
  m.id = makeMsgId(origin, seq);
  m.origin = origin;
  m.body = {seq};
  return m;
}

TEST(CausalityGraphTest, AddMessageIdempotent) {
  CausalityGraph cg;
  cg.addMessage(msg(0, 0), {});
  cg.addMessage(msg(0, 0), {});
  EXPECT_EQ(cg.messageCount(), 1u);
}

TEST(CausalityGraphTest, EdgesFromDeps) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0), b = msg(0, 1);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  EXPECT_TRUE(cg.causallyPrecedes(a.id, b.id));
  EXPECT_FALSE(cg.causallyPrecedes(b.id, a.id));
}

TEST(CausalityGraphTest, UnknownDepBecomesPlaceholder) {
  CausalityGraph cg;
  const AppMsg b = msg(0, 1);
  const MsgId ghost = makeMsgId(9, 9);
  cg.addMessage(b, {ghost});
  EXPECT_EQ(cg.messageCount(), 2u);  // placeholder node counts
  EXPECT_FALSE(cg.contains(ghost)) << "no content yet";
  EXPECT_TRUE(cg.contains(b.id));
  EXPECT_TRUE(cg.causallyPrecedes(ghost, b.id));
}

TEST(CausalityGraphTest, PlaceholderBlocksDependentInPromote) {
  CausalityGraph cg;
  const AppMsg a = msg(1, 0);
  const AppMsg b = msg(0, 1);
  const MsgId ghost = makeMsgId(9, 9);
  cg.addMessage(a, {});
  cg.addMessage(b, {ghost});  // b waits for ghost's content
  auto seq = cg.extendPromote({});
  EXPECT_EQ(seq, (std::vector<MsgId>{a.id}))
      << "b is causally buffered; unrelated a still promotable";
  // Content arrives (e.g. via a peer's update): b unblocks, after ghost.
  AppMsg ghostMsg;
  ghostMsg.id = ghost;
  ghostMsg.origin = 9 % 4;
  cg.addMessage(ghostMsg, {});
  seq = cg.extendPromote(seq);
  EXPECT_EQ(seq, (std::vector<MsgId>{a.id, ghost, b.id}));
}

TEST(CausalityGraphTest, PlaceholderBlocksTransitively) {
  CausalityGraph cg;
  const MsgId ghost = makeMsgId(9, 9);
  const AppMsg b = msg(0, 1);
  const AppMsg c = msg(0, 2);
  cg.addMessage(b, {ghost});
  cg.addMessage(c, {b.id});
  EXPECT_TRUE(cg.extendPromote({}).empty());
}

TEST(CausalityGraphTest, UnionFillsPlaceholderBody) {
  CausalityGraph mine, peers;
  const AppMsg a = msg(1, 0);
  const AppMsg b = msg(0, 1);
  peers.addMessage(a, {});
  mine.addMessage(b, {a.id});  // a unknown here: placeholder
  EXPECT_TRUE(mine.extendPromote({}).empty());
  mine.mergeSnapshot(peers.snapshot());
  EXPECT_EQ(mine.extendPromote({}), (std::vector<MsgId>{a.id, b.id}));
}

TEST(CausalityGraphTest, UnionMergesBodiesAndEdges) {
  CausalityGraph a, b;
  const AppMsg m0 = msg(0, 0), m1 = msg(1, 0);
  a.addMessage(m0, {});
  b.addMessage(m0, {});
  b.addMessage(m1, {m0.id});
  a.mergeSnapshot(b.snapshot());
  EXPECT_EQ(a.messageCount(), 2u);
  EXPECT_TRUE(a.causallyPrecedes(m0.id, m1.id));
  EXPECT_EQ(a.message(m1.id).origin, 1u);
}

TEST(CausalityGraphTest, TopologicalOrderRespectsEdgesWithIdTieBreak) {
  CausalityGraph cg;
  const AppMsg a = msg(1, 0), b = msg(0, 0), c = msg(0, 1);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  cg.addMessage(c, {a.id});
  const auto order = cg.topologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], a.id);
  EXPECT_EQ(order[1], std::min(b.id, c.id));  // tie-break by id
}

TEST(CausalityGraphTest, ExtendPromoteKeepsPrefixAndCoversAll) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0), b = msg(1, 0), c = msg(0, 1);
  cg.addMessage(a, {});
  cg.addMessage(b, {});
  cg.addMessage(c, {a.id, b.id});
  std::vector<MsgId> promote{b.id};
  const auto extended = cg.extendPromote(promote);
  ASSERT_EQ(extended.size(), 3u);
  EXPECT_EQ(extended[0], b.id);  // prefix preserved
  // c after both deps:
  const auto pos = [&](MsgId id) {
    return std::find(extended.begin(), extended.end(), id) - extended.begin();
  };
  EXPECT_LT(pos(a.id), pos(c.id));
  EXPECT_LT(pos(b.id), pos(c.id));
}

TEST(CausalityGraphTest, ExtendPromoteOfEmptyIsTopoOrder) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0), b = msg(1, 0);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  EXPECT_EQ(cg.extendPromote({}), cg.topologicalOrder());
}

TEST(CausalityGraphTest, DuplicatePromoteRejected) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0);
  cg.addMessage(a, {});
  EXPECT_THROW(cg.extendPromote({a.id, a.id}), InvariantError);
}

TEST(CausalityGraphTest, FrontierModeSameTransitiveClosure) {
  // Build the same message history in both modes; reachability must agree.
  CausalityGraph full(CgEdgeMode::kFullPaper), frontier(CgEdgeMode::kFrontier);
  std::vector<AppMsg> msgs;
  std::vector<MsgId> known;
  for (std::uint32_t i = 0; i < 12; ++i) {
    AppMsg m = msg(i % 3, i / 3);
    msgs.push_back(m);
    full.addMessage(m, known);
    frontier.addMessage(m, known);
    known.push_back(m.id);
  }
  EXPECT_LE(frontier.edgeCount(), full.edgeCount());
  for (const AppMsg& x : msgs) {
    for (const AppMsg& y : msgs) {
      if (x.id == y.id) continue;
      EXPECT_EQ(full.causallyPrecedes(x.id, y.id),
                frontier.causallyPrecedes(x.id, y.id))
          << x.id << " -> " << y.id;
    }
  }
}

TEST(CausalityGraphTest, FrontierModeSamePromoteSequence) {
  CausalityGraph full(CgEdgeMode::kFullPaper), frontier(CgEdgeMode::kFrontier);
  std::vector<MsgId> known;
  for (std::uint32_t i = 0; i < 9; ++i) {
    AppMsg m = msg(i % 3, i / 3);
    full.addMessage(m, known);
    frontier.addMessage(m, known);
    known.push_back(m.id);
  }
  EXPECT_EQ(full.extendPromote({}), frontier.extendPromote({}));
}

TEST(CausalityGraphTest, MessageLookupThrowsForUnknown) {
  CausalityGraph cg;
  EXPECT_THROW(cg.message(makeMsgId(1, 1)), InvariantError);
}

TEST(CausalityGraphTest, FrontierModeCollapsesDominatedExplicitDeps) {
  // Mutation guard on the dominance collapse: explicit deps {a, b} with
  // a ⇝ b must produce a single edge b -> c (a is implied transitively).
  CausalityGraph cg(CgEdgeMode::kFrontier);
  const AppMsg a = msg(0, 0), b = msg(0, 1), c = msg(0, 2);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  const std::size_t before = cg.edgeCount();
  cg.addMessage(c, {a.id, b.id});
  EXPECT_EQ(cg.edgeCount(), before + 1) << "dominated dep a must collapse";
  EXPECT_TRUE(cg.causallyPrecedes(a.id, c.id)) << "still implied via b";
  EXPECT_EQ(cg.frontier(), (std::vector<MsgId>{c.id}));
  // Pairwise-incomparable deps all survive.
  const AppMsg d = msg(1, 0), e = msg(2, 0), f = msg(1, 1);
  cg.addMessage(d, {});
  cg.addMessage(e, {});
  const std::size_t mid = cg.edgeCount();
  cg.addMessage(f, {c.id, d.id, e.id});
  EXPECT_EQ(cg.edgeCount(), mid + 3) << "incomparable deps must all stay";
}

TEST(CausalityGraphTest, IncrementalMatchesBatchOnRandomEventStreams) {
  // Differential check of the incremental promote engine: after EVERY
  // event (add with placeholders, union) the maintained sequence must
  // equal replaying the batch reference over the same history.
  for (const CgEdgeMode mode :
       {CgEdgeMode::kFullPaper, CgEdgeMode::kFrontier}) {
    std::uint64_t rng =
        0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(mode);
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    // Global dep structure: message k depends on a random subset of the
    // ids created before it, so any ingestion order is acyclic and
    // out-of-order ingestion creates placeholders.
    constexpr std::uint32_t kMsgs = 48;
    std::vector<AppMsg> msgs;
    std::vector<std::vector<MsgId>> deps(kMsgs);
    for (std::uint32_t k = 0; k < kMsgs; ++k) {
      msgs.push_back(msg(k % 4, k));
      for (std::uint32_t j = 0; j < k; ++j) {
        if (next() % 4 == 0) deps[k].push_back(msgs[j].id);
      }
    }
    auto shuffled = [&] {
      std::vector<std::uint32_t> order(kMsgs);
      for (std::uint32_t k = 0; k < kMsgs; ++k) order[k] = k;
      for (std::uint32_t k = kMsgs; k > 1; --k) {
        std::swap(order[k - 1], order[next() % k]);
      }
      return order;
    };
    CausalityGraph a(mode), b(mode);
    std::vector<MsgId> expectA, expectB;
    auto check = [](CausalityGraph& cg, std::vector<MsgId>& expect) {
      expect = cg.extendPromote(expect);  // batch reference (const)
      ASSERT_EQ(cg.extendPromote(), expect);
    };
    const auto orderA = shuffled(), orderB = shuffled();
    for (std::uint32_t step = 0; step < kMsgs; ++step) {
      a.addMessage(msgs[orderA[step]], deps[orderA[step]]);
      check(a, expectA);
      b.addMessage(msgs[orderB[step]], deps[orderB[step]]);
      check(b, expectB);
      if (step % 5 == 4) {
        a.mergeSnapshot(b.snapshot());
        check(a, expectA);
      }
      if (step % 7 == 6) {
        b.mergeSnapshot(a.snapshot());
        check(b, expectB);
      }
    }
    a.mergeSnapshot(b.snapshot());
    check(a, expectA);
    EXPECT_EQ(expectA.size(), kMsgs) << "everything promotable in the end";
    // Rebase equivalence: resetting onto a committed prefix equals the
    // batch extension of that prefix.
    const std::vector<MsgId> base(expectA.begin(),
                                  expectA.begin() + kMsgs / 2);
    const auto viaBatch = a.extendPromote(base);
    EXPECT_EQ(a.resetPromote(base), viaBatch);
  }
}

TEST(CausalityGraphTest, FrontierReturnsCausallyMaximal) {
  CausalityGraph cg;
  const AppMsg a = msg(0, 0), b = msg(0, 1), c = msg(1, 0);
  cg.addMessage(a, {});
  cg.addMessage(b, {a.id});
  cg.addMessage(c, {});
  const auto f = cg.frontier();
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(std::find(f.begin(), f.end(), b.id) != f.end());
  EXPECT_TRUE(std::find(f.begin(), f.end(), c.id) != f.end());
}

}  // namespace
}  // namespace wfd
