// Unit tests: common utilities (digraph, rng, hashing, codecs, ensure).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/digraph.h"
#include "common/ensure.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/types.h"
#include "ec/ec_types.h"
#include "sim/app_msg_codec.h"

namespace wfd {
namespace {

TEST(JsonQuotedTest, MatchesTheWriterForPlainAndHostileStrings) {
  // jsonQuoted IS the writer's string emission: escape-free strings pass
  // through byte-identical, everything else escapes exactly like dump().
  for (const std::string& s :
       {std::string("stable-leader"), std::string(""),
        std::string("with \"quotes\" and \\backslash\\"),
        std::string("ctl\n\tbytes\x01"), std::string("unicode ok: café")}) {
    EXPECT_EQ(jsonQuoted(s), Json::str(s).dump()) << s;
  }
  EXPECT_EQ(jsonQuoted("plain"), "\"plain\"");
  EXPECT_EQ(jsonQuoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
  // Round trip through the parser: quoted output is always valid JSON.
  const std::string hostile = "x\"y\\z\n\x02";
  auto parsed = Json::parse(jsonQuoted(hostile));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->asString(), hostile);
}

TEST(MsgIdTest, RoundTripsOriginAndSeq) {
  const MsgId id = makeMsgId(7, 42);
  EXPECT_EQ(msgIdOrigin(id), 7u);
  EXPECT_EQ(msgIdSeq(id), 42u);
}

TEST(MsgIdTest, DistinctForDistinctInputs) {
  EXPECT_NE(makeMsgId(1, 2), makeMsgId(2, 1));
  EXPECT_NE(makeMsgId(0, 1), makeMsgId(1, 0));
}

TEST(MsgIdTest, OrderedByOriginThenSeq) {
  EXPECT_LT(makeMsgId(1, 99), makeMsgId(2, 0));
  EXPECT_LT(makeMsgId(1, 1), makeMsgId(1, 2));
}

TEST(EnsureTest, ThrowsInvariantErrorWithLocation) {
  try {
    WFD_ENSURE_MSG(false, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(EnsureTest, PassesSilently) {
  EXPECT_NO_THROW(WFD_ENSURE(1 + 1 == 2));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.between(0, 1000), b.between(0, 1000));
  }
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, BetweenIsInclusive) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    sawLo |= v == 3;
    sawHi |= v == 5;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // The fork must not mirror the parent.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.below(1000) == child.below(1000)) ++equal;
  }
  EXPECT_LT(equal, 25);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(HashTest, HashVectorDiffersForDifferentContent) {
  std::vector<int> a{1, 2, 3}, b{3, 2, 1};
  EXPECT_NE(hashVector(a), hashVector(b));
}

TEST(StringsTest, JoinFormats) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(join(v, ", "), "1, 2, 3");
  EXPECT_EQ(join(std::vector<int>{}, ","), "");
}

TEST(StringsTest, ParseDecimalU64AcceptsDigitsOnly) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parseDecimalU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parseDecimalU64("42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parseDecimalU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"", "-1", "-5", "+3", " 3", "3 ", "3x", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parseDecimalU64(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 7u);  // untouched on rejection
}

TEST(DigraphTest, AddNodeIdempotent) {
  Digraph<int> g;
  EXPECT_TRUE(g.addNode(1));
  EXPECT_FALSE(g.addNode(1));
  EXPECT_EQ(g.nodeCount(), 1u);
}

TEST(DigraphTest, AddEdgeInsertsEndpoints) {
  Digraph<int> g;
  EXPECT_TRUE(g.addEdge(1, 2));
  EXPECT_TRUE(g.hasNode(1));
  EXPECT_TRUE(g.hasNode(2));
  EXPECT_TRUE(g.hasEdge(1, 2));
  EXPECT_FALSE(g.hasEdge(2, 1));
}

TEST(DigraphTest, ParallelEdgesCollapse) {
  Digraph<int> g;
  EXPECT_TRUE(g.addEdge(1, 2));
  EXPECT_FALSE(g.addEdge(1, 2));
  EXPECT_EQ(g.edgeCount(), 1u);
}

TEST(DigraphTest, SelfLoopRejected) {
  Digraph<int> g;
  EXPECT_THROW(g.addEdge(3, 3), InvariantError);
}

TEST(DigraphTest, ReachesFollowsTransitivePaths) {
  Digraph<int> g;
  g.addEdge(1, 2);
  g.addEdge(2, 3);
  g.addEdge(3, 4);
  EXPECT_TRUE(g.reaches(1, 4));
  EXPECT_FALSE(g.reaches(4, 1));
  EXPECT_FALSE(g.reaches(1, 1));  // no cycle
}

TEST(DigraphTest, SinksAreNodesWithoutSuccessors) {
  Digraph<int> g;
  g.addEdge(1, 2);
  g.addEdge(1, 3);
  g.addNode(4);
  auto sinks = g.sinks();
  EXPECT_EQ(sinks, (std::vector<int>{2, 3, 4}));
}

TEST(DigraphTest, TopoSortRespectsEdgesAndTieBreak) {
  Digraph<int> g;
  g.addEdge(3, 1);
  g.addEdge(3, 2);
  g.addNode(0);
  auto order = g.topoSort([](int a, int b) { return a < b; });
  ASSERT_TRUE(order.has_value());
  // 0 and 3 are ready first; tie-break picks 0, then 3, then 1, 2.
  EXPECT_EQ(*order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(DigraphTest, TopoSortDetectsCycle) {
  Digraph<int> g;
  g.addEdge(1, 2);
  g.addEdge(2, 1);
  EXPECT_FALSE(g.topoSort([](int a, int b) { return a < b; }).has_value());
}

TEST(DigraphTest, UnionMergesNodesAndEdges) {
  Digraph<int> a, b;
  a.addEdge(1, 2);
  b.addEdge(2, 3);
  b.addEdge(1, 2);
  a.unionWith(b);
  EXPECT_EQ(a.nodeCount(), 3u);
  EXPECT_EQ(a.edgeCount(), 2u);
  EXPECT_TRUE(a.reaches(1, 3));
}

TEST(DigraphTest, PredecessorsAndSuccessors) {
  Digraph<int> g;
  g.addEdge(1, 3);
  g.addEdge(2, 3);
  EXPECT_EQ(g.predecessors(3), (std::vector<int>{1, 2}));
  EXPECT_EQ(g.successors(1), (std::vector<int>{3}));
  EXPECT_TRUE(g.predecessors(99).empty());
}

TEST(DigraphTest, NeighbourListsStayInInsertionOrder) {
  // Edges arriving "out of order" (a later-added predecessor) must still
  // report neighbours in the predecessors' insertion order.
  Digraph<int> g;
  g.addNode(5);
  g.addNode(7);
  g.addNode(6);
  g.addEdge(6, 5);  // pred added after target, larger index
  g.addEdge(7, 5);
  EXPECT_EQ(g.predecessors(5), (std::vector<int>{7, 6}));
  EXPECT_EQ(g.edgeCount(), 2u);
  EXPECT_FALSE(g.addEdge(6, 5));
  EXPECT_EQ(g.edgeCount(), 2u);
}

TEST(DigraphTest, UnionTranslatesDifferingInsertionOrders) {
  // The same logical graph built in different insertion orders must merge
  // into an identical edge set (indices are internal).
  Digraph<int> a, b;
  a.addNode(10);
  a.addEdge(20, 30);
  b.addNode(30);
  b.addEdge(10, 20);
  b.addEdge(20, 30);
  b.addEdge(30, 40);
  a.unionWith(b);
  EXPECT_EQ(a.nodeCount(), 4u);
  EXPECT_EQ(a.edgeCount(), 3u);
  EXPECT_TRUE(a.hasEdge(10, 20));
  EXPECT_TRUE(a.hasEdge(20, 30));
  EXPECT_TRUE(a.hasEdge(30, 40));
  EXPECT_FALSE(a.hasEdge(10, 30));
  EXPECT_TRUE(a.reaches(10, 40));
  // Union is idempotent: merging again adds nothing.
  a.unionWith(b);
  EXPECT_EQ(a.nodeCount(), 4u);
  EXPECT_EQ(a.edgeCount(), 3u);
}

TEST(DigraphTest, IndexAccessorsMatchValueApi) {
  Digraph<int> g;
  g.addEdge(2, 1);
  g.addEdge(3, 1);
  ASSERT_TRUE(g.indexOf(1).has_value());
  ASSERT_FALSE(g.indexOf(99).has_value());
  const auto i1 = *g.indexOf(1);
  EXPECT_EQ(g.nodeAt(i1), 1);
  std::vector<int> preds;
  for (auto p : g.predIndices(i1)) preds.push_back(g.nodeAt(p));
  EXPECT_EQ(preds, g.predecessors(1));
  std::vector<int> succs;
  for (auto s : g.succIndices(*g.indexOf(2))) succs.push_back(g.nodeAt(s));
  EXPECT_EQ(succs, g.successors(2));
}

TEST(DigraphTest, TopoSortIndicesAgreesWithTopoSort) {
  Digraph<int> g;
  g.addEdge(4, 2);
  g.addEdge(4, 3);
  g.addEdge(2, 1);
  g.addEdge(3, 1);
  g.addNode(0);
  const auto less = [](int a, int b) { return a < b; };
  const auto byValue = g.topoSort(less);
  const auto byIndex = g.topoSortIndices(less);
  ASSERT_TRUE(byValue.has_value());
  ASSERT_TRUE(byIndex.has_value());
  std::vector<int> mapped;
  for (auto i : *byIndex) mapped.push_back(g.nodeAt(i));
  EXPECT_EQ(mapped, *byValue);
  EXPECT_EQ(*byValue, (std::vector<int>{0, 4, 2, 3, 1}));
}

TEST(ValueSeqCodecTest, RoundTrips) {
  std::vector<Value> seq{{1, 2, 3}, {}, {42}};
  EXPECT_EQ(decodeValueSeq(encodeValueSeq(seq)), seq);
}

TEST(ValueSeqCodecTest, EmptySeq) {
  std::vector<Value> seq;
  EXPECT_EQ(decodeValueSeq(encodeValueSeq(seq)), seq);
}

TEST(ValueSeqCodecTest, MalformedThrows) {
  EXPECT_THROW(decodeValueSeq(Value{}), InvariantError);
  EXPECT_THROW(decodeValueSeq(Value{2, 1, 5}), InvariantError);  // truncated
}

TEST(AppMsgCodecTest, RoundTrips) {
  std::vector<AppMsg> seq;
  AppMsg a;
  a.id = makeMsgId(1, 7);
  a.origin = 1;
  a.body = {9, 8};
  AppMsg b;
  b.id = makeMsgId(2, 0);
  b.origin = 2;
  seq = {a, b};
  const auto decoded = decodeAppMsgSeq(encodeAppMsgSeq(seq));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].id, a.id);
  EXPECT_EQ(decoded[0].origin, a.origin);
  EXPECT_EQ(decoded[0].body, a.body);
  EXPECT_EQ(decoded[1].id, b.id);
  EXPECT_TRUE(decoded[1].body.empty());
}

TEST(AppMsgCodecTest, MalformedThrows) {
  EXPECT_THROW(decodeAppMsgSeq(Value{}), InvariantError);
  EXPECT_THROW(decodeAppMsgSeq(Value{1, 5}), InvariantError);
}

}  // namespace
}  // namespace wfd
