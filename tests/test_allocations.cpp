// Allocation pins for the per-event path. This executable replaces the
// global operator new and operator delete with versions that count
// calls, so a test can assert how many heap blocks one operation takes.
// The counts are exact: a change that adds a block to a payload or to an
// idle λ-step fails here before it shows in a benchmark.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checkers/workload.h"
#include "etob/etob_automaton.h"
#include "fd/detectors.h"
#include "shard/zipf.h"
#include "sim/automaton.h"
#include "sim/payload.h"
#include "sim/simulator.h"
#include "tob/tob_via_consensus.h"

namespace {
std::atomic<std::size_t> gNewCalls{0};
}  // namespace

// The array and nothrow forms of the library call these, so every
// unaligned allocation in the process is counted. They stay out of line:
// inlined into a caller, GCC's -Wmismatched-new-delete would see free()
// take a pointer that operator new returned.
[[gnu::noinline]] void* operator new(std::size_t size) {
  gNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace wfd {
namespace {

/// Counts operator new calls from construction to count().
class NewCounter {
 public:
  NewCounter() : start_(gNewCalls.load(std::memory_order_relaxed)) {}
  std::size_t count() const {
    return gNewCalls.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::size_t start_;
};

// A count of zero below means something only if the counter sees
// allocations at all.
TEST(AllocationTest, CounterSeesOperatorNew) {
  const NewCounter news;
  auto p = std::make_unique<int>(1);
  EXPECT_EQ(news.count(), 1u);
  EXPECT_EQ(*p, 1);
}

TEST(AllocationTest, PayloadOfAMessageLargerThanAPointerIsOneBlock) {
  static_assert(sizeof(EtobPromoteMsg) > sizeof(void*));
  EtobPromoteMsg msg;  // empty seq: moving it allocates nothing
  msg.epoch = 7;
  msg.baseLen = 3;
  const NewCounter news;
  const Payload p = Payload::of(std::move(msg));
  const std::size_t blocks = news.count();
  EXPECT_EQ(blocks, 1u) << "the value and its tag share the control block";
  ASSERT_NE(p.as<EtobPromoteMsg>(), nullptr);
  EXPECT_EQ(p.as<EtobPromoteMsg>()->epoch, 7u);
  EXPECT_EQ(p.as<EtobPromoteMsg>()->baseLen, 3u);
}

TEST(AllocationTest, ParkingARefreshDeltaWithSpareCapacityAllocatesNothing) {
  // A chain at epoch 1 parks the deltas of epochs 3 and 4 while epoch 2
  // is in flight; epoch 2's arrival drains them, and the chain keeps the
  // room. Deltas with an empty suffix are what a leader sends on every
  // λ-step while nothing new is promotable.
  const auto refresh = [](std::uint64_t epoch) {
    EtobPromoteMsg msg;
    msg.epoch = epoch;
    msg.baseLen = 1;
    return msg;
  };
  CausalityGraph cg;
  std::unordered_map<MsgId, AppMsg> bodies;
  PromoteChain chain;
  EtobPromoteMsg first;
  first.epoch = 1;
  first.seq.resize(1);
  first.seq[0].id = makeMsgId(0, 0);
  ASSERT_TRUE(advancePromoteChain(chain, first, cg, bodies));
  ASSERT_FALSE(advancePromoteChain(chain, refresh(3), cg, bodies));
  ASSERT_FALSE(advancePromoteChain(chain, refresh(4), cg, bodies));
  ASSERT_TRUE(advancePromoteChain(chain, refresh(2), cg, bodies));
  ASSERT_EQ(chain.epoch, 4u);
  ASSERT_TRUE(chain.pending.empty());

  const EtobPromoteMsg sixth = refresh(6);
  const EtobPromoteMsg seventh = refresh(7);
  const NewCounter news;
  EXPECT_FALSE(advancePromoteChain(chain, seventh, cg, bodies));
  EXPECT_FALSE(advancePromoteChain(chain, sixth, cg, bodies));
  const std::size_t blocks = news.count();
  EXPECT_EQ(blocks, 0u) << "parking a promote took a heap block";
  ASSERT_EQ(chain.pending.size(), 2u);
  EXPECT_EQ(chain.pending[0].epoch, 6u);
  EXPECT_EQ(chain.pending[1].epoch, 7u);
  EXPECT_EQ(chain.ids, std::vector<MsgId>{makeMsgId(0, 0)});
}

TEST(AllocationTest, SecondZipfianGeneratorOfABuiltShapeAllocatesNothing) {
  // The first generator of a shape builds its CDF and guide table; every
  // later one, whatever its seed, shares them.
  ZipfianKeyGenerator first(4096, 0.99, 1);
  const NewCounter news;
  ZipfianKeyGenerator second(4096, 0.99, 2);
  ZipfianKeyGenerator again(4096, 0.99, 1);
  const std::size_t blocks = news.count();
  EXPECT_EQ(blocks, 0u) << "a generator of a built shape rebuilt its table";
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(first.next(), again.next()) << "draw " << i;
  EXPECT_LT(second.next(), 4096u);
}

TEST(AllocationTest, EffectsTakesANewDeliverySequenceInTheRoomOfALongerOne) {
  // The simulator reuses one Effects for every step: once it has carried
  // a d_i, clear() keeps the room and a shorter or equal d_i fits in it.
  Effects fx;
  std::vector<MsgId> longer;
  for (std::uint32_t i = 0; i < 64; ++i) longer.push_back(makeMsgId(0, i));
  fx.deliverSequence(longer);
  fx.clear();
  ASSERT_EQ(fx.delivered(), nullptr);
  const std::vector<MsgId> shorter(longer.begin(), longer.begin() + 40);
  const NewCounter news;
  fx.deliverSequence(shorter);
  const std::size_t blocks = news.count();
  EXPECT_EQ(blocks, 0u) << "a new d_i took a heap block";
  ASSERT_NE(fx.delivered(), nullptr);
  EXPECT_EQ(*fx.delivered(), shorter);
}

TEST(AllocationTest, IdleTobLeaderLambdaStepAllocatesNothing) {
  // Run a stable-leader TOB-via-consensus cluster until every broadcast
  // is delivered everywhere: the leader then knows exactly the messages
  // in its d_i, and a λ-step has nothing to batch.
  SimConfig cfg;
  cfg.processCount = 3;
  cfg.seed = 1;
  cfg.maxTime = 40000;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  const auto fp = FailurePattern::noFailures(3);
  Simulator sim(cfg, fp,
                std::make_shared<OmegaFd>(fp, 0, OmegaPreStabilization::kStable));
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    sim.addProcess(p, std::make_unique<TobViaConsensusAutomaton>(p, cfg.processCount));
  }
  BroadcastWorkload w;
  w.perProcess = 10;
  const auto log = scheduleBroadcastWorkload(sim, w);
  ASSERT_TRUE(sim.runUntil([&](const Simulator& s) { return broadcastConverged(s, log); }));

  ProcessId leaderId = kNoProcess;
  for (ProcessId p = 0; p < cfg.processCount; ++p) {
    const auto& a = static_cast<const TobViaConsensusAutomaton&>(sim.automaton(p));
    if (a.engine().canPropose()) leaderId = p;
  }
  ASSERT_NE(leaderId, kNoProcess) << "no prepared leader";
  TobViaConsensusAutomaton leader =
      static_cast<const TobViaConsensusAutomaton&>(sim.automaton(leaderId));
  ASSERT_EQ(leader.delivered().size(), log.size());

  StepContext ctx;
  ctx.now = sim.now();
  ctx.self = leaderId;
  ctx.processCount = cfg.processCount;
  ctx.fd.leader = leaderId;
  Effects fx;
  const NewCounter news;
  leader.onTimeout(ctx, fx);
  const std::size_t blocks = news.count();
  EXPECT_EQ(blocks, 0u) << "an idle leader's λ-step scanned its history";
  EXPECT_TRUE(fx.sends().empty());
  EXPECT_EQ(leader.delivered().size(), log.size());
}

}  // namespace
}  // namespace wfd
