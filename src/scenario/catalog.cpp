// The named scenario catalog. Every entry is a complete, deterministic
// run description; tests sweep all of them (tests/test_scenarios.cpp),
// the wfd_scenarios CLI runs and lists them, and benches reference them
// as base setups. docs/SCENARIOS.md carries the human-readable table —
// scripts/check_docs_links.sh cross-checks it against this registry.
#include "scenario/scenario.h"

#include "common/ensure.h"
#include "fd/robust_fd.h"
#include "sim/lossy_model.h"

namespace wfd {

namespace {

/// Baseline scheduler parameters shared by most entries; individual
/// scenarios override fields after calling this.
SimConfig baseConfig(std::size_t n, Time maxTime) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.maxTime = maxTime;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  return cfg;
}

BroadcastWorkload standardWorkload(Time start, std::size_t perProcess,
                                   Time interval = 50) {
  BroadcastWorkload w;
  w.start = start;
  w.interval = interval;
  w.perProcess = perProcess;
  return w;
}

std::shared_ptr<const NetworkModel> uniformOf(const SimConfig& cfg) {
  return std::make_shared<UniformDelayModel>(cfg.minDelay, cfg.maxDelay,
                                             cfg.fixedDelay);
}

CheckerSet etobChecks(bool strong = false) {
  CheckerSet c;
  c.broadcast = true;
  c.convergence = true;
  c.requireStrongTob = strong;
  return c;
}

/// The shape every sharded-* entry shares: S commit-eTOB shards x 3
/// replicas on the base scheduler, 120 keyed puts every 10 ticks with a
/// read after every 4th, each shard's broadcast clauses, commit safety
/// and progress required on top of the always-on sharded_kv clauses.
Scenario shardedEntry(std::size_t shards, std::uint64_t keys) {
  Scenario s;
  s.config = baseConfig(3, 40'000);
  s.stack = AlgoStack::kCommitEtob;
  s.omegaMode = OmegaPreStabilization::kStable;
  s.workload.perProcess = 0;  // the keyed workload replaces it
  s.shards = shards;
  s.keyed.puts = 120;
  s.keyed.keys = keys;
  s.checks.broadcast = true;
  s.checks.commit = true;
  s.checks.requireCommitProgress = true;
  return s;
}

/// The Gilbert–Elliott burst shape shared by the lossy-burst-* entries:
/// a ~400-tick burst roughly every other 2000-tick frame, 90% loss
/// inside, lossless outside, quiet from `activeUntil` on. The SAME
/// config feeds both the network model and (via burstWindowsOf) the
/// adaptive failure detectors, so the FD sees exactly the bursts the
/// network produces.
GilbertElliottLossModel::Config burstShape(Time activeUntil,
                                           std::uint64_t seed) {
  GilbertElliottLossModel::Config c;
  c.framePeriod = 2000;
  c.burstNum = 1;
  c.burstDen = 2;
  c.burstLen = 400;
  c.dropInNum = 9;
  c.dropInDen = 10;
  c.dropOutNum = 0;
  c.dropOutDen = 1;
  c.seed = seed;
  c.correlated = true;
  c.activeUntil = activeUntil;
  return c;
}

std::vector<std::pair<Time, Time>> burstWindowsOf(
    const GilbertElliottLossModel::Config& c, Time horizon) {
  // Any inner model works: the burst schedule is a pure function of the
  // config (correlated => the link arguments are ignored too).
  const GilbertElliottLossModel model(
      std::make_shared<UniformDelayModel>(1, 1), c);
  return model.burstWindowsUpTo(horizon, 0, 1);
}

std::vector<Scenario> buildCatalog() {
  std::vector<Scenario> catalog;

  // ---- Baseline leaders and stabilization shapes (uniform network) ----
  {
    Scenario s;
    s.name = "stable-leader";
    s.description =
        "n=3, no failures, Omega stable from t=0: Algorithm 5 must give "
        "STRONG total order broadcast (paper property (2)) — zero "
        "revocations, tau-hat = 0.";
    s.config = baseConfig(3, 20000);
    s.tauOmega = 0;
    s.omegaMode = OmegaPreStabilization::kStable;
    s.workload = standardWorkload(100, 8);
    s.checks = etobChecks(/*strong=*/true);
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "split-brain-heal";
    s.description =
        "n=3, every process trusts a different leader until tau_Omega=1500, "
        "then Omega stabilizes: sequences may diverge during the partition "
        "period but converge by tau_Omega + dt + dc.";
    s.config = baseConfig(3, 20000);
    s.tauOmega = 1500;
    s.workload = standardWorkload(100, 8);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "rotating-omega";
    s.description =
        "n=4, all processes agree on a leader that rotates over the whole "
        "process set until tau_Omega=2000 — models synchronized but wrong "
        "elections rather than split brain.";
    s.config = baseConfig(4, 25000);
    s.tauOmega = 2000;
    s.omegaMode = OmegaPreStabilization::kRotating;
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }

  // ---- Crash patterns ----
  {
    Scenario s;
    s.name = "minority-crash";
    s.description =
        "n=5, two processes crash at t=1500 while the workload is in "
        "flight; Omega stabilizes at 2500 on a correct leader.";
    s.config = baseConfig(5, 30000);
    s.pattern = [](std::size_t n) { return Environments::minorityCrash(n, 1500); };
    s.tauOmega = 2500;
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "majority-crash-etob";
    s.description =
        "n=5, THREE processes crash at t=2000 and every broadcast happens "
        "after the majority is gone: ETOB keeps delivering (eventual "
        "consistency needs only Omega — the Sigma gap, paper §1/§4).";
    s.config = baseConfig(5, 30000);
    s.pattern = [](std::size_t n) { return Environments::majorityCrash(n, 2000); };
    s.tauOmega = 2500;
    s.workload = standardWorkload(3000, 8);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "staggered-churn";
    s.description =
        "n=6, two highest-id processes crash 400 ticks apart starting at "
        "t=1000, under a rotating Omega that stabilizes late (t=2500).";
    s.config = baseConfig(6, 30000);
    s.pattern = [](std::size_t n) {
      return Environments::staggeredCrashes(n, 2, 1000, 400);
    };
    s.tauOmega = 2500;
    s.omegaMode = OmegaPreStabilization::kRotating;
    s.workload = standardWorkload(100, 5);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }

  // ---- Adversarial network models ----
  {
    Scenario s;
    s.name = "flaky-majority-link";
    s.description =
        "n=5, every link between the eventual leader (p0) and the rest "
        "duplicates (p=1/3, up to 2 extra copies) and jitters by up to 50 "
        "ticks: the automaton boundary must still see exactly-once, "
        "causally ordered deliveries.";
    s.config = baseConfig(5, 30000);
    s.tauOmega = 1000;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      ChaosLinkModel::Config chaos;
      chaos.dupNum = 1;
      chaos.dupDen = 3;
      chaos.maxExtraCopies = 2;
      chaos.reorderJitter = 50;
      chaos.affects = [](ProcessId from, ProcessId to) {
        return from == 0 || to == 0;
      };
      return std::make_shared<ChaosLinkModel>(uniformOf(cfg), chaos);
    };
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "dup-reorder-storm";
    s.description =
        "n=4, EVERY link duplicates with p=1/2 (up to 3 extra copies) and "
        "jitters by up to 80 ticks — a hostile but admissible network; "
        "no-duplication and causal order must survive unscathed.";
    s.config = baseConfig(4, 30000);
    s.tauOmega = 1200;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      ChaosLinkModel::Config chaos;
      chaos.dupNum = 1;
      chaos.dupDen = 2;
      chaos.maxExtraCopies = 3;
      chaos.reorderJitter = 80;
      return std::make_shared<ChaosLinkModel>(uniformOf(cfg), chaos);
    };
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "skewed-clocks";
    s.description =
        "n=4, per-process clock skew on the lambda-step period spreading "
        "from 3x slower (p0) to 2x faster (p3): every Delta_t-based "
        "convergence argument is stressed, admissibility is kept (every "
        "process still steps forever).";
    s.config = baseConfig(4, 30000);
    s.config.clockSkew = clockSkewSpread(4, {3, 1}, {1, 2});
    s.tauOmega = 1500;
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "partition-heal-storm";
    s.description =
        "n=4, p3 is periodically isolated (400-tick windows every 1500 "
        "ticks, forever): deliveries defer past each window and the "
        "sequences re-converge in every gap.";
    s.config = baseConfig(4, 30000);
    PartitionSpec storm;
    storm.start = 500;
    storm.width = 400;
    storm.period = 1500;
    storm.affects = [](ProcessId from, ProcessId to) {
      return from == 3 || to == 3;
    };
    s.config.partitions = {storm};
    s.tauOmega = 1000;
    s.workload = standardWorkload(100, 5);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "adversarial-blackout";
    s.description =
        "n=4, a one-shot TOTAL blackout [800, 2300) on every link while "
        "Omega is still split-brain: all in-flight traffic defers to the "
        "heal point, then the run must converge normally.";
    s.config = baseConfig(4, 25000);
    PartitionSpec blackout;
    blackout.start = 800;
    blackout.width = 1500;
    blackout.period = 0;  // one-shot
    s.config.partitions = {blackout};
    s.tauOmega = 1000;
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "asymmetric-slow-leader";
    s.description =
        "n=4, every link touching the eventual leader (p0) is 4x slower "
        "than the rest: promotes crawl, but the convergence bound only "
        "stretches — it never breaks.";
    s.config = baseConfig(4, 30000);
    s.tauOmega = 1000;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      return AsymmetricDelayModel::slowProcess(cfg.minDelay, cfg.maxDelay,
                                               /*slow=*/0, /*factor=*/4);
    };
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }

  // ---- Other algorithm stacks over the same machinery ----
  {
    Scenario s;
    s.name = "tob-baseline-stable";
    s.description =
        "n=3, the classical consensus-based TOB baseline with a correct "
        "majority: all six TOB properties from time 0 (strong TOB), at "
        "three communication steps per delivery.";
    s.config = baseConfig(3, 30000);
    s.tauOmega = 0;
    s.omegaMode = OmegaPreStabilization::kStable;
    s.stack = AlgoStack::kTobViaConsensus;
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks(/*strong=*/true);
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "tob-minority-crash";
    s.description =
        "n=5, consensus-based TOB with two crashes at t=1500: the majority "
        "survives, so the baseline still delivers everything in one total "
        "order.";
    s.config = baseConfig(5, 40000);
    s.pattern = [](std::size_t n) { return Environments::minorityCrash(n, 1500); };
    s.tauOmega = 2000;
    s.stack = AlgoStack::kTobViaConsensus;
    s.workload = standardWorkload(100, 5);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "commit-stable-majority";
    s.description =
        "n=3, the §7 committed-prefix extension under a stable leader and "
        "a correct majority: indications must advance and no committed "
        "prefix may ever be revoked.";
    s.config = baseConfig(3, 25000);
    s.tauOmega = 0;
    s.omegaMode = OmegaPreStabilization::kStable;
    s.stack = AlgoStack::kCommitEtob;
    s.workload = standardWorkload(150, 6);
    s.checks = etobChecks();
    s.checks.commit = true;
    s.checks.requireCommitProgress = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "commit-majority-crash";
    s.description =
        "n=5, committed prefixes with THREE crashes at t=2000: commits may "
        "stop advancing (the §7 proviso is gone) but must never be revoked, "
        "while deliveries continue on Omega alone.";
    s.config = baseConfig(5, 30000);
    s.pattern = [](std::size_t n) { return Environments::majorityCrash(n, 2000); };
    s.tauOmega = 1000;
    s.omegaMode = OmegaPreStabilization::kRotating;
    s.stack = AlgoStack::kCommitEtob;
    s.workload = standardWorkload(150, 5);
    s.checks = etobChecks();
    s.checks.commit = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "gossip-lww-convergence";
    s.description =
        "n=4, the Dynamo-style gossip/LWW strawman on an LWW-put workload: "
        "replicas converge to identical tables (eventual consistency as "
        "deployed — no order guarantees, contrast with ETOB in E5).";
    s.config = baseConfig(4, 20000);
    s.detector = [](const FailurePattern& fp) {
      return std::make_shared<PerfectFd>(fp);
    };
    s.stack = AlgoStack::kGossipLww;
    s.workload = standardWorkload(100, 5);
    s.workload.lwwPutBodies = true;
    s.checks.gossipConvergence = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "ec-omega-split-brain";
    s.description =
        "n=3, Algorithm 4 (EC from Omega) under the standing proposal "
        "driver with split-brain Omega until t=1000: integrity and "
        "validity always, termination for every instance, and an agreed "
        "suffix — the instance count is sized so the driver is still "
        "proposing well after Omega stabilizes (early instances may "
        "disagree; late ones must not).";
    s.config = baseConfig(3, 25000);
    s.tauOmega = 1000;
    s.stack = AlgoStack::kOmegaEc;
    s.ecInstances = 60;
    s.checks.ec = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "skewed-chaos-combo";
    s.description =
        "n=4, composition stress: clock skew on top of duplication+"
        "reordering over uniform delay — skewed lambda-steps and a "
        "decorated network in one run, still admissible.";
    s.config = baseConfig(4, 30000);
    s.config.clockSkew = clockSkewSpread(4, {2, 1}, {2, 3});
    s.tauOmega = 1500;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      ChaosLinkModel::Config chaos;
      chaos.dupNum = 1;
      chaos.dupDen = 4;
      chaos.maxExtraCopies = 2;
      chaos.reorderJitter = 40;
      return std::make_shared<ChaosLinkModel>(uniformOf(cfg), chaos);
    };
    s.workload = standardWorkload(100, 5);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }

  // ---- Fair-lossy links (stubborn retransmission layer engaged) ----
  //
  // Every entry here uses a mayDrop() network, so the simulator runs the
  // full ack/retransmit/dedup machinery beneath the unchanged automata:
  // throughput degrades, safety must not. Loss is bounded in time
  // (activeUntil / one-shot windows) so convergence checkers get a clean
  // tail; the five stacks each appear at least once.
  {
    Scenario s;
    s.name = "lossy-iid-etob";
    s.description =
        "n=4, ETOB over i.i.d. 20% per-copy loss on every link until "
        "t=12000: the retransmission layer recovers every dropped copy "
        "and the broadcast/convergence checkers hold unchanged.";
    s.config = baseConfig(4, 30000);
    s.tauOmega = 1000;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      IidLossModel::Config loss;
      loss.num = 1;
      loss.den = 5;
      loss.activeUntil = 12000;
      return std::make_shared<IidLossModel>(uniformOf(cfg), loss);
    };
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lossy-burst-etob";
    s.description =
        "n=4, ETOB through Gilbert-Elliott loss bursts (90% loss in "
        "~400-tick bursts until t=10000) with Omega DERIVED from an "
        "adaptive-heartbeat <>P that watches the same bursts: each burst "
        "splits the leadership, each re-stabilization doubles the "
        "timeout, and the run still converges.";
    s.config = baseConfig(4, 30000);
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      return std::make_shared<GilbertElliottLossModel>(
          uniformOf(cfg), burstShape(/*activeUntil=*/10000, /*seed=*/42));
    };
    s.detector = [](const FailurePattern& fp) {
      AdaptiveHeartbeatFd::Params hb;
      hb.heartbeatPeriod = 50;
      hb.initialTimeout = 150;
      hb.maxTimeout = 2000;
      hb.burstWindows = burstWindowsOf(burstShape(10000, 42), 10000);
      return std::make_shared<OmegaFromEventuallyPerfect>(
          std::make_shared<AdaptiveHeartbeatFd>(fp, hb), fp.size());
    };
    s.workload = standardWorkload(100, 6);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lossy-burst-commit";
    s.description =
        "n=3, committed prefixes through the same Gilbert-Elliott burst "
        "shape: indications may stall inside bursts but no committed "
        "prefix is ever revoked, and commits advance once the loss ends.";
    s.config = baseConfig(3, 30000);
    s.tauOmega = 500;
    s.stack = AlgoStack::kCommitEtob;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      return std::make_shared<GilbertElliottLossModel>(
          uniformOf(cfg), burstShape(/*activeUntil=*/8000, /*seed=*/7));
    };
    s.workload = standardWorkload(150, 5);
    s.checks = etobChecks();
    s.checks.commit = true;
    s.checks.requireCommitProgress = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lossy-oneway-tob";
    s.description =
        "n=3, consensus-based TOB across a RECURRING one-way cut (p2's "
        "outbound copies die for 300 of every 1500 ticks, forever) plus "
        "10% i.i.d. loss until t=10000: retransmissions land in the gaps "
        "and the total order never forks.";
    s.config = baseConfig(3, 40000);
    s.tauOmega = 1000;
    s.stack = AlgoStack::kTobViaConsensus;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      IidLossModel::Config loss;
      loss.num = 1;
      loss.den = 10;
      loss.activeUntil = 10000;
      auto iid = std::make_shared<IidLossModel>(uniformOf(cfg), loss);
      OutageSpec cut;
      cut.start = 600;
      cut.width = 300;
      cut.period = 1500;
      cut.from = 2;  // p2 -> anyone; p2 still hears the world
      return std::make_shared<OneWayOutageModel>(
          iid, std::vector<OutageSpec>{cut});
    };
    s.workload = standardWorkload(100, 5);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lossy-oneway-gossip";
    s.description =
        "n=4, gossip/LWW with a SWIM-style indirect-probe <>P: two "
        "one-shot one-way cuts around p3 (outbound [500,1500), inbound "
        "[2000,3000)) plus 1/8 i.i.d. loss until t=8000 — indirect "
        "probes keep rounds alive through cuts that kill direct pings, "
        "and all replicas converge.";
    s.config = baseConfig(4, 20000);
    s.stack = AlgoStack::kGossipLww;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      IidLossModel::Config loss;
      loss.num = 1;
      loss.den = 8;
      loss.activeUntil = 8000;
      auto iid = std::make_shared<IidLossModel>(uniformOf(cfg), loss);
      OutageSpec outbound;
      outbound.start = 500;
      outbound.width = 1000;
      outbound.from = 3;
      OutageSpec inbound;
      inbound.start = 2000;
      inbound.width = 1000;
      inbound.to = 3;
      return std::make_shared<OneWayOutageModel>(
          iid, std::vector<OutageSpec>{outbound, inbound});
    };
    s.detector = [](const FailurePattern& fp) {
      SwimFd::Params swim;
      swim.probePeriod = 100;
      swim.indirectRelays = 3;
      swim.seed = 11;
      swim.burstWindows = {{500, 1500}, {2000, 3000}};
      return std::make_shared<SwimFd>(fp, swim);
    };
    s.workload = standardWorkload(100, 5);
    s.workload.lwwPutBodies = true;
    s.checks.gossipConvergence = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lossy-gray-ec";
    s.description =
        "n=3, Algorithm 4 (EC from Omega) with p2 gray-failed: until "
        "t=8000 its links are 3x slower and drop 1/8 of copies, and its "
        "lambda-steps run at half speed for the whole run — degraded but "
        "correct, so every instance must still terminate and agree on a "
        "suffix.";
    s.config = baseConfig(3, 30000);
    s.config.clockSkew = {{1, 1}, {1, 1}, {2, 1}};
    s.tauOmega = 1000;
    s.stack = AlgoStack::kOmegaEc;
    s.ecInstances = 40;
    s.network = [](const SimConfig& cfg) -> std::shared_ptr<const NetworkModel> {
      GrayFailureModel::Config gray;
      gray.process = 2;
      gray.delayNum = 3;
      gray.delayDen = 1;
      gray.lossNum = 1;
      gray.lossDen = 8;
      gray.activeUntil = 8000;
      return std::make_shared<GrayFailureModel>(uniformOf(cfg), gray);
    };
    s.checks.ec = true;
    catalog.push_back(std::move(s));
  }

  // ---- Large clusters (n = 64..256) ----
  //
  // The big-n family exercises the scale-oriented data paths (slim event
  // heap, indexed partitions, FD epoch caches) at deployment-like sizes.
  // These entries are EXCLUDED from the exhaustive per-entry sweeps in
  // tests/test_scenarios.cpp and tests/test_api.cpp (each catalog entry
  // runs ~10x across suites and again under ASan/TSan, which big-n runs
  // cannot afford); tests/test_large_cluster.cpp covers them once per
  // build instead. The isLargeClusterScenario() predicate is the single
  // switch both sides use.
  {
    Scenario s;
    s.name = "large-cluster-leader-256";
    s.description =
        "n=256, Algorithm 4 (EC from Omega) under a single stable leader: "
        "every process proposes 40 instances and all 256 decision "
        "histories must agree from instance 1 — the interactive-scale "
        "acceptance shape (full horizon in seconds, not minutes).";
    s.config = baseConfig(256, 20000);
    s.tauOmega = 0;
    s.omegaMode = OmegaPreStabilization::kStable;
    s.stack = AlgoStack::kOmegaEc;
    s.ecInstances = 40;
    s.checks.ec = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "large-cluster-cascade-64";
    s.description =
        "n=64, a rolling majority-crash cascade: 33 processes crash 50 "
        "ticks apart from t=1200 under a rotating Omega that stabilizes "
        "only after the cascade (t=3200); the surviving minority keeps "
        "delivering on Omega alone (the Sigma gap at scale).";
    s.config = baseConfig(64, 12000);
    s.pattern = [](std::size_t n) {
      return Environments::staggeredCrashes(n, n / 2 + 1, 1200, 50);
    };
    s.tauOmega = 3200;
    s.omegaMode = OmegaPreStabilization::kRotating;
    s.workload = standardWorkload(100, 2);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "large-cluster-partitions-64";
    s.description =
        "n=64, two OVERLAPPING recurring partitions expressed through the "
        "flat component index (half/half every 900 ticks, a 16-process "
        "segment every 1100): deferrals chain across windows and the "
        "sequences re-converge in every common gap.";
    s.config = baseConfig(64, 8000);
    PartitionSpec halves;
    halves.start = 400;
    halves.width = 300;
    halves.period = 900;
    halves.componentOf = PartitionSpec::splitAt(64, 32);
    PartitionSpec segment;
    segment.start = 700;
    segment.width = 200;
    segment.period = 1100;
    segment.componentOf = PartitionSpec::splitAt(64, 16);
    s.config.partitions = {halves, segment};
    s.tauOmega = 800;
    s.workload = standardWorkload(100, 3);
    s.checks = etobChecks();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "large-cluster-gossip-128";
    s.description =
        "n=128, the gossip/LWW strawman at scale in the few-writers/"
        "many-replicas shape: 16 writers each issue one LWW put, then "
        "full-table anti-entropy until all 128 replicas hold identical "
        "tables (the writer cap is deliberate — gossip pays n^2 table "
        "merges per round, so table size must not also grow with n).";
    s.config = baseConfig(128, 1200);
    s.detector = [](const FailurePattern& fp) {
      return std::make_shared<PerfectFd>(fp);
    };
    s.stack = AlgoStack::kGossipLww;
    s.workload = standardWorkload(100, 1);
    s.workload.lwwPutBodies = true;
    s.workload.writers = 16;
    s.checks.gossipConvergence = true;
    catalog.push_back(std::move(s));
  }

  // --- Sharded KV service: S replica groups behind a hash-ring router ---
  {
    Scenario s = shardedEntry(4, 64);
    s.name = "sharded-uniform-commit";
    s.description =
        "S=4 commit-eTOB shards x 3 replicas behind a consistent-hash "
        "router, uniform keys: every read serves committed state, "
        "per-shard monotone, read-your-writes after observed commit.";
    catalog.push_back(std::move(s));
  }
  {
    Scenario s = shardedEntry(4, 64);
    s.name = "sharded-zipf-hotkey";
    s.description =
        "S=4 shards under Zipfian(0.99) keys — one hot shard absorbs "
        "most writes — with split-brain Omega until tau_Omega=400: the "
        "service stays safe through leader disagreement and commits "
        "once Omega stabilizes.";
    s.tauOmega = 400;
    s.omegaMode = OmegaPreStabilization::kSplitBrain;
    s.keyed.zipfian = true;  // theta 0.99
    catalog.push_back(std::move(s));
  }
  {
    Scenario s = shardedEntry(3, 48);
    s.name = "sharded-rebalance-crash";
    s.description =
        "S=3 shards; shard 1 loses two of three replicas mid-run "
        "(below majority), is removed from the ring and its keys "
        "re-home to the survivors; reads stay committed and monotone "
        "throughout. Read replica 0 is never crashed.";
    s.shardFaults.push_back({ShardFault::Kind::kCrash, 1, 1, 600, 0});
    s.shardFaults.push_back({ShardFault::Kind::kCrash, 1, 2, 620, 0});
    s.checks.requireRebalance = true;
    catalog.push_back(std::move(s));
  }

  // Catalog invariant: names are unique (the registry is looked up by name).
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    for (std::size_t j = i + 1; j < catalog.size(); ++j) {
      WFD_ENSURE_MSG(catalog[i].name != catalog[j].name,
                     "duplicate scenario name in catalog");
    }
  }
  return catalog;
}

}  // namespace

const std::vector<Scenario>& scenarioCatalog() {
  static const std::vector<Scenario> catalog = buildCatalog();
  return catalog;
}

const Scenario* findScenario(const std::string& name) {
  for (const Scenario& s : scenarioCatalog()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace wfd
