// Parameterized scale family: one deterministic scenario shape per
// protocol stack, parameterized only by the cluster size n. The
// scale-regression suite (tests/test_large_cluster.cpp) pins trace
// digests of these builders at small n across refactors of the
// simulator's hot paths, reuses the same shapes as n=64 smoke runs, and
// the E12 scale bench sweeps them over n — so "same digest" always
// means "same behavior at this size", not "same behavior on a test-only
// config nobody else runs".
//
// The shapes deliberately exercise the refactor-sensitive machinery:
// a minority crash (failure-pattern epoch queries), split-brain Omega
// until tau (pre-stabilization FD values), and — in the partition
// variant — periodic partition windows (the indexed connectivity path).
#pragma once

#include <cstddef>
#include <string>

#include "api/capabilities.h"
#include "fd/detectors.h"
#include "scenario/scenario.h"
#include "sim/failure_pattern.h"
#include "sim/simulator.h"

namespace wfd::scaletest {

/// Catalog-style scheduler parameters (timeoutPeriod 10, delays
/// [20, 40]) with an event budget sized for n=256 sweeps.
inline SimConfig scaleConfig(std::size_t n, Time maxTime = 6000) {
  SimConfig cfg;
  cfg.processCount = n;
  cfg.maxTime = maxTime;
  cfg.timeoutPeriod = 10;
  cfg.minDelay = 20;
  cfg.maxDelay = 40;
  cfg.maxEvents = 50'000'000;
  return cfg;
}

/// The per-stack scale shape: minority crash at t=1200, split-brain
/// Omega until tau=800, a short broadcast workload (or 40 EC instances
/// for the Omega->EC stack), judged by the stack's spec.
inline Scenario scaleScenario(AlgoStack stack, std::size_t n,
                              Time maxTime = 6000) {
  Scenario s;
  s.name = std::string("scale-") + algoStackName(stack) + "-n" +
           std::to_string(n);
  s.description = "scale-family shape for digest pinning and smoke runs";
  s.config = scaleConfig(n, maxTime);
  s.pattern = [](std::size_t m) {
    return Environments::minorityCrash(m, 1200);
  };
  s.tauOmega = 800;
  s.omegaMode = OmegaPreStabilization::kSplitBrain;
  s.stack = stack;
  s.workload.start = 100;
  s.workload.interval = 50;
  s.workload.perProcess = 3;
  switch (stack) {
    case AlgoStack::kEtob:
    case AlgoStack::kTobViaConsensus:
      break;
    case AlgoStack::kCommitEtob:
      // Commit safety is §7-proviso-conditional: a stable leader from
      // t=0 (the crash still exercises failure-pattern queries; the
      // majority survives, so indications must advance).
      s.tauOmega = 0;
      s.omegaMode = OmegaPreStabilization::kStable;
      s.checks.commit = true;
      s.checks.requireCommitProgress = true;
      break;
    case AlgoStack::kGossipLww:
      s.workload.lwwPutBodies = true;
      break;
    case AlgoStack::kOmegaEc:
      // Enough instances that the decided stream extends well past both
      // tau and the crash — the agreed suffix must be non-degenerate.
      s.workload.perProcess = 0;
      s.ecInstances = 40;
      break;
  }
  return s;
}

/// eTOB under a periodic partition splitting the lower half of the
/// process ids from the upper half: windows [400 + 900k, 700 + 900k).
/// Pinned alongside the plain matrix so the partition deferral path has
/// its own cross-refactor digest anchor.
inline Scenario scalePartitionScenario(std::size_t n, Time maxTime = 6000) {
  Scenario s;
  s.name = "scale-partition-n" + std::to_string(n);
  s.description = "periodic half/half partition over the scale shape";
  s.config = scaleConfig(n, maxTime);
  s.tauOmega = 800;
  s.omegaMode = OmegaPreStabilization::kSplitBrain;
  s.stack = AlgoStack::kEtob;
  s.workload.start = 100;
  s.workload.interval = 50;
  s.workload.perProcess = 3;
  PartitionSpec spec;
  spec.start = 400;
  spec.width = 300;
  spec.period = 900;
  // Indexed form of the half/half cut: same link set as the former
  // (from < n/2) != (to < n/2) predicate, so the pinned digests double
  // as an index-vs-predicate equivalence check.
  spec.componentOf = PartitionSpec::splitAt(n, n / 2);
  s.config.partitions = {spec};
  return s;
}

}  // namespace wfd::scaletest
