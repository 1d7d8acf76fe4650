// Service-level stack vocabulary and per-stack capability advertisement
// for the wfd::Cluster / wfd::Client facade.
//
// The facade exposes ONE uniform client surface over five very different
// protocol stacks. Capabilities is how a cluster advertises which parts
// of that surface are live for the stack it fronts, so callers can
// branch on flags instead of dynamic_casting automaton internals:
// unadvertised calls return the empty answer (committedPrefix() == {},
// kvGet() == nullopt) or are rejected as programming errors (submit on a
// stack with no client input surface).
#pragma once

#include <cstddef>
#include <iterator>
#include <string>

namespace wfd {

/// Which protocol stack a cluster installs on every process.
enum class AlgoStack {
  kEtob,             // Algorithm 5 (eTOB directly from Omega)
  kCommitEtob,       // the §7 committed-prefix extension of Algorithm 5
  kTobViaConsensus,  // strong TOB baseline over Multi-Paxos
  kGossipLww,        // Dynamo-style gossip/LWW strawman
  kOmegaEc,          // Algorithm 4 (EC from Omega) under the proposal driver
};

/// Every stack, in enum order — THE canonical list. Anything that
/// enumerates stacks (wfd_explore --stack all, wfd_scenarios --stack,
/// the fuzz sampler's name parser, bench E11, sweep tests) iterates
/// this, so adding an enum value above without extending this line is
/// impossible to miss.
inline constexpr AlgoStack kAllAlgoStacks[] = {
    AlgoStack::kEtob, AlgoStack::kCommitEtob, AlgoStack::kTobViaConsensus,
    AlgoStack::kGossipLww, AlgoStack::kOmegaEc};
// Tripwire: when adding an AlgoStack, extend kAllAlgoStacks AND bump this
// count (the -Wswitch warnings in algoStackName/stackCapabilities, the
// cluster lowering and the scenario spec catch the switches; this
// catches the array).
static_assert(std::size(kAllAlgoStacks) == 5,
              "kAllAlgoStacks must cover every AlgoStack enumerator");

/// Stable stack name, shared by plans, scenarios and both CLIs.
const char* algoStackName(AlgoStack stack);

/// Inverse of algoStackName; false on unknown name.
bool parseAlgoStack(const std::string& name, AlgoStack* out);

/// What the uniform Client surface supports on a given cluster.
struct Capabilities {
  /// Client::submit / submitAt accept application broadcasts.
  bool submits = false;
  /// Client::delivered() exposes the evolving delivery sequence d_i.
  bool deliverySequence = false;
  /// Client::committedPrefix() can become non-empty (§7 commit-eTOB).
  bool committedPrefix = false;
  /// Client::put / kvGet: replicated key-value writes and reads.
  bool kv = false;
  /// The stack drives its own EC proposal stream; clients observe
  /// decisions() instead of submitting.
  bool selfProposing = false;
};

/// Capabilities of a bare stack. ClusterSpec::kvReplica additionally
/// turns on `kv` for the broadcast stacks (the cluster computes the
/// effective flags; see Cluster::capabilities()).
Capabilities stackCapabilities(AlgoStack stack);

}  // namespace wfd
