// RandomScheduleModel: the network half of a FuzzPlan, realized as one
// NetworkModel composed from the PR-2 decorators.
//
// The plan's network genome (base delays, optional slow-process links,
// optional duplication+reordering, optional per-process clock skew,
// partition windows) is lowered to the decorator stack
//
//     PartitionModel( OneWayOutageModel( GilbertElliottLossModel(
//         IidLossModel( ClockSkewModel( ChaosLinkModel( base ) ) ) ) ) )
//
// with PartitionModel outermost, per the canonical rank order in
// sim/network_model.h (partitions > lossy > clock skew > chaos > base;
// jitter applied outside a partition could move a deferred arrival back
// inside a later window, and loss draws key on post-skew arrival
// times). Every layer is omitted when the plan disables it, so a fully
// quiet genome is exactly the legacy UniformDelayModel. Because all
// randomness still flows through the simulator's Rng, a (plan) value
// fully determines the run; the ctor re-checks the composed stack with
// ensureCanonicalComposition.
#pragma once

#include <memory>
#include <string>

#include "explore/fuzz_plan.h"
#include "sim/network_model.h"

namespace wfd {

class RandomScheduleModel final : public NetworkModel {
 public:
  /// Requires planAdmissibilityViolations(plan).empty() for the network
  /// fields (WFD_ENSUREs the structural ones it depends on).
  explicit RandomScheduleModel(const FuzzPlan& plan);

  void schedule(const LinkSend& send, Rng& rng,
                std::vector<Time>& arrivals) const override;
  Time lambdaPeriod(ProcessId p, Time basePeriod) const override;
  /// True iff the plan's loss genome is active — this is what arms the
  /// simulator's retransmission layer for lossy fuzz plans.
  bool mayDrop() const override;
  /// Transparent for composition checking: reports the composed stack's
  /// outermost rank and chains into it, so ensureCanonicalComposition
  /// walks the real decorators.
  int compositionRank() const override;
  const NetworkModel* innerModel() const override;
  /// "random[<composed stack name>]" — diagnostics show the genome.
  std::string name() const override;

 private:
  std::shared_ptr<const NetworkModel> inner_;
};

}  // namespace wfd
