// Algorithm 4: eventual consensus from Omega, in ANY environment —
// the sufficiency half of Theorem 2.
//
// Per the paper:
//  * on proposeEC_l(v)      -> count_i := l; send promote(v, l) to all
//  * on promote(v, l) from j-> received_i[j, l] := v
//  * on local timeout       -> if received_i[Omega_i, count_i] != ⊥ then
//                              DecideEC(count_i, received_i[Omega_i, count_i])
//
// Once Omega stabilizes on one correct leader, all processes decide that
// leader's proposals, giving agreement for every later instance; no
// quorum (Sigma) is ever needed.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "ec/ec_types.h"
#include "sim/automaton.h"

namespace wfd {

/// Algorithm 4's wire message promote(v, l).
struct EcPromoteMsg {
  Value value;
  Instance instance = 0;
};

class OmegaEcAutomaton final : public CloneableAutomaton<OmegaEcAutomaton> {
 public:
  void onInput(const StepContext& ctx, const Payload& input, Effects& fx) override;
  void onMessage(const StepContext& ctx, ProcessId from, const Payload& msg,
                 Effects& fx) override;
  void onTimeout(const StepContext& ctx, Effects& fx) override;

  bool decided(Instance l) const {
    return l < kDenseKeyLimit
               ? l < denseDecided_.size() && denseDecided_[l]
               : sparseDecided_.contains(l);
  }

 private:
  /// Flat key for received_i[(j, l)]: l * n + j, injective for any run
  /// (n is fixed per run). The EC driver proposes instances
  /// sequentially, so the key space is dense and a flat vector replaces
  /// the former std::map — whose per-promote node allocation and
  /// rebalancing was the top cost of the Omega->EC stack at n=256.
  /// Direct (non-driver) users with absurdly large instance numbers
  /// fall back to a sparse map instead of forcing a huge resize.
  static std::uint64_t receivedKey(const StepContext& ctx, ProcessId j,
                                   Instance l) {
    return l * static_cast<std::uint64_t>(ctx.processCount) +
           static_cast<std::uint64_t>(j);
  }

  static constexpr std::uint64_t kDenseKeyLimit = 1u << 22;

  const Value* findReceived(std::uint64_t key) const;
  void storeReceived(std::uint64_t key, const Value& value);
  void markDecided(Instance l);

  Instance count_ = 0;  // number of the last instance invoked here
  /// received_i[(j, l)] — the value promoted by p_j for instance l
  /// (nullopt = ⊥); dense storage with sparse overflow past the limit.
  std::vector<std::optional<Value>> denseReceived_;
  std::unordered_map<std::uint64_t, Value> sparseReceived_;
  /// Instances already responded to (EC-Integrity: at most one response).
  std::vector<bool> denseDecided_;
  std::unordered_set<Instance> sparseDecided_;
};

}  // namespace wfd
