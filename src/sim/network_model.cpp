#include "sim/network_model.h"

#include <cstdint>

#include "common/ensure.h"

namespace wfd {

// ------------------------------------------------------------- NetworkModel

int NetworkModel::compositionRank() const { return kRankBase; }

void ensureCanonicalComposition(const NetworkModel& outermost) {
  const NetworkModel* layer = &outermost;
  int outerRank = layer->compositionRank();
  for (const NetworkModel* inner = layer->innerModel(); inner != nullptr;
       inner = inner->innerModel()) {
    const int innerRank = inner->compositionRank();
    WFD_ENSURE_MSG(innerRank <= outerRank,
                   "non-canonical network model composition: '" +
                       inner->name() + "' (rank " + std::to_string(innerRank) +
                       ") is wrapped by '" + layer->name() + "' (rank " +
                       std::to_string(outerRank) +
                       ") — decorators must be stacked lossy > chaos > base, "
                       "outermost first");
    layer = inner;
    outerRank = innerRank;
  }
}

// ---------------------------------------------------------- UniformDelayModel

UniformDelayModel::UniformDelayModel(Time minDelay, Time maxDelay, bool fixed)
    : minDelay_(minDelay), maxDelay_(maxDelay), fixed_(fixed) {
  WFD_ENSURE(minDelay_ >= 1 && minDelay_ <= maxDelay_);
}

void UniformDelayModel::schedule(const LinkSend& send, Rng& rng,
                                 std::vector<Time>& arrivals) const {
  // Exactly the legacy Simulator::deliveryTime draw sequence: one
  // rng.between per send (none when fixed), so default-model runs replay
  // pre-refactor traces bit-for-bit.
  const Time delay = fixed_ ? maxDelay_ : rng.between(minDelay_, maxDelay_);
  arrivals.push_back(send.sentAt + delay);
}

std::string UniformDelayModel::name() const {
  return fixed_ ? "uniform-delay(fixed=" + std::to_string(maxDelay_) + ")"
                : "uniform-delay(" + std::to_string(minDelay_) + ".." +
                      std::to_string(maxDelay_) + ")";
}

// -------------------------------------------------------- AsymmetricDelayModel

AsymmetricDelayModel::AsymmetricDelayModel(DelayFn delays)
    : delays_(std::move(delays)) {
  WFD_ENSURE(static_cast<bool>(delays_));
}

std::shared_ptr<AsymmetricDelayModel> AsymmetricDelayModel::slowProcess(
    Time minDelay, Time maxDelay, ProcessId slow, Time factor) {
  WFD_ENSURE(factor >= 1);
  return std::make_shared<AsymmetricDelayModel>(
      [minDelay, maxDelay, slow, factor](ProcessId from, ProcessId to) {
        LinkDelay d{minDelay, maxDelay};
        if (from == slow || to == slow) {
          d.minDelay *= factor;
          d.maxDelay *= factor;
        }
        return d;
      });
}

void AsymmetricDelayModel::schedule(const LinkSend& send, Rng& rng,
                                    std::vector<Time>& arrivals) const {
  const LinkDelay d = delays_(send.from, send.to);
  WFD_ENSURE(d.minDelay >= 1 && d.minDelay <= d.maxDelay);
  arrivals.push_back(send.sentAt + rng.between(d.minDelay, d.maxDelay));
}

std::string AsymmetricDelayModel::name() const { return "asymmetric-delay"; }

// ------------------------------------------------------------- ChaosLinkModel

ChaosLinkModel::ChaosLinkModel(std::shared_ptr<const NetworkModel> inner,
                               Config config)
    : inner_(std::move(inner)), config_(std::move(config)) {
  WFD_ENSURE(inner_ != nullptr);
  WFD_ENSURE(config_.dupDen > 0 && config_.dupNum <= config_.dupDen);
  WFD_ENSURE(config_.reorderJitter >= 1);
}

void ChaosLinkModel::schedule(const LinkSend& send, Rng& rng,
                              std::vector<Time>& arrivals) const {
  const std::size_t first = arrivals.size();
  inner_->schedule(send, rng, arrivals);
  if (config_.affects && !config_.affects(send.from, send.to)) return;
  const std::size_t innerCount = arrivals.size() - first;
  for (std::size_t i = 0; i < innerCount; ++i) {
    // Bounded reordering: jitter the copy by up to reorderJitter ticks.
    // Jitter only ever adds delay, so arrivals stay >= sentAt + 1.
    arrivals[first + i] += rng.between(0, config_.reorderJitter);
    if (config_.maxExtraCopies > 0 &&
        rng.chance(config_.dupNum, config_.dupDen)) {
      const std::uint64_t copies = rng.between(1, config_.maxExtraCopies);
      const Time base = arrivals[first + i];
      for (std::uint64_t c = 0; c < copies; ++c) {
        arrivals.push_back(base + rng.between(1, config_.reorderJitter));
      }
    }
  }
}

std::string ChaosLinkModel::name() const {
  return "chaos(dup=" + std::to_string(config_.dupNum) + "/" +
         std::to_string(config_.dupDen) +
         ",jitter=" + std::to_string(config_.reorderJitter) + ") over " +
         inner_->name();
}

}  // namespace wfd
