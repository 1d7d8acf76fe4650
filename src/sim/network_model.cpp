#include "sim/network_model.h"

#include <algorithm>
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
                       ") — decorators must be stacked partitions > lossy > "
                       "clock-skew > chaos > base, outermost first");
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

// ------------------------------------------------------------- PartitionModel

namespace {

/// Deferral point of `at` under one spec; `at` itself if outside windows.
Time deferOnce(const PartitionSpec& s, ProcessId from, ProcessId to, Time at) {
  if (!s.cuts(from, to)) return at;
  if (s.period == 0) {
    return (at >= s.start && at < s.start + s.width) ? s.start + s.width : at;
  }
  if (at < s.start) return at;
  const Time phase = (at - s.start) % s.period;
  return phase < s.width ? at + (s.width - phase) : at;
}

}  // namespace

Time deferPastPartitions(const std::vector<PartitionSpec>& specs,
                         ProcessId from, ProcessId to, Time at) {
  // Windows of different specs may chain; iterate to a fixed point. Each
  // pass that moves strictly advances time past some window, so for any
  // admissible spec set (every link sees gaps) this converges in a few
  // passes. Spec sets whose windows jointly cover all time on a link
  // would iterate forever — that is a dropped message in disguise, so
  // the pass bound turns it into an invariant error instead of a hang.
  std::size_t passes = 0;
  bool moved = true;
  while (moved) {
    WFD_ENSURE_MSG(++passes <= 1000,
                   "partition specs jointly cover all time on a link "
                   "(message would never be delivered)");
    moved = false;
    for (const PartitionSpec& s : specs) {
      const Time deferred = deferOnce(s, from, to, at);
      if (deferred != at) {
        at = deferred;
        moved = true;
      }
    }
  }
  return at;
}

PartitionModel::PartitionModel(std::shared_ptr<const NetworkModel> inner,
                               std::vector<PartitionSpec> specs)
    : inner_(std::move(inner)), specs_(std::move(specs)) {
  WFD_ENSURE(inner_ != nullptr);
  for (const PartitionSpec& s : specs_) {
    WFD_ENSURE(s.width >= 1);
    // Recurring windows must leave a gap, or deferral would chase the
    // window forever and delivery would never happen (inadmissible).
    WFD_ENSURE(s.period == 0 || s.width < s.period);
  }
}

void PartitionModel::schedule(const LinkSend& send, Rng& rng,
                              std::vector<Time>& arrivals) const {
  const std::size_t first = arrivals.size();
  inner_->schedule(send, rng, arrivals);
  for (std::size_t i = first; i < arrivals.size(); ++i) {
    arrivals[i] = deferPastPartitions(specs_, send.from, send.to, arrivals[i]);
  }
}

Time PartitionModel::lambdaPeriod(ProcessId p, Time basePeriod) const {
  return inner_->lambdaPeriod(p, basePeriod);
}

std::string PartitionModel::name() const {
  return "partition(" + std::to_string(specs_.size()) + " specs) over " +
         inner_->name();
}

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

Time ChaosLinkModel::lambdaPeriod(ProcessId p, Time basePeriod) const {
  return inner_->lambdaPeriod(p, basePeriod);
}

std::string ChaosLinkModel::name() const {
  return "chaos(dup=" + std::to_string(config_.dupNum) + "/" +
         std::to_string(config_.dupDen) +
         ",jitter=" + std::to_string(config_.reorderJitter) + ") over " +
         inner_->name();
}

// ------------------------------------------------------------- ClockSkewModel

ClockSkewModel::ClockSkewModel(std::shared_ptr<const NetworkModel> inner,
                               std::vector<Skew> perProcess)
    : inner_(std::move(inner)), skews_(std::move(perProcess)) {
  WFD_ENSURE(inner_ != nullptr);
  for (const Skew& s : skews_) WFD_ENSURE(s.num >= 1 && s.den >= 1);
}

std::shared_ptr<ClockSkewModel> ClockSkewModel::spread(
    std::shared_ptr<const NetworkModel> inner, std::size_t processCount,
    Skew slowest, Skew fastest) {
  WFD_ENSURE(processCount >= 2);
  // Interpolate the scale factor linearly in integer per-mille so the
  // spread is exact and platform-independent.
  const std::int64_t lo =
      static_cast<std::int64_t>(slowest.num * 1000 / slowest.den);
  const std::int64_t hi =
      static_cast<std::int64_t>(fastest.num * 1000 / fastest.den);
  std::vector<Skew> skews(processCount);
  for (std::size_t p = 0; p < processCount; ++p) {
    const std::int64_t permille =
        lo + (hi - lo) * static_cast<std::int64_t>(p) /
                 static_cast<std::int64_t>(processCount - 1);
    skews[p] = Skew{static_cast<std::uint64_t>(std::max<std::int64_t>(permille, 1)),
                    1000};
  }
  return std::make_shared<ClockSkewModel>(std::move(inner), std::move(skews));
}

void ClockSkewModel::schedule(const LinkSend& send, Rng& rng,
                              std::vector<Time>& arrivals) const {
  inner_->schedule(send, rng, arrivals);
}

Time ClockSkewModel::lambdaPeriod(ProcessId p, Time basePeriod) const {
  const Time base = inner_->lambdaPeriod(p, basePeriod);
  if (p >= skews_.size()) return base;
  const Skew& s = skews_[p];
  return std::max<Time>(base * s.num / s.den, 1);
}

std::string ClockSkewModel::name() const {
  return "clock-skew over " + inner_->name();
}

}  // namespace wfd
