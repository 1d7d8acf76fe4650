#include "sim/lossy_model.h"

#include <algorithm>
#include <cstdint>

#include "common/ensure.h"
#include "common/hash.h"

namespace wfd {

namespace {

/// Compacts the suffix [first, end) of `arrivals`, keeping only entries
/// for which `keep` returns true. `keep` is invoked exactly once per
/// copy, IN ORDER — the per-copy rng draw sequence is part of the
/// model's deterministic identity.
template <typename KeepFn>
void filterSuffix(std::vector<Time>& arrivals, std::size_t first,
                  KeepFn&& keep) {
  std::size_t out = first;
  for (std::size_t i = first; i < arrivals.size(); ++i) {
    if (keep(arrivals[i])) arrivals[out++] = arrivals[i];
  }
  arrivals.resize(out);
}

}  // namespace

// --------------------------------------------------------------- IidLossModel

IidLossModel::IidLossModel(std::shared_ptr<const NetworkModel> inner,
                           Config config)
    : inner_(std::move(inner)), config_(std::move(config)) {
  WFD_ENSURE(inner_ != nullptr);
  WFD_ENSURE_MSG(config_.den > 0 && config_.num <= config_.den,
                 "iid loss rate must be a probability");
  WFD_ENSURE_MSG(config_.num * 4 <= config_.den,
                 "iid loss rate above 25% starves fair-lossy fairness in "
                 "practice; use bursts for heavier loss");
}

void IidLossModel::schedule(const LinkSend& send, Rng& rng,
                            std::vector<Time>& arrivals) const {
  const std::size_t first = arrivals.size();
  inner_->schedule(send, rng, arrivals);
  // Rate 0 makes ZERO draws: the model stays a pure pass-through at the
  // draw-sequence level, which the loss=0 ≡ legacy differential relies on.
  if (config_.num == 0) return;
  filterSuffix(arrivals, first, [&](Time at) {
    if (config_.activeUntil != 0 && at >= config_.activeUntil) return true;
    return !rng.chance(config_.num, config_.den);
  });
}

std::string IidLossModel::name() const {
  return "iid-loss(" + std::to_string(config_.num) + "/" +
         std::to_string(config_.den) + ") over " + inner_->name();
}

// ---------------------------------------------------- GilbertElliottLossModel

GilbertElliottLossModel::GilbertElliottLossModel(
    std::shared_ptr<const NetworkModel> inner, Config config)
    : inner_(std::move(inner)), config_(config) {
  WFD_ENSURE(inner_ != nullptr);
  WFD_ENSURE(config_.framePeriod >= 1);
  WFD_ENSURE_MSG(config_.burstLen >= 1 && config_.burstLen <= config_.framePeriod,
                 "burst must fit inside its frame");
  WFD_ENSURE(config_.burstDen > 0 && config_.burstNum <= config_.burstDen);
  WFD_ENSURE(config_.dropInDen > 0 && config_.dropInNum <= config_.dropInDen);
  WFD_ENSURE(config_.dropOutDen > 0 &&
             config_.dropOutNum <= config_.dropOutDen);
}

std::pair<Time, Time> GilbertElliottLossModel::frameWindow(
    std::uint64_t frame, ProcessId from, ProcessId to) const {
  // Hash-derived renewal schedule: a pure function of (seed, frame, link)
  // so the shared const model gives every run — and the failure
  // detectors via burstWindowsUpTo — the same bursts.
  const std::uint64_t linkKey =
      config_.correlated
          ? 0
          : (static_cast<std::uint64_t>(from) * 0x10001ULL) ^
                (static_cast<std::uint64_t>(to) * 0x101ULL);
  const std::uint64_t h =
      splitmix64(config_.seed ^ splitmix64(frame + 1) ^ linkKey);
  if (h % config_.burstDen >= config_.burstNum) return {0, 0};
  const std::uint64_t h2 = splitmix64(h ^ 0x9e3779b97f4a7c15ULL);
  const Time slack = config_.framePeriod - config_.burstLen;
  const Time offset = slack == 0 ? 0 : static_cast<Time>(h2 % (slack + 1));
  const Time begin = frame * config_.framePeriod + offset;
  return {begin, begin + config_.burstLen};
}

bool GilbertElliottLossModel::inBurst(Time at, ProcessId from,
                                      ProcessId to) const {
  const auto w = frameWindow(at / config_.framePeriod, from, to);
  return at >= w.first && at < w.second;
}

std::vector<std::pair<Time, Time>> GilbertElliottLossModel::burstWindowsUpTo(
    Time horizon, ProcessId from, ProcessId to) const {
  std::vector<std::pair<Time, Time>> windows;
  const Time clip =
      config_.activeUntil == 0 ? horizon : std::min(horizon, config_.activeUntil);
  for (std::uint64_t frame = 0; frame * config_.framePeriod < clip; ++frame) {
    auto w = frameWindow(frame, from, to);
    if (w.second <= w.first) continue;
    if (w.first >= clip) continue;
    w.second = std::min(w.second, clip);
    windows.push_back(w);
  }
  return windows;
}

void GilbertElliottLossModel::schedule(const LinkSend& send, Rng& rng,
                                       std::vector<Time>& arrivals) const {
  const std::size_t first = arrivals.size();
  inner_->schedule(send, rng, arrivals);
  filterSuffix(arrivals, first, [&](Time at) {
    if (config_.activeUntil != 0 && at >= config_.activeUntil) return true;
    const bool bad = inBurst(at, send.from, send.to);
    const std::uint32_t num = bad ? config_.dropInNum : config_.dropOutNum;
    const std::uint32_t den = bad ? config_.dropInDen : config_.dropOutDen;
    if (num == 0) return true;  // no draw in the lossless state
    return !rng.chance(num, den);
  });
}

std::string GilbertElliottLossModel::name() const {
  return "ge-loss(frame=" + std::to_string(config_.framePeriod) +
         ",burst=" + std::to_string(config_.burstLen) + ",in=" +
         std::to_string(config_.dropInNum) + "/" +
         std::to_string(config_.dropInDen) + ") over " + inner_->name();
}

// ------------------------------------------------------------ OneWayOutageModel

bool OutageSpec::drops(ProcessId f, ProcessId t, Time at) const {
  if (from != kNoProcess && f != from) return false;
  if (to != kNoProcess && t != to) return false;
  if (at < start) return false;
  if (period == 0) return at < start + width;
  return (at - start) % period < width;
}

OneWayOutageModel::OneWayOutageModel(std::shared_ptr<const NetworkModel> inner,
                                     std::vector<OutageSpec> specs)
    : inner_(std::move(inner)), specs_(std::move(specs)) {
  WFD_ENSURE(inner_ != nullptr);
  WFD_ENSURE_MSG(!specs_.empty(), "outage model needs at least one spec");
  for (const OutageSpec& spec : specs_) {
    WFD_ENSURE_MSG(spec.width >= 1, "outage window must have width >= 1");
    WFD_ENSURE_MSG(spec.period == 0 || spec.period > spec.width,
                   "recurring outage must leave a delivery gap each period");
  }
}

void OneWayOutageModel::schedule(const LinkSend& send, Rng& rng,
                                 std::vector<Time>& arrivals) const {
  const std::size_t first = arrivals.size();
  inner_->schedule(send, rng, arrivals);
  // Deterministic: no rng draws, purely a function of the arrival times.
  filterSuffix(arrivals, first, [&](Time at) {
    for (const OutageSpec& spec : specs_) {
      if (spec.drops(send.from, send.to, at)) return false;
    }
    return true;
  });
}

std::string OneWayOutageModel::name() const {
  return "one-way-outage(" + std::to_string(specs_.size()) + " specs) over " +
         inner_->name();
}

// ------------------------------------------------------------ GrayFailureModel

GrayFailureModel::GrayFailureModel(std::shared_ptr<const NetworkModel> inner,
                                   Config config)
    : inner_(std::move(inner)), config_(config) {
  WFD_ENSURE(inner_ != nullptr);
  WFD_ENSURE(config_.process != kNoProcess);
  WFD_ENSURE(config_.delayNum >= 1 && config_.delayDen >= 1);
  WFD_ENSURE_MSG(config_.delayNum >= config_.delayDen,
                 "gray failure inflates delay (factor >= 1)");
  WFD_ENSURE(config_.lossDen > 0 && config_.lossNum <= config_.lossDen);
  WFD_ENSURE_MSG(config_.lossNum * 4 <= config_.lossDen,
                 "gray-failure loss is mild by definition (<= 25%)");
}

void GrayFailureModel::schedule(const LinkSend& send, Rng& rng,
                                std::vector<Time>& arrivals) const {
  const std::size_t first = arrivals.size();
  inner_->schedule(send, rng, arrivals);
  if (send.from != config_.process && send.to != config_.process) return;
  // Inflate first (keyed on the tentative arrival), then sample the mild
  // loss at the inflated arrival time.
  for (std::size_t i = first; i < arrivals.size(); ++i) {
    const Time at = arrivals[i];
    if (config_.activeUntil != 0 && at >= config_.activeUntil) continue;
    const Time delay = at - send.sentAt;
    const Time inflated =
        std::max<Time>(1, delay * config_.delayNum / config_.delayDen);
    arrivals[i] = send.sentAt + inflated;
  }
  if (config_.lossNum == 0) return;
  filterSuffix(arrivals, first, [&](Time at) {
    if (config_.activeUntil != 0 && at >= config_.activeUntil) return true;
    return !rng.chance(config_.lossNum, config_.lossDen);
  });
}

std::string GrayFailureModel::name() const {
  return "gray-failure(p=" + std::to_string(config_.process) + ",delay=" +
         std::to_string(config_.delayNum) + "/" +
         std::to_string(config_.delayDen) + ") over " + inner_->name();
}

}  // namespace wfd
