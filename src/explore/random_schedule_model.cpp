#include "explore/random_schedule_model.h"

#include <utility>
#include <vector>

#include "common/ensure.h"
#include "sim/lossy_model.h"

namespace wfd {

namespace {

std::shared_ptr<const NetworkModel> composeFromPlan(const FuzzPlan& plan) {
  const std::size_t n = plan.processCount;
  WFD_ENSURE_MSG(plan.minDelay >= 1 && plan.minDelay <= plan.maxDelay,
                 "RandomScheduleModel: bad delay bounds");

  // Base layer: uniform delays, or per-link slowdown around one process.
  std::shared_ptr<const NetworkModel> stack;
  if (plan.slowLink.process != kNoProcess) {
    WFD_ENSURE(plan.slowLink.process < n && plan.slowLink.factor >= 1);
    stack = AsymmetricDelayModel::slowProcess(plan.minDelay, plan.maxDelay,
                                              plan.slowLink.process,
                                              plan.slowLink.factor);
  } else {
    stack = std::make_shared<UniformDelayModel>(plan.minDelay, plan.maxDelay,
                                                /*fixed=*/false);
  }

  if (plan.chaos.dupNum > 0) {
    ChaosLinkModel::Config chaos;
    chaos.dupNum = plan.chaos.dupNum;
    chaos.dupDen = plan.chaos.dupDen;
    chaos.maxExtraCopies = plan.chaos.maxExtraCopies;
    chaos.reorderJitter = plan.chaos.reorderJitter;
    if (plan.chaos.onlyTouching != kNoProcess) {
      WFD_ENSURE(plan.chaos.onlyTouching < n);
      const ProcessId hub = plan.chaos.onlyTouching;
      chaos.affects = [hub](ProcessId from, ProcessId to) {
        return from == hub || to == hub;
      };
    }
    stack = std::make_shared<ChaosLinkModel>(std::move(stack), chaos);
  }

  if (!plan.skews.empty()) {
    WFD_ENSURE_MSG(plan.skews.size() == n,
                   "RandomScheduleModel: skew list size != processCount");
    std::vector<ClockSkewModel::Skew> skews;
    skews.reserve(n);
    for (const PlanSkew& s : plan.skews) {
      WFD_ENSURE(s.num >= 1 && s.den >= 1);
      skews.push_back(ClockSkewModel::Skew{s.num, s.den});
    }
    stack = std::make_shared<ClockSkewModel>(std::move(stack), std::move(skews));
  }

  // Lossy layers (PR-9) sit between clock skew and partitions, matching
  // the canonical rank order (partitions > lossy > skew > chaos > base):
  // drop decisions key on post-skew arrival times, and partitions defer
  // the copies that survived the loss draw. Innermost-to-outermost:
  // iid, Gilbert–Elliott bursts, one-way cut.
  if (plan.loss.lossNum > 0) {
    IidLossModel::Config loss;
    loss.num = plan.loss.lossNum;
    loss.den = plan.loss.lossDen;
    loss.activeUntil = plan.loss.activeUntil;
    stack = std::make_shared<IidLossModel>(std::move(stack), loss);
  }
  if (plan.loss.burstPeriod > 0) {
    GilbertElliottLossModel::Config ge;
    ge.framePeriod = plan.loss.burstPeriod;
    ge.burstLen = plan.loss.burstLen;
    ge.seed = plan.simSeed;
    ge.activeUntil = plan.loss.activeUntil;
    stack = std::make_shared<GilbertElliottLossModel>(std::move(stack), ge);
  }
  if (plan.loss.oneWayFrom != kNoProcess) {
    WFD_ENSURE(plan.loss.oneWayFrom < n);
    OutageSpec cut;
    cut.from = plan.loss.oneWayFrom;
    cut.start = plan.loss.oneWayStart;
    cut.width = plan.loss.oneWayWidth;
    cut.period = plan.loss.oneWayPeriod;
    stack = std::make_shared<OneWayOutageModel>(
        std::move(stack), std::vector<OutageSpec>{cut});
  }

  if (!plan.partitions.empty()) {
    std::vector<PartitionSpec> specs;
    specs.reserve(plan.partitions.size());
    for (const PlanPartition& p : plan.partitions) {
      WFD_ENSURE_MSG(p.width >= 1 && (p.period == 0 || p.period > p.width),
                     "RandomScheduleModel: partition never heals");
      PartitionSpec spec;
      spec.start = p.start;
      spec.width = p.width;
      spec.period = p.period;
      if (p.isolate != kNoProcess) {
        WFD_ENSURE(p.isolate < n);
        const ProcessId victim = p.isolate;
        spec.affects = [victim](ProcessId from, ProcessId to) {
          return from == victim || to == victim;
        };
      }
      specs.push_back(std::move(spec));
    }
    stack = std::make_shared<PartitionModel>(std::move(stack), std::move(specs));
  }

  return stack;
}

}  // namespace

RandomScheduleModel::RandomScheduleModel(const FuzzPlan& plan)
    : inner_(composeFromPlan(plan)) {
  ensureCanonicalComposition(*inner_);
}

void RandomScheduleModel::schedule(const LinkSend& send, Rng& rng,
                                   std::vector<Time>& arrivals) const {
  inner_->schedule(send, rng, arrivals);
}

Time RandomScheduleModel::lambdaPeriod(ProcessId p, Time basePeriod) const {
  return inner_->lambdaPeriod(p, basePeriod);
}

bool RandomScheduleModel::mayDrop() const { return inner_->mayDrop(); }

int RandomScheduleModel::compositionRank() const {
  return inner_->compositionRank();
}

const NetworkModel* RandomScheduleModel::innerModel() const {
  return inner_->innerModel();
}

std::string RandomScheduleModel::name() const {
  return "random[" + inner_->name() + "]";
}

}  // namespace wfd
