// Shared helpers for the experiment benches: table printing and the
// facade-backed cluster builders used across E1..E11.
//
// Benches no longer hand-roll simulator setup: each builder lowers a
// named catalog entry (src/scenario/catalog.cpp) to a ClusterSpec and
// applies the bench's swept knobs (config, pattern, tau_Omega,
// pre-stabilization mode, workload) — the "scenario variant" idiom
// documented in docs/SCENARIOS.md, now expressed through the wfd::Cluster
// facade (docs/API.md). The bench's workload replaces the catalog
// entry's in the spec, so the cluster schedules it at construction.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "common/ensure.h"
#include "scenario/scenario.h"

namespace wfd::bench {

/// Prints a fixed-width row. Columns sized by the header call.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int colWidth = 14)
      : width_(colWidth), cols_(headers.size()) {
    std::string line;
    for (const auto& h : headers) line += pad(h);
    std::printf("%s\n", line.c_str());
    std::printf("%s\n", std::string(width_ * cols_, '-').c_str());
  }

  void row(const std::vector<std::string>& cells) {
    std::string line;
    for (const auto& c : cells) line += pad(c);
    std::printf("%s\n", line.c_str());
  }

 private:
  std::string pad(const std::string& s) const {
    std::string out = s;
    if (out.size() < static_cast<std::size_t>(width_)) {
      out += std::string(width_ - out.size(), ' ');
    }
    return out + " ";
  }
  int width_;
  std::size_t cols_;
};

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Workload argument of a bench that schedules no broadcast workload.
inline constexpr BroadcastWorkload kNoWorkload{.perProcess = 0};

/// Cluster for a variant of catalog entry `base` with the bench's knobs
/// applied, seeded with cfg.seed. The variant keeps the entry's stack
/// but pins the bench's exact config, pattern, Omega parameters and
/// workload, and uses the uniform network from the config.
inline Cluster makeScenarioCluster(const std::string& base, SimConfig cfg,
                                   FailurePattern fp, Time tauOmega,
                                   OmegaPreStabilization mode,
                                   const BroadcastWorkload& workload) {
  const Scenario* found = findScenario(base);
  WFD_ENSURE_MSG(found != nullptr, "unknown catalog scenario");
  ClusterSpec spec = clusterSpec(*found);
  spec.config = cfg;
  spec.pattern = [fp = std::move(fp)](std::size_t) { return fp; };
  spec.tauOmega = tauOmega;
  spec.omegaMode = mode;
  // A custom detector factory on the base entry would silently win over
  // the tauOmega/mode arguments (the cluster only consults them when
  // detector is null) — clear it so the bench's knobs always apply.
  spec.detector = nullptr;
  spec.network = nullptr;  // uniform delay from the bench's config
  spec.workload = workload;
  return Cluster(std::move(spec), cfg.seed);
}

/// ETOB cluster (Algorithm 5): variant of the "split-brain-heal" entry.
inline Cluster makeEtobCluster(SimConfig cfg, FailurePattern fp, Time tauOmega,
                               OmegaPreStabilization mode,
                               const BroadcastWorkload& workload) {
  return makeScenarioCluster("split-brain-heal", cfg, std::move(fp), tauOmega,
                             mode, workload);
}

/// TOB-via-consensus cluster: variant of the "tob-baseline-stable" entry.
inline Cluster makeTobCluster(SimConfig cfg, FailurePattern fp, Time tauOmega,
                              OmegaPreStabilization mode,
                              const BroadcastWorkload& workload) {
  return makeScenarioCluster("tob-baseline-stable", cfg, std::move(fp),
                             tauOmega, mode, workload);
}

}  // namespace wfd::bench
