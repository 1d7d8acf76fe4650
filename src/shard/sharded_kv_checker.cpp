#include "shard/sharded_kv_checker.h"

#include <map>
#include <utility>

#include "checkers/trace_digest.h"

namespace wfd {

ShardedKvReport checkShardedKvRun(const std::vector<RouterOp>& ops) {
  ShardedKvReport report;

  // Index puts by (key, value) — unique per the workload contract.
  std::map<std::pair<std::uint64_t, std::uint64_t>, const RouterOp*> puts;
  for (const RouterOp& op : ops) {
    if (op.kind != RouterOp::Kind::kPut) continue;
    ++report.puts;
    if (op.committed) ++report.committedPuts;
    const auto key = std::make_pair(op.key, op.value);
    if (!puts.emplace(key, &op).second) {
      report.errors.push_back("duplicate put (key " + std::to_string(op.key) +
                              ", value " + std::to_string(op.value) +
                              ") — ambiguous workload");
    }
  }
  if (!report.errors.empty()) return report;

  // lastGet[(key, shard)] -> (version, value) of the latest get.
  std::map<std::pair<std::uint64_t, std::size_t>,
           std::pair<std::uint64_t, std::uint64_t>>
      lastGet;
  for (const RouterOp& op : ops) {
    if (op.kind != RouterOp::Kind::kGet) continue;
    ++report.gets;

    if (op.hasValue) {
      ++report.successfulGets;
      const auto it = puts.find({op.key, op.value});
      const RouterOp* writer = it == puts.end() ? nullptr : it->second;
      if (writer == nullptr || writer->shard != op.shard ||
          !writer->committed || writer->commitTime > op.time) {
        ++report.uncommittedReads;
        if (report.errors.size() < 8) {
          report.errors.push_back(
              "get(key " + std::to_string(op.key) + ") at t=" +
              std::to_string(op.time) + " on shard " +
              std::to_string(op.shard) + " returned " +
              std::to_string(op.value) +
              ", which no same-shard committed put wrote by then");
        }
      }
    } else {
      // read-your-writes: a write this router already saw commit on this
      // shard (strictly earlier — same-tick resolution order is not
      // observable from the log) must be visible.
      for (const auto& [kv, writer] : puts) {
        if (kv.first == op.key && writer->shard == op.shard &&
            writer->committed && writer->commitTime < op.time) {
          ++report.staleReads;
          if (report.errors.size() < 8) {
            report.errors.push_back(
                "get(key " + std::to_string(op.key) + ") at t=" +
                std::to_string(op.time) + " on shard " +
                std::to_string(op.shard) +
                " found nothing despite a commit observed at t=" +
                std::to_string(writer->commitTime));
          }
          break;
        }
      }
    }

    const auto slot = std::make_pair(op.key, op.shard);
    const auto prev = lastGet.find(slot);
    if (prev != lastGet.end()) {
      const auto [prevVersion, prevValue] = prev->second;
      const bool regressed =
          op.version < prevVersion ||
          (op.version == prevVersion && op.hasValue &&
           prevVersion > 0 && op.value != prevValue);
      if (regressed) {
        ++report.monotonicityViolations;
        if (report.errors.size() < 8) {
          report.errors.push_back(
              "get(key " + std::to_string(op.key) + ") on shard " +
              std::to_string(op.shard) + " regressed from version " +
              std::to_string(prevVersion) + " to " +
              std::to_string(op.version));
        }
      }
    }
    lastGet[slot] = {op.version, op.value};
  }
  return report;
}

std::uint64_t shardedRunDigest(const ShardedService& service,
                               const ShardRouter& router) {
  TraceHasher h;
  for (std::size_t s = 0; s < service.shardCount(); ++s) {
    h.mix(traceDigest(service.shard(s).sim().trace()));
  }
  for (const RouterOp& op : router.ops()) {
    h.mix(static_cast<std::uint64_t>(op.kind));
    h.mix(op.key);
    h.mix(op.hasValue ? op.value : ~0ULL);
    h.mix(op.shard);
    h.mix(op.version);
  }
  return h.digest();
}

}  // namespace wfd
