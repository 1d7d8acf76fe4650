#include "checkers/commit_checker.h"

#include <algorithm>
#include <sstream>

#include "common/ensure.h"
#include "etob/commit_etob.h"

namespace wfd {

CommitCheckReport checkCommitSafety(const Trace& trace,
                                    const FailurePattern& pattern) {
  WFD_ENSURE_MSG(trace.keepsSnapshots(),
                 "checkCommitSafety needs a trace that keeps d_i snapshots");
  CommitCheckReport report;
  std::uint64_t minFinalLen = 0;
  bool sawAny = false;

  for (ProcessId p = 0; p < trace.processCount(); ++p) {
    if (!pattern.correct(p)) continue;
    const auto& snapshots = trace.deliverySnapshots(p);
    std::uint64_t lastLen = 0;

    for (const OutputEvent& ev : trace.outputs(p)) {
      const auto* commit = ev.value.as<CommittedPrefix>();
      if (commit == nullptr) continue;
      ++report.indications;
      lastLen = std::max(lastLen, commit->length);

      // d_i at indication time: last snapshot RECORDED before the
      // indication. Ordering is by the per-process record order, not the
      // timestamp — several records share one simulated time within a
      // step (the automaton aligns d_i and then indicates at the same t),
      // and ordering by time alone would compare the indication against
      // the pre-alignment snapshot, flagging phantom revocations.
      const std::vector<MsgId>* at = nullptr;
      for (const DeliverySnapshot& snap : snapshots) {
        if (snap.order <= ev.order) {
          at = &snap.seq;
        } else {
          break;
        }
      }
      if (at == nullptr || at->size() < commit->length) {
        std::ostringstream os;
        os << "commit: p" << p << " indicated length " << commit->length
           << " at t=" << ev.time << " but d_i was shorter";
        report.errors.push_back(os.str());
        ++report.revokedCommits;
        continue;
      }
      const std::vector<MsgId> prefix(at->begin(), at->begin() + commit->length);
      // Every snapshot recorded after the indication must preserve the
      // prefix verbatim.
      for (const DeliverySnapshot& snap : snapshots) {
        if (snap.order < ev.order) continue;
        const bool ok =
            snap.seq.size() >= prefix.size() &&
            std::equal(prefix.begin(), prefix.end(), snap.seq.begin());
        if (!ok) {
          std::ostringstream os;
          os << "commit: prefix of length " << commit->length << " committed at p"
             << p << " (t=" << ev.time << ") changed at t=" << snap.time;
          report.errors.push_back(os.str());
          ++report.revokedCommits;
          break;
        }
      }
    }
    if (lastLen > 0) {
      minFinalLen = sawAny ? std::min(minFinalLen, lastLen) : lastLen;
      sawAny = true;
    }
  }
  report.committedLenAllCorrect = sawAny ? minFinalLen : 0;
  return report;
}

}  // namespace wfd
