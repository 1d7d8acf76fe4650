#include "checkers/tob_checker.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/ensure.h"

namespace wfd {
namespace {

/// Position of each id in one sequence at a time: an open-addressing
/// table that indexing the next sequence reuses, so the checker indexes
/// every stored d_i snapshot of a run with no allocation beyond the one
/// that sizes the table for the longest.
class PositionIndex {
 public:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// Empties the index and sizes it for up to `n` ids.
  void reset(std::size_t n) {
    const std::size_t size = std::bit_ceil(std::max<std::size_t>(2 * n, 8));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    slots_.assign(size, Slot{0, kAbsent});  // keeps the capacity
  }
  /// Records `id` at `pos` unless it is present; false if it was.
  bool insert(MsgId id, std::size_t pos) {
    Slot& slot = slots_[slotOf(id)];
    if (slot.pos != kAbsent) return false;
    slot = Slot{id, pos};
    return true;
  }
  /// Indexes `seq`; a repeated id keeps its first position.
  void assign(const std::vector<MsgId>& seq) {
    reset(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) insert(seq[i], i);
  }
  /// Position of `id`, or kAbsent.
  std::size_t find(MsgId id) const { return slots_[slotOf(id)].pos; }

 private:
  struct Slot {
    MsgId id;
    std::size_t pos;  // kAbsent: empty slot
  };

  /// The slot holding `id`, or the empty slot where it would go
  /// (Fibonacci hashing, linear probing). The table is at most half
  /// full, so a probe ends.
  std::size_t slotOf(MsgId id) const {
    const std::size_t mask = slots_.size() - 1;
    auto i = static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (slots_[i].pos != kAbsent && slots_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 64;
};

/// True iff the relative order of messages common to a and b agrees.
/// `bIdx` is reused between calls; it is left indexing b.
bool orderConsistent(const std::vector<MsgId>& a, const std::vector<MsgId>& b,
                     PositionIndex& bIdx) {
  bIdx.assign(b);
  std::size_t lastB = 0;
  bool first = true;
  for (MsgId id : a) {
    const std::size_t pos = bIdx.find(id);
    if (pos == PositionIndex::kAbsent) continue;
    if (!first && pos <= lastB) return false;
    lastB = pos;
    first = false;
  }
  return true;
}

/// Memoized transitive causal ancestors per message (declared deps only).
class CausalClosure {
 public:
  explicit CausalClosure(const BroadcastLog& log) : log_(log) {}

  const std::unordered_set<MsgId>& ancestors(MsgId id) {
    auto it = memo_.find(id);
    if (it != memo_.end()) return it->second;
    std::unordered_set<MsgId> anc;
    const BroadcastRecord* rec = log_.find(id);
    if (rec != nullptr) {
      for (MsgId dep : rec->deps) {
        anc.insert(dep);
        const auto& up = ancestors(dep);
        anc.insert(up.begin(), up.end());
      }
    }
    return memo_.emplace(id, std::move(anc)).first->second;
  }

 private:
  const BroadcastLog& log_;
  std::unordered_map<MsgId, std::unordered_set<MsgId>> memo_;
};

}  // namespace

BroadcastCheckReport checkBroadcastRun(const Trace& trace, const BroadcastLog& log,
                                       const FailurePattern& pattern) {
  WFD_ENSURE_MSG(trace.keepsSnapshots(),
                 "checkBroadcastRun needs a trace that keeps d_i snapshots");
  BroadcastCheckReport report;
  const std::vector<ProcessId> correct = pattern.correctSet();
  auto fail = [&report](bool& flag, const std::string& msg) {
    flag = false;
    report.errors.push_back(msg);
  };

  // TOB-Validity: every message broadcast by a correct process is in that
  // process's final delivery sequence.
  for (MsgId id : log.ids()) {
    const BroadcastRecord* rec = log.find(id);
    if (!pattern.correct(rec->origin)) continue;
    const auto& final = trace.currentDelivered(rec->origin);
    if (std::find(final.begin(), final.end(), id) == final.end()) {
      std::ostringstream os;
      os << "validity: message " << id << " broadcast by correct p" << rec->origin
         << " missing from its final d_i";
      fail(report.validityOk, os.str());
    }
  }

  // TOB-Agreement: a message in the final sequence of one correct process
  // must be in the final sequence of every correct process.
  for (ProcessId p : correct) {
    for (MsgId id : trace.currentDelivered(p)) {
      for (ProcessId q : correct) {
        const auto& fq = trace.currentDelivered(q);
        if (std::find(fq.begin(), fq.end(), id) == fq.end()) {
          std::ostringstream os;
          os << "agreement: message " << id << " delivered at p" << p
             << " but not at p" << q;
          fail(report.agreementOk, os.str());
        }
      }
    }
  }

  // TOB-No-creation / TOB-No-duplication over every observed snapshot.
  PositionIndex idx;
  for (ProcessId p : correct) {
    for (const DeliverySnapshot& snap : trace.deliverySnapshots(p)) {
      idx.reset(snap.seq.size());
      for (std::size_t i = 0; i < snap.seq.size(); ++i) {
        const MsgId id = snap.seq[i];
        const BroadcastRecord* rec = log.find(id);
        if (rec == nullptr) {
          std::ostringstream os;
          os << "no-creation: unknown message " << id << " in d_" << p;
          fail(report.noCreationOk, os.str());
        } else if (rec->broadcastAt > snap.time) {
          std::ostringstream os;
          os << "no-creation: message " << id << " delivered at " << snap.time
             << " before its broadcast at " << rec->broadcastAt;
          fail(report.noCreationOk, os.str());
        }
        if (!idx.insert(id, i)) {
          std::ostringstream os;
          os << "no-duplication: message " << id << " appears twice in d_" << p;
          fail(report.noDuplicationOk, os.str());
        }
      }
    }
  }

  // ETOB-Stability witness: last prefix violation over correct processes.
  Time lastStabilityViolation = 0;
  for (ProcessId p : correct) {
    lastStabilityViolation =
        std::max(lastStabilityViolation, trace.lastPrefixViolation(p));
  }
  report.tauStability = lastStabilityViolation == 0 ? 0 : lastStabilityViolation + 1;

  // ETOB-Total-order witness: replay the merged snapshot timeline and find
  // the last moment two correct processes ordered common messages
  // differently.
  struct TimedSnap {
    Time time;
    ProcessId p;
    const std::vector<MsgId>* seq;
  };
  std::vector<TimedSnap> timeline;
  for (ProcessId p : correct) {
    for (const DeliverySnapshot& snap : trace.deliverySnapshots(p)) {
      timeline.push_back(TimedSnap{snap.time, p, &snap.seq});
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const TimedSnap& a, const TimedSnap& b) { return a.time < b.time; });
  std::unordered_map<ProcessId, const std::vector<MsgId>*> current;
  Time lastOrderViolation = 0;
  for (const TimedSnap& snap : timeline) {
    current[snap.p] = snap.seq;
    for (const auto& [q, seq] : current) {
      if (q == snap.p) continue;
      if (!orderConsistent(*snap.seq, *seq, idx)) {
        lastOrderViolation = std::max(lastOrderViolation, snap.time);
      }
    }
  }
  report.tauTotalOrder = lastOrderViolation == 0 ? 0 : lastOrderViolation + 1;
  report.tau = std::max(report.tauStability, report.tauTotalOrder);

  // TOB-Causal-Order: in every snapshot, every declared (transitive)
  // dependency present in the sequence appears before its dependent.
  CausalClosure closure(log);
  for (ProcessId p : correct) {
    for (const DeliverySnapshot& snap : trace.deliverySnapshots(p)) {
      idx.assign(snap.seq);
      for (std::size_t i = 0; i < snap.seq.size(); ++i) {
        for (MsgId dep : closure.ancestors(snap.seq[i])) {
          const std::size_t pos = idx.find(dep);
          if (pos != PositionIndex::kAbsent && pos > i) {
            std::ostringstream os;
            os << "causal-order: " << snap.seq[i] << " precedes its dependency "
               << dep << " in d_" << p << " at t=" << snap.time;
            fail(report.causalOrderOk, os.str());
          }
        }
      }
    }
  }

  return report;
}

}  // namespace wfd
