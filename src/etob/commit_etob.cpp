#include "etob/commit_etob.h"

#include <algorithm>

#include "common/ensure.h"

namespace wfd {
namespace {

/// True iff `prefix` is a prefix of `seq`.
bool isPrefix(const std::vector<MsgId>& prefix, const std::vector<MsgId>& seq) {
  return seq.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), seq.begin());
}

/// Total strength order on commit sequences: longer beats shorter, equal
/// lengths tie-break to the lexicographically smaller id sequence. Every
/// process applies the same rule to every commit it learns, and commits
/// only ever travel by broadcast over reliable links, so all correct
/// processes converge on the same strongest commit — which is what keeps
/// eTOB's eventual agreement alive even in runs outside the §7 proviso
/// where two pre-stabilization leaders managed to commit conflicting
/// prefixes (a schedule wfd_explore finds readily; the previous behaviour
/// of refusing conflicting commits forever deadlocked convergence).
bool strongerCommit(const std::vector<MsgId>& a, const std::vector<MsgId>& b) {
  if (a.size() != b.size()) return a.size() > b.size();
  return a < b;
}

}  // namespace

void CommitEtobAutomaton::onInput(const StepContext&, const Payload& input,
                                  Effects& fx) {
  core_.onInput(input, fx);
}

void CommitEtobAutomaton::onMessage(const StepContext& ctx, ProcessId from,
                                    const Payload& msg, Effects& fx) {
  if (core_.ingestUpdate(msg)) return;
  if (const auto* promote = msg.as<EtobPromoteMsg>()) {
    const PromoteChain* chain = core_.advancePromote(ctx, from, *promote);
    // Commit guard: never adopt a sequence that contradicts what this
    // process already knows to be committed.
    if (chain == nullptr || !isPrefix(committed_, chain->ids)) return;
    core_.adopt(from, *chain, fx);
    // Acknowledge the adoption to the leader (commit machinery).
    fx.send(from, Payload::of(EtobAckMsg{chain->epoch}));
    return;
  }
  if (const auto* ack = msg.as<EtobAckMsg>()) {
    auto seqIt = epochSeq_.find(ack->epoch);
    if (seqIt == epochSeq_.end()) return;  // pruned or never promoted by me
    Promoted& promoted = seqIt->second;
    std::vector<ProcessId>& voters = promoted.voters;
    if (voters.empty()) voters.reserve(ctx.processCount);  // one block per epoch
    if (std::find(voters.begin(), voters.end(), from) == voters.end()) {
      voters.push_back(from);
    }
    const std::size_t majority = ctx.processCount / 2 + 1;
    if (voters.size() < majority) return;
    // The candidate is seq[0, len): what this leader promoted at the
    // acknowledged epoch.
    const std::vector<MsgId>& current = core_.promoteSequence();
    const std::vector<MsgId>& seq = promoted.generation == generation_
                                        ? current
                                        : savedSeqs_.at(promoted.generation);
    const std::size_t len = promoted.length;
    if (len <= committed_.size()) return;  // nothing new
    if (!std::equal(committed_.begin(), committed_.end(), seq.begin())) {
      // Should not happen while this process leads (its own promotes
      // extend its committed prefix); counted for honesty.
      ++commitConflicts_;
      return;
    }
    // Stale-epoch guard: the candidate was promoted when it was this
    // leader's promote sequence, but an adoptCommit in between may have
    // REBASED promote_ into a different order. Committing such a moot
    // snapshot would make committed_ diverge from every future promote —
    // each then refused by the commit guard at every process, this one
    // included, freezing d_i forever (a deadlock wfd_explore shrank to a
    // 5-process run). Only commit candidates the current promote order
    // still stands behind; a current-generation candidate is a prefix of
    // it by construction.
    if (promoted.generation != generation_ &&
        (current.size() < len ||
         !std::equal(seq.begin(), seq.begin() + static_cast<std::ptrdiff_t>(len),
                     current.begin()))) {
      return;
    }
    committed_.insert(committed_.end(),
                      seq.begin() + static_cast<std::ptrdiff_t>(committed_.size()),
                      seq.begin() + static_cast<std::ptrdiff_t>(len));
    std::vector<AppMsg> content;
    content.reserve(committed_.size());
    std::size_t weight = 2;
    for (MsgId id : committed_) {
      const AppMsg* m = core_.findMessage(id);
      WFD_ENSURE_MSG(m != nullptr, "leader promoted a message it cannot name");
      content.push_back(*m);
      weight += 2 + m->body.size();
    }
    fx.broadcast(Payload::of(EtobCommitMsg{std::move(content)}), weight);
    // The indication must describe this process's own delivery sequence;
    // the leader's loopback promote may still be in flight, so align d_i
    // with the committed prefix before indicating.
    if (!isPrefix(committed_, core_.delivered())) core_.deliver(committed_, fx);
    fx.output(Payload::of(CommittedPrefix{committed_.size()}));
    return;
  }
  if (const auto* commit = msg.as<EtobCommitMsg>()) {
    adoptCommit(commit->prefix, fx);
    return;
  }
}

void CommitEtobAutomaton::onTimeout(const StepContext& ctx, Effects& fx) {
  if (!core_.promote(ctx, fx)) return;
  const std::uint64_t epoch = core_.promoteEpoch();
  epochSeq_[epoch] = Promoted{core_.promoteSequence().size(), generation_, {}};
  // Prune acknowledged bookkeeping far behind the committed frontier, its
  // voters with it, and the saved sequences no remaining epoch references
  // (generations grow with epochs).
  while (epochSeq_.begin()->first + 128 < epoch) epochSeq_.erase(epochSeq_.begin());
  const std::uint64_t oldest = epochSeq_.begin()->second.generation;
  while (!savedSeqs_.empty() && savedSeqs_.begin()->first < oldest) {
    savedSeqs_.erase(savedSeqs_.begin());
  }
}

void CommitEtobAutomaton::adoptCommit(const std::vector<AppMsg>& prefix,
                                      Effects& fx) {
  std::vector<MsgId> ids;
  ids.reserve(prefix.size());
  for (const AppMsg& m : prefix) ids.push_back(m.id);
  if (isPrefix(ids, committed_)) return;  // already covered
  if (!isPrefix(committed_, ids)) {
    // Conflicting commit: possible only outside the §7 proviso (two
    // leaders each gathered a majority of stale acknowledgments). Keep
    // the stronger of the two — a deterministic join all processes
    // compute identically — so convergence survives; the local prefix
    // indication is revoked, which is exactly what §7 says cannot be
    // avoided without the proviso.
    ++commitConflicts_;
    if (!strongerCommit(ids, committed_)) return;
  }
  // Learn the content (the committing leader included it) and rebase the
  // local promote sequence onto the committed prefix. Epochs promoted
  // since the last rebase keep the sequence they promoted a prefix of.
  committed_ = std::move(ids);
  if (!epochSeq_.empty() && epochSeq_.rbegin()->second.generation == generation_) {
    savedSeqs_.emplace(generation_, core_.promoteSequence());
  }
  ++generation_;
  core_.rebase(prefix, committed_);
  // The indication is emitted once the local delivery sequence reflects
  // the committed prefix (it may still show an older leader's view).
  if (!isPrefix(committed_, core_.delivered())) core_.deliver(committed_, fx);
  fx.output(Payload::of(CommittedPrefix{committed_.size()}));
}

}  // namespace wfd
