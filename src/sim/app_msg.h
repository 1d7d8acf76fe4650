// Application-level broadcast vocabulary shared by every total-order
// broadcast implementation (strong TOB baseline, ETOB, transformations).
//
// The broadcast problem's inputs are application messages; its output at
// process p_i is the delivery-sequence variable d_i (a sequence of MsgId
// recorded in the Trace). Checkers verify the TOB / ETOB properties over
// those histories.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/payload.h"

namespace wfd {

/// An application message m. `causalDeps` is the paper's C(m): the set of
/// messages m causally depends on, supplied by the application at
/// broadcast time (protocols may extend it with everything the sender
/// already knows — see EtobCore::onInput).
struct AppMsg {
  MsgId id = 0;
  ProcessId origin = kNoProcess;
  std::vector<std::uint64_t> body;
  std::vector<MsgId> causalDeps;
};

/// Input event: the application asks this process to broadcast `msg`
/// (the paper's broadcastETOB(m, C(m)) / broadcastTOB(m)).
struct BroadcastInput {
  AppMsg msg;
};

}  // namespace wfd
