// Network-level message envelope.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/payload.h"

namespace wfd {

/// Target meaning "send to every process, including the sender" — the
/// paper's step semantics sends the same message to all processes.
inline constexpr ProcessId kBroadcast = kNoProcess;

/// A message in transit: one (send, destination) pair. The simulator
/// keeps it in one envelope shared by every network copy of the send, so
/// per-send link state (exactly-once, retransmission) lives beside it
/// rather than in tables keyed by uid.
struct Message {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  Payload payload;
  Time sentAt = 0;
  /// Unique per-run network identifier (assigned by the simulator and
  /// shared by every copy of the send, retransmissions included).
  std::uint64_t uid = 0;
};

}  // namespace wfd
