// Fundamental identifiers shared by every module.
//
// The paper models a system Pi = {p_1, ..., p_n} with a discrete global
// clock ranging over N. We use 0-based process indices and a 64-bit step
// counter as the global clock (the simulator advances it by one per step).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace wfd {

/// Discrete global time (the paper's clock over N). One unit == one step
/// of some process in the simulated schedule.
using Time = std::uint64_t;

/// Index of a process in Pi. 0-based; the paper's p_i is index i-1.
using ProcessId = std::size_t;

/// Sentinel "no process" value (used e.g. by Omega before any output).
inline constexpr ProcessId kNoProcess = std::numeric_limits<ProcessId>::max();

/// Identifier of an application-level broadcast message. Encodes
/// (origin process, per-origin sequence number) so ids are globally unique
/// without coordination.
using MsgId = std::uint64_t;

/// Builds a MsgId from its components.
constexpr MsgId makeMsgId(ProcessId origin, std::uint32_t seq) {
  return (static_cast<MsgId>(origin) << 32) | seq;
}

/// Origin process of a MsgId.
constexpr ProcessId msgIdOrigin(MsgId id) {
  return static_cast<ProcessId>(id >> 32);
}

/// Per-origin sequence number of a MsgId.
constexpr std::uint32_t msgIdSeq(MsgId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

/// Multivalued consensus value. The paper defines binary EC and notes the
/// multivalued extension is straightforward [23]; Algorithm 1 proposes
/// whole message sequences to EC, so the natural value domain here is a
/// sequence of 64-bit words (a binary value is the single-element {0}/{1}).
using Value = std::vector<std::uint64_t>;

/// EC / consensus instance number (the paper's `l` in proposeEC_l).
using Instance = std::uint64_t;

}  // namespace wfd
