#pragma once

#include <cstdint>
#include <limits>

namespace kspot::sim {

/// Identifier of a sensor node. The sink (base station / MIB520 gateway in the
/// paper's deployment) is always node 0. 32-bit so large-extent deployments
/// (E16 runs up to n=100000) fit; the wire
/// format still models 2-byte node ids in its hardcoded message sizes, which
/// is the radio being simulated, not this process-side handle.
using NodeId = uint32_t;

/// Sentinel for "no node" (e.g. the sink's parent).
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// The sink / querying node.
inline constexpr NodeId kSinkId = 0;

/// Simulated time in microseconds.
using TimeUs = uint64_t;

/// Duration of one TAG epoch-schedule slot (one tree depth level), in
/// microseconds. TAG divides each epoch into depth-indexed communication
/// slots so that children transmit before their parents listen. (Lives here
/// rather than in waves.hpp so RoutingTree can precompute the slot-schedule
/// transmission order.)
inline constexpr TimeUs kSlotUs = 50'000;

/// Identifier of a GROUP BY group (room id, node id for node-ranking queries,
/// or epoch index for historic time-instance queries).
using GroupId = int32_t;

/// Epoch counter for continuous queries.
using Epoch = uint32_t;

}  // namespace kspot::sim
