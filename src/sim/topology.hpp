#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "util/rng.hpp"

namespace kspot::sim {

/// 2-D position of a node in meters.
struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// Squared Euclidean distance: the radicand Distance takes the root of.
inline double SquaredDistance(const Position& a, const Position& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance between two positions.
double Distance(const Position& a, const Position& b);

/// Largest room id. Room ids lie in [0, kMaxRoomId]: the view codec carries
/// the group in a u16 field, and MINT's per-group cardinality table is a
/// dense vector indexed by room id.
inline constexpr GroupId kMaxRoomId = 65535;

/// Static description of a deployment: node positions, the room (cluster) each
/// node belongs to, and the radio communication range. Node 0 is the sink and
/// by convention carries no sensor of its own (it is the MIB520 base station).
///
/// Two nodes are radio neighbours when `Distance(a, b) <= comm_range()`. The
/// constructor builds a cell index over the (immutable) positions: node ids
/// counting-sorted into a dense grid of square cells slightly wider than the
/// range, so every neighbour of a node lies in its 3x3 cell block. The index
/// takes O(n) memory and is the only neighbour search in the simulator;
/// callers that need neighbours in ascending id order materialize them with
/// BuildAdjacency, everyone else visits them with ForEachNeighbor.
class Topology {
 public:
  Topology() = default;

  /// Creates a topology from explicit positions and room assignments.
  /// `rooms[i]` is the GROUP BY group of node i, in [0, kMaxRoomId]; the
  /// sink's entry is ignored.
  Topology(std::vector<Position> positions, std::vector<GroupId> rooms, double comm_range);

  /// Number of nodes including the sink.
  size_t num_nodes() const { return positions_.size(); }

  /// Number of sensing nodes (excludes the sink).
  size_t num_sensors() const { return positions_.empty() ? 0 : positions_.size() - 1; }

  /// Position of node `id`.
  const Position& position(NodeId id) const { return positions_[id]; }

  /// Room (cluster) of node `id`.
  GroupId room(NodeId id) const { return rooms_[id]; }

  /// Mutable room assignment (used by scenario configuration); `room` must
  /// lie in [0, kMaxRoomId].
  void set_room(NodeId id, GroupId room) { rooms_[id] = room; }

  /// Radio communication range in meters (disc connectivity model).
  double comm_range() const { return comm_range_; }

  /// Distinct room ids over sensing nodes, sorted ascending.
  std::vector<GroupId> DistinctRooms() const;

  /// Ids of nodes in `room`, ascending.
  std::vector<NodeId> NodesInRoom(GroupId room) const;

  /// Calls `fn(j)` once for every neighbour j of node `i` (every j != i with
  /// `Distance(position(i), position(j)) <= comm_range()`), in cell order,
  /// not id order. A template so the dense builds' ~10^8 visits inline.
  template <typename Fn>
  void ForEachNeighbor(NodeId i, Fn&& fn) const {
    const Position& p = positions_[i];
    size_t cx = CellCoord(p.x - origin_x_, cols_);
    size_t cy = CellCoord(p.y - origin_y_, rows_);
    size_t x0 = cx > 0 ? cx - 1 : 0;
    size_t x1 = std::min(cx + 1, cols_ - 1);
    size_t y1 = std::min(cy + 1, rows_ - 1);
    // Cells of one grid row are contiguous in the index, so each row of the
    // 3x3 block is one run of node ids.
    for (size_t y = cy > 0 ? cy - 1 : 0; y <= y1; ++y) {
      uint32_t end = cell_start_[y * cols_ + x1 + 1];
      for (uint32_t k = cell_start_[y * cols_ + x0]; k < end; ++k) {
        NodeId j = cell_nodes_[k];
        if (SquaredDistance(p, positions_[j]) <= range_sq_ && j != i) fn(j);
      }
    }
  }

  /// Neighbor lists under the disc model (symmetric, excludes self). Every
  /// list is sorted ascending and sized exactly (capacity == size); the
  /// order-dependent tree builders (BuildFirstHeard, BuildMinHop) rely on it.
  std::vector<std::vector<NodeId>> BuildAdjacency() const;

  /// True when every node can reach the sink over the disc graph.
  bool IsConnected() const;

 private:
  std::vector<Position> positions_;
  std::vector<GroupId> rooms_;
  double comm_range_ = 10.0;

  // Cell index over positions_ (see the class comment); built once by the
  // constructor, since positions never change afterwards.
  /// The largest squared distance whose square root rounds to at most
  /// comm_range_: `SquaredDistance(a, b) <= range_sq_` decides exactly what
  /// `Distance(a, b) <= comm_range_` does, without the square root.
  double range_sq_ = 0.0;
  double cell_side_ = 1.0;
  double origin_x_ = 0.0;  ///< Smallest x over all nodes.
  double origin_y_ = 0.0;  ///< Smallest y over all nodes.
  size_t cols_ = 0;
  size_t rows_ = 0;
  /// cell_nodes_[cell_start_[c] .. cell_start_[c + 1]) are the nodes of cell
  /// c = row * cols_ + col, ascending.
  std::vector<uint32_t> cell_start_;
  std::vector<NodeId> cell_nodes_;

  void BuildCellIndex();

  /// Grid coordinate of an offset from the origin along an axis of `cells`
  /// cells. Offsets are never negative (the origin is the minimum).
  size_t CellCoord(double offset, size_t cells) const {
    return std::min(static_cast<size_t>(offset / cell_side_), cells - 1);
  }
};

/// Parameters for the random topology generators.
struct TopologyOptions {
  /// Total nodes including the sink.
  size_t num_nodes = 100;
  /// Number of rooms (GROUP BY groups) to carve the field into.
  size_t num_rooms = 10;
  /// Side length of the square deployment field, meters.
  double field_size = 100.0;
  /// Radio range, meters. Generators may enlarge it to reach connectivity.
  double comm_range = 18.0;
};

/// Regular sqrt(n) x sqrt(n) grid; rooms are rectangular tiles. The sink sits
/// at the grid's first cell. Deterministic (no RNG).
Topology MakeGrid(const TopologyOptions& options);

/// Uniform-random placement in the field; rooms are Voronoi cells of a room
/// grid. Resamples (then widens the range) until connected.
Topology MakeUniformRandom(const TopologyOptions& options, util::Rng& rng);

/// Clustered placement: room centers scattered in the field, nodes Gaussian
/// around their room center — the "conference rooms" deployment shape where
/// groups close low in the routing tree.
Topology MakeClusteredRooms(const TopologyOptions& options, util::Rng& rng);

/// The exact 9-sensor / 4-room scenario of Figure 1 in the paper, with the
/// routing tree of the figure (see MakeFigure1Tree). Rooms A,B,C,D map to
/// group ids 0,1,2,3.
Topology MakeFigure1();

/// The Figure-1 routing tree as an explicit parent vector:
/// s0 <- {s2, s4, s6}; s2 <- {s3}; s4 <- {s1, s9}; s6 <- {s5, s7, s8}.
std::vector<NodeId> MakeFigure1Parents();

/// Sensor readings (sound level, %) from Figure 1: index = node id, entry 0
/// (the sink) is 0. s1..s9 = 40, 74, 75, 42, 75, 75, 78, 75, 39.
std::vector<double> Figure1Readings();

/// Human-readable room name for the Figure-1 scenario ("A".."D").
std::string Figure1RoomName(GroupId room);

}  // namespace kspot::sim
