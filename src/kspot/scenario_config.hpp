#pragma once

#include <map>
#include <string>
#include <vector>

#include "data/modality.hpp"
#include "sim/topology.hpp"
#include "util/status.hpp"

namespace kspot::system {

/// A deployment scenario as the Configuration Panel (Section II) edits it:
/// node placement, cluster (room) membership with human-readable names, the
/// sensed modality and the radio range. Serializable to a line-oriented text
/// file so scenarios can be stored, reloaded and shared.
///
/// File format (one directive per line; '#' starts a comment):
///
///   scenario <name>
///   field <width> <height>
///   range <meters>
///   modality <name>
///   cluster <room-id> <display-name>
///   node <id> <x> <y> <room-id>
struct Scenario {
  std::string name = "unnamed";
  double field_w = 100.0;
  double field_h = 100.0;
  double comm_range = 18.0;
  data::Modality modality = data::Modality::kSound;
  /// Cluster display names by room id.
  std::map<sim::GroupId, std::string> cluster_names;
  /// Node descriptors; index 0 must be the sink.
  struct Node {
    sim::NodeId id = 0;
    double x = 0.0;
    double y = 0.0;
    sim::GroupId room = 0;
  };
  std::vector<Node> nodes;

  /// Builds the simulator topology for this scenario.
  sim::Topology BuildTopology() const;

  /// Display name of a cluster (falls back to "room-<id>").
  std::string ClusterName(sim::GroupId room) const;

  /// Serializes to the text format above.
  std::string ToText() const;

  /// Parses the text format; returns a descriptive, line-numbered error on
  /// bad input, including a room id outside [0, sim::kMaxRoomId].
  static util::StatusOr<Scenario> FromText(const std::string& text);

  /// Loads from a file.
  static util::StatusOr<Scenario> Load(const std::string& path);

  /// Saves to a file; false on I/O failure.
  bool Save(const std::string& path) const;

  /// The Figure-1 conference scenario (9 sensors, 4 rooms) as a Scenario.
  static Scenario Figure1();

  /// A generated conference-floor scenario: `rooms` clusters of
  /// `nodes_per_room` sensors each (the Figure-3 style demo deployment).
  static Scenario ConferenceFloor(size_t rooms, size_t nodes_per_room, uint64_t seed);
};

}  // namespace kspot::system
