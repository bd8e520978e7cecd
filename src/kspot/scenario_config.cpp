#include "kspot/scenario_config.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace kspot::system {

sim::Topology Scenario::BuildTopology() const {
  std::vector<sim::Position> positions;
  std::vector<sim::GroupId> rooms;
  size_t max_id = 0;
  for (const Node& n : nodes) max_id = std::max<size_t>(max_id, n.id);
  positions.assign(max_id + 1, sim::Position{});
  rooms.assign(max_id + 1, 0);
  for (const Node& n : nodes) {
    positions[n.id] = sim::Position{n.x, n.y};
    rooms[n.id] = n.room;
  }
  return sim::Topology(std::move(positions), std::move(rooms), comm_range);
}

std::string Scenario::ClusterName(sim::GroupId room) const {
  auto it = cluster_names.find(room);
  if (it != cluster_names.end()) return it->second;
  return "room-" + std::to_string(room);
}

std::string Scenario::ToText() const {
  std::ostringstream oss;
  oss << "# KSpot scenario file\n";
  oss << "scenario " << name << '\n';
  oss << "field " << util::FormatDouble(field_w, 1) << ' ' << util::FormatDouble(field_h, 1)
      << '\n';
  oss << "range " << util::FormatDouble(comm_range, 1) << '\n';
  oss << "modality " << data::GetModalityInfo(modality).name << '\n';
  for (const auto& [room, cname] : cluster_names) {
    oss << "cluster " << room << ' ' << cname << '\n';
  }
  for (const Node& n : nodes) {
    oss << "node " << n.id << ' ' << util::FormatDouble(n.x, 2) << ' '
        << util::FormatDouble(n.y, 2) << ' ' << n.room << '\n';
  }
  return oss.str();
}

util::StatusOr<Scenario> Scenario::FromText(const std::string& text) {
  Scenario s;
  s.nodes.clear();
  std::istringstream iss(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    return util::Status::Error("scenario line " + std::to_string(lineno) + ": " + msg);
  };
  auto room_in_range = [](long room) { return room >= 0 && room <= sim::kMaxRoomId; };
  auto bad_room = [&](long room) {
    return fail("room id " + std::to_string(room) + " outside [0, " +
                std::to_string(sim::kMaxRoomId) + "]");
  };
  // kNoNode is the "no node" sentinel, so it is not a valid id either; an
  // unchecked cast would wrap out-of-range ids onto real ones (the sink).
  std::unordered_set<sim::NodeId> node_ids;
  while (std::getline(iss, line)) {
    ++lineno;
    std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream ls{std::string(trimmed)};
    std::string directive;
    ls >> directive;
    if (directive == "scenario") {
      ls >> s.name;
    } else if (directive == "field") {
      if (!(ls >> s.field_w >> s.field_h)) return fail("field needs two numbers");
    } else if (directive == "range") {
      if (!(ls >> s.comm_range)) return fail("range needs a number");
    } else if (directive == "modality") {
      std::string m;
      ls >> m;
      if (!data::ParseModality(m, &s.modality)) return fail("unknown modality '" + m + "'");
    } else if (directive == "cluster") {
      long room;
      std::string cname;
      if (!(ls >> room >> cname)) return fail("cluster needs <room> <name>");
      if (!room_in_range(room)) return bad_room(room);
      s.cluster_names[static_cast<sim::GroupId>(room)] = cname;
    } else if (directive == "node") {
      Node n;
      long id, room;
      if (!(ls >> id >> n.x >> n.y >> room)) return fail("node needs <id> <x> <y> <room>");
      if (!room_in_range(room)) return bad_room(room);
      if (id < 0 || id >= static_cast<long>(sim::kNoNode)) {
        return fail("node id " + std::to_string(id) + " outside [0, " +
                    std::to_string(sim::kNoNode) + ")");
      }
      n.id = static_cast<sim::NodeId>(id);
      if (!node_ids.insert(n.id).second) {
        return fail("duplicate node id " + std::to_string(id));
      }
      n.room = static_cast<sim::GroupId>(room);
      s.nodes.push_back(n);
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  if (s.nodes.empty()) return util::Status::Error("scenario has no nodes");
  bool has_sink = false;
  for (const Node& n : s.nodes) has_sink |= n.id == sim::kSinkId;
  if (!has_sink) return util::Status::Error("scenario has no sink (node 0)");
  return s;
}

util::StatusOr<Scenario> Scenario::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::Error("cannot open scenario file '" + path + "'");
  std::ostringstream oss;
  oss << in.rdbuf();
  return FromText(oss.str());
}

bool Scenario::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToText();
  return static_cast<bool>(out);
}

Scenario Scenario::Figure1() {
  Scenario s;
  s.name = "figure1";
  s.field_w = 20.0;
  s.field_h = 20.0;
  s.comm_range = 8.0;
  s.modality = data::Modality::kSound;
  s.cluster_names = {{0, "A"}, {1, "B"}, {2, "C"}, {3, "D"}};
  sim::Topology topo = sim::MakeFigure1();
  for (sim::NodeId id = 0; id < topo.num_nodes(); ++id) {
    s.nodes.push_back(Node{id, topo.position(id).x, topo.position(id).y, topo.room(id)});
  }
  return s;
}

Scenario Scenario::ConferenceFloor(size_t rooms, size_t nodes_per_room, uint64_t seed) {
  Scenario s;
  s.name = "conference-floor";
  s.field_w = 60.0;
  s.field_h = 40.0;
  s.comm_range = 14.0;
  s.modality = data::Modality::kSound;
  util::Rng rng(seed);
  // Room centers on a loose grid with jitter (auditorium, session rooms,
  // coffee stations, ... as in the demo plan of Section IV-B).
  static const char* kNames[] = {"Auditorium", "RoomA", "RoomB",  "RoomC",
                                 "Coffee",     "Lobby", "Posters", "Registration"};
  size_t cols = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(rooms))));
  double cell_w = s.field_w / static_cast<double>(cols);
  double cell_h = s.field_h / static_cast<double>((rooms + cols - 1) / cols);
  for (size_t r = 0; r < rooms; ++r) {
    std::string cname = r < std::size(kNames) ? kNames[r] : ("Area" + std::to_string(r));
    s.cluster_names[static_cast<sim::GroupId>(r)] = cname;
  }
  // Placements must leave every sensor connected to the sink (a real
  // installer repositions motes until the network forms); resample, widening
  // the radio range as a last resort.
  for (int attempt = 0; attempt < 64; ++attempt) {
    s.nodes.clear();
    s.nodes.push_back(Node{sim::kSinkId, s.field_w / 2, s.field_h / 2, 0});
    sim::NodeId next_id = 1;
    for (size_t r = 0; r < rooms; ++r) {
      double cx = (static_cast<double>(r % cols) + 0.5) * cell_w;
      double cy = (static_cast<double>(r / cols) + 0.5) * cell_h;
      for (size_t i = 0; i < nodes_per_room; ++i) {
        Node n;
        n.id = next_id++;
        n.x = std::clamp(cx + rng.NextGaussian(0, cell_w / 6), 0.0, s.field_w);
        n.y = std::clamp(cy + rng.NextGaussian(0, cell_h / 6), 0.0, s.field_h);
        n.room = static_cast<sim::GroupId>(r);
        s.nodes.push_back(n);
      }
    }
    if (s.BuildTopology().IsConnected()) break;
    if (attempt % 4 == 3) s.comm_range *= 1.15;
  }
  return s;
}

}  // namespace kspot::system
