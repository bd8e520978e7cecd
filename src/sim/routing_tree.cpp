#include "sim/routing_tree.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <utility>

namespace kspot::sim {

namespace {

/// One round of the cluster-aware first-heard adoption discipline, as
/// Repair runs it: every node in `frontier` beacons (in rng-shuffled order,
/// modeling radio/arrival nondeterminism); each node of `candidates`
/// (ascending; the nodes wanting a parent) that heard one or more beacons
/// adopts the first-heard same-room non-sink broadcaster when it heard one,
/// the first heard otherwise. Returns the (node, parent) adoptions in node
/// order. BuildClusterAware runs the same rule frontier-driven (see there);
/// fault_test pins the two to identical trees and rng consumption.
///
/// The loop is candidate-driven: instead of every beaconing node scanning
/// its whole neighborhood for joiners (O(|frontier| * degree), which is the
/// entire attached component in a repair's first round), each of the few
/// candidates scans its own neighborhood for the lowest beacon ranks —
/// proportional to the churn instead of the network.
std::vector<std::pair<NodeId, NodeId>> ClusterAwareAdoptionRound(
    const Topology& topology, std::vector<NodeId>& frontier,
    const std::vector<NodeId>& candidates, util::Rng& rng, RepairWorkspace& workspace) {
  rng.Shuffle(frontier);
  size_t n = topology.num_nodes();
  auto& rank = workspace.frontier_pos;
  if (rank.size() != n) rank.assign(n, -1);
  for (size_t i = 0; i < frontier.size(); ++i) rank[frontier[i]] = static_cast<int32_t>(i);
  std::vector<std::pair<NodeId, NodeId>> adoptions;
  for (NodeId v : candidates) {
    NodeId first = kNoNode;
    NodeId roommate = kNoNode;
    topology.ForEachNeighbor(v, [&](NodeId u) {
      if (rank[u] < 0) return;
      if (first == kNoNode || rank[u] < rank[first]) first = u;
      if (u != kSinkId && topology.room(u) == topology.room(v) &&
          (roommate == kNoNode || rank[u] < rank[roommate])) {
        roommate = u;
      }
    });
    if (first != kNoNode) adoptions.emplace_back(v, roommate != kNoNode ? roommate : first);
  }
  for (NodeId u : frontier) rank[u] = -1;
  return adoptions;
}

}  // namespace

RoutingTree RoutingTree::BuildFirstHeard(const Topology& topology, util::Rng& rng) {
  auto adj = topology.BuildAdjacency();
  size_t n = topology.num_nodes();
  std::vector<NodeId> parents(n, kNoNode);
  std::vector<bool> joined(n, false);
  joined[kSinkId] = true;
  // Frontier expansion: nodes that hold the beacon broadcast it; undecided
  // neighbors adopt the first broadcaster they hear. Randomizing the order of
  // broadcasters within a depth level models radio/arrival nondeterminism.
  std::vector<NodeId> frontier = {kSinkId};
  while (!frontier.empty()) {
    std::vector<NodeId> shuffled = frontier;
    rng.Shuffle(shuffled);
    std::vector<NodeId> next;
    for (NodeId u : shuffled) {
      for (NodeId v : adj[u]) {
        if (!joined[v]) {
          joined[v] = true;
          parents[v] = u;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  return FromParents(std::move(parents));
}

RoutingTree RoutingTree::BuildClusterAware(const Topology& topology, util::Rng& rng) {
  // Frontier expansion like first-heard, but an undecided node that hears
  // several beacons in the same round adopts a same-room broadcaster when
  // one exists (in a real deployment the cluster id rides in the beacon and
  // the node filters on it). The round is frontier-driven: walking the
  // shuffled beacons in arrival order, each unjoined neighbour records the
  // first beacon it hears and the first same-room non-sink one. Every node
  // beacons exactly once, so the whole build visits each edge twice, O(edges).
  size_t n = topology.num_nodes();
  std::vector<NodeId> parents(n, kNoNode);
  std::vector<uint8_t> joined(n, 0);
  joined[kSinkId] = 1;
  std::vector<NodeId> first(n, kNoNode);
  std::vector<NodeId> roommate(n, kNoNode);
  std::vector<NodeId> frontier = {kSinkId};
  std::vector<NodeId> heard;
  while (!frontier.empty()) {
    rng.Shuffle(frontier);
    heard.clear();
    for (NodeId u : frontier) {
      topology.ForEachNeighbor(u, [&](NodeId v) {
        if (joined[v]) return;
        if (first[v] == kNoNode) {
          first[v] = u;
          heard.push_back(v);
        }
        if (roommate[v] == kNoNode && u != kSinkId && topology.room(u) == topology.room(v)) {
          roommate[v] = u;
        }
      });
    }
    // Adopt in ascending node order; the adopters are the next frontier.
    std::sort(heard.begin(), heard.end());
    for (NodeId v : heard) {
      parents[v] = roommate[v] != kNoNode ? roommate[v] : first[v];
      joined[v] = 1;
    }
    frontier.swap(heard);
  }
  return FromParents(std::move(parents));
}

RoutingTree RoutingTree::BuildMinHop(const Topology& topology) {
  auto adj = topology.BuildAdjacency();
  size_t n = topology.num_nodes();
  std::vector<NodeId> parents(n, kNoNode);
  std::vector<bool> joined(n, false);
  joined[kSinkId] = true;
  std::deque<NodeId> queue = {kSinkId};
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : adj[u]) {
      if (!joined[v]) {
        joined[v] = true;
        parents[v] = u;
        queue.push_back(v);
      }
    }
  }
  return FromParents(std::move(parents));
}

RoutingTree RoutingTree::FromParents(std::vector<NodeId> parents) {
  RoutingTree tree;
  tree.parents_ = std::move(parents);
  tree.FinishConstruction();
  return tree;
}

void RoutingTree::FinishConstruction() {
  static std::atomic<uint64_t> next_revision{1};
  revision_ = next_revision.fetch_add(1, std::memory_order_relaxed);
  size_t n = parents_.size();
  // Clear-in-place instead of assign: repeated repairs (churn) keep the
  // per-node children capacity instead of reallocating every pass.
  if (children_.size() == n) {
    for (auto& c : children_) c.clear();
  } else {
    children_.assign(n, {});
  }
  depths_.assign(n, 0);
  attached_.assign(n, 0);
  // Filling in ascending node order leaves every children list sorted; no
  // per-list sort needed (repairs rebuild this every churn event).
  for (size_t i = 0; i < n; ++i) {
    if (parents_[i] != kNoNode) children_[parents_[i]].push_back(static_cast<NodeId>(i));
  }
  // Depths via pre-order walk from the sink. Nodes stranded by churn (no
  // parent chain to the sink) are never visited: they keep depth 0, stay out
  // of pre/post order and report attached() == false, so the epoch waves
  // simply skip them.
  pre_order_.clear();
  pre_order_.reserve(n);
  std::vector<NodeId> stack = {kSinkId};
  attached_[kSinkId] = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    pre_order_.push_back(u);
    for (auto it = children_[u].rbegin(); it != children_[u].rend(); ++it) {
      depths_[*it] = depths_[u] + 1;
      attached_[*it] = 1;
      stack.push_back(*it);
    }
  }
  max_depth_ = 0;
  for (size_t i = 0; i < n; ++i) max_depth_ = std::max(max_depth_, depths_[i]);
  // Post order = reverse of a pre-order that visits children in reverse; the
  // simple trick: children-before-parent ordering by sorting pre_order_
  // reversed works because pre_order_ lists every parent before its children.
  post_order_.assign(pre_order_.rbegin(), pre_order_.rend());
  // Slot-schedule order: the epoch scheduler fires node p (the p-th entry of
  // post_order_) at slot (max_depth_ - depth) plus an intra-slot offset of p.
  // Reproducing the (time, seq) order the event queue executed transmissions
  // in means sorting by that key; as long as the intra-slot offsets cannot
  // spill into the next slot (n < kSlotUs, i.e. any realistic network), that
  // is simply "depth descending, post-order-stable" — an O(n) bucket fill.
  wave_order_.resize(post_order_.size());
  if (static_cast<TimeUs>(post_order_.size()) < kSlotUs) {
    std::vector<size_t> cursor(static_cast<size_t>(max_depth_) + 1, 0);
    for (NodeId node : post_order_) ++cursor[depths_[node]];
    size_t acc = 0;
    for (int d = max_depth_; d >= 0; --d) {
      size_t count = cursor[d];
      cursor[d] = acc;
      acc += count;
    }
    for (NodeId node : post_order_) wave_order_[cursor[depths_[node]]++] = node;
  } else {
    wave_order_ = post_order_;
    std::vector<uint64_t> slot_key(n, 0);
    for (size_t p = 0; p < post_order_.size(); ++p) {
      NodeId node = post_order_[p];
      slot_key[node] =
          static_cast<uint64_t>(max_depth_ - depths_[node]) * kSlotUs + static_cast<uint64_t>(p);
    }
    std::stable_sort(wave_order_.begin(), wave_order_.end(),
                     [&](NodeId a, NodeId b) { return slot_key[a] < slot_key[b]; });
  }
}

RepairReport RoutingTree::Repair(const Topology& topology,
                                 const std::function<bool(NodeId)>& is_up, util::Rng& rng,
                                 RepairWorkspace* workspace) {
  RepairWorkspace local;
  RepairWorkspace& ws = workspace != nullptr ? *workspace : local;
  size_t n = parents_.size();
  RepairReport report;
  // Phase 1 — strip the dead. A dead node leaves the tree entirely; its
  // children lose their parent and become orphan-subtree roots.
  for (size_t i = 0; i < n; ++i) {
    NodeId v = static_cast<NodeId>(i);
    if (v == kSinkId) continue;
    if (!is_up(v)) {
      if (parents_[v] != kNoNode) {
        report.removed.emplace_back(v, parents_[v]);
        parents_[v] = kNoNode;
        ++report.dead_removed;
        report.changed = true;
      }
      continue;
    }
    if (parents_[v] != kNoNode && !is_up(parents_[v])) {
      parents_[v] = kNoNode;
      report.changed = true;
    }
  }
  // Remaining parent edges connect up nodes only; the attached component is
  // whatever still reaches the sink over them.
  if (ws.kids.size() == n) {
    for (auto& k : ws.kids) k.clear();
  } else {
    ws.kids.assign(n, {});
  }
  for (size_t i = 0; i < n; ++i) {
    if (parents_[i] != kNoNode) ws.kids[parents_[i]].push_back(static_cast<NodeId>(i));
  }
  ws.attached.assign(n, 0);
  {
    ws.stack.assign(1, kSinkId);
    ws.attached[kSinkId] = 1;
    while (!ws.stack.empty()) {
      NodeId u = ws.stack.back();
      ws.stack.pop_back();
      for (NodeId c : ws.kids[u]) {
        ws.attached[c] = 1;
        ws.stack.push_back(c);
      }
    }
  }
  // Phase 2 — first-heard-from re-attachment rounds, using the same
  // adoption discipline the cluster-aware build uses: a detached up node
  // that hears beacons adopts a same-room broadcaster when one exists and
  // the first heard otherwise, then its intact subtree rides along and
  // beacons next round.
  ws.frontier.clear();
  ws.candidates.clear();
  for (size_t i = 0; i < n; ++i) {
    if (ws.attached[i]) {
      ws.frontier.push_back(static_cast<NodeId>(i));
    } else if (is_up(static_cast<NodeId>(i))) {
      ws.candidates.push_back(static_cast<NodeId>(i));
    }
  }
  // Every round shuffles the frontier even when no candidate is left — the
  // rng consumption must match the historical adoption rounds exactly, or
  // repeated Repair calls in one epoch (mid-repair battery deaths) would
  // diverge from the seed behaviour.
  while (!ws.frontier.empty()) {
    auto adoptions =
        ClusterAwareAdoptionRound(topology, ws.frontier, ws.candidates, rng, ws);
    ws.frontier.clear();
    // A joiner's surviving subtree is attached with it; all of the newly
    // attached beacon in the next round.
    for (const auto& [v, parent] : adoptions) {
      parents_[v] = parent;
      report.reattached.push_back({v, parent});
      report.changed = true;
    }
    for (const auto& [root, parent] : adoptions) {
      ws.stack.assign(1, root);
      while (!ws.stack.empty()) {
        NodeId u = ws.stack.back();
        ws.stack.pop_back();
        if (ws.attached[u]) continue;
        ws.attached[u] = 1;
        ws.frontier.push_back(u);
        for (NodeId c : ws.kids[u]) {
          // The old edge still holds only if c was not itself re-parented
          // this round (it then roots its own attached subtree).
          if (parents_[c] == u) ws.stack.push_back(c);
        }
      }
    }
    if (!adoptions.empty()) {
      ws.candidates.erase(std::remove_if(ws.candidates.begin(), ws.candidates.end(),
                                         [&](NodeId v) { return ws.attached[v] != 0; }),
                          ws.candidates.end());
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (is_up(static_cast<NodeId>(i)) && !ws.attached[i]) ++report.detached;
  }
  FinishConstruction();
  return report;
}

size_t RoutingTree::SubtreeSize(NodeId id) const {
  size_t count = 0;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    ++count;
    for (NodeId c : children_[u]) stack.push_back(c);
  }
  return count;
}

}  // namespace kspot::sim
