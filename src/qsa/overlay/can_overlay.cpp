#include "qsa/overlay/can_overlay.hpp"

#include <algorithm>
#include <cmath>

#include "qsa/util/expects.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::overlay {
namespace {

/// Wraps a coordinate into [0, 1).
double wrap01(double x) {
  x -= std::floor(x);
  return x >= 1.0 ? 0.0 : x;
}

/// The largest representable coordinate below `x` on the unit torus.
double just_below(double x) {
  return x <= 0.0 ? std::nextafter(1.0, 0.0) : std::nextafter(x, 0.0);
}

}  // namespace

CanPoint can_point(std::uint64_t seed, Key key) {
  CanPoint p;
  for (std::size_t d = 0; d < kCanDims; ++d) {
    const std::uint64_t h =
        util::mix64(util::hash_combine(seed ^ util::hash_str("can-coord"),
                                       util::hash_combine(key, d)));
    p[d] = static_cast<double>(h >> 11) * 0x1.0p-53;
  }
  return p;
}

double torus_dist(double a, double b) {
  const double d = std::abs(a - b);
  return std::min(d, 1.0 - d);
}

bool CanOverlay::Zone::contains(const CanPoint& p) const {
  for (std::size_t d = 0; d < kCanDims; ++d) {
    if (p[d] < lo[d] || p[d] >= hi[d]) return false;
  }
  return true;
}

double CanOverlay::Zone::volume() const {
  double v = 1;
  for (std::size_t d = 0; d < kCanDims; ++d) v *= hi[d] - lo[d];
  return v;
}

CanOverlay::CanOverlay(std::uint64_t seed, int replicas)
    : seed_(seed), replicas_(replicas) {
  QSA_EXPECTS(replicas >= 1);
}

bool CanOverlay::contains(net::PeerId peer) const {
  return leaf_of_peer_.contains(peer);
}

int CanOverlay::leaf_containing(const CanPoint& p) const {
  QSA_EXPECTS(root_ != kNoNode);
  int at = root_;
  while (!tree_[static_cast<std::size_t>(at)].is_leaf()) {
    const TreeNode& node = tree_[static_cast<std::size_t>(at)];
    const int dim = node.split_dim;
    const double mid =
        tree_[static_cast<std::size_t>(node.child[1])].zone.lo[static_cast<std::size_t>(dim)];
    at = p[static_cast<std::size_t>(dim)] < mid ? node.child[0] : node.child[1];
  }
  return at;
}

void CanOverlay::join(net::PeerId peer) {
  QSA_EXPECTS(!contains(peer));
  auto alloc = [this]() -> int {
    if (!free_slots_.empty()) {
      const int slot = free_slots_.back();
      free_slots_.pop_back();
      tree_[static_cast<std::size_t>(slot)] = TreeNode{};
      return slot;
    }
    tree_.emplace_back();
    return static_cast<int>(tree_.size() - 1);
  };

  if (root_ == kNoNode) {
    root_ = alloc();
    TreeNode& root = tree_[static_cast<std::size_t>(root_)];
    root.zone.lo.fill(0.0);
    root.zone.hi.fill(1.0);
    root.peer = peer;
    leaf_of_peer_.emplace(peer, root_);
    return;
  }

  // Split the zone containing the newcomer's hash point, along its longest
  // side (keeps zones square-ish, as CAN's round-robin splitting intends).
  const CanPoint p =
      can_point(seed_ ^ util::hash_str("can-node"), peer);
  const int leaf = leaf_containing(p);
  const int lower = alloc();
  const int upper = alloc();
  TreeNode& parent = tree_[static_cast<std::size_t>(leaf)];

  std::size_t dim = 0;
  for (std::size_t d = 1; d < kCanDims; ++d) {
    if (parent.zone.hi[d] - parent.zone.lo[d] >
        parent.zone.hi[dim] - parent.zone.lo[dim]) {
      dim = d;
    }
  }
  const double mid = (parent.zone.lo[dim] + parent.zone.hi[dim]) / 2;

  TreeNode& lo_node = tree_[static_cast<std::size_t>(lower)];
  TreeNode& hi_node = tree_[static_cast<std::size_t>(upper)];
  lo_node.zone = parent.zone;
  lo_node.zone.hi[dim] = mid;
  hi_node.zone = parent.zone;
  hi_node.zone.lo[dim] = mid;
  lo_node.parent = hi_node.parent = leaf;

  // The occupant keeps the lower half; the newcomer takes the upper half
  // and the keys that now fall into it.
  lo_node.peer = parent.peer;
  hi_node.peer = peer;
  for (auto it = parent.store.begin(); it != parent.store.end();) {
    const CanPoint kp = can_point(seed_, it->first);
    if (hi_node.zone.contains(kp)) {
      hi_node.store.emplace(it->first, std::move(it->second));
      it = parent.store.erase(it);
    } else {
      lo_node.store.emplace(it->first, std::move(it->second));
      it = parent.store.erase(it);
    }
  }

  parent.peer = net::kNoPeer;
  parent.split_dim = static_cast<int>(dim);
  parent.child[0] = lower;
  parent.child[1] = upper;
  leaf_of_peer_[lo_node.peer] = lower;
  leaf_of_peer_.emplace(peer, upper);
}

int CanOverlay::deepest_leaf_pair(int subtree) const {
  // Returns the interior node, deepest first, whose both children are
  // leaves. `subtree` must not be a leaf.
  int best = kNoNode;
  int best_depth = -1;
  struct Frame {
    int node;
    int depth;
  };
  std::vector<Frame> stack{{subtree, 0}};
  while (!stack.empty()) {
    const auto [at, depth] = stack.back();
    stack.pop_back();
    const TreeNode& node = tree_[static_cast<std::size_t>(at)];
    if (node.is_leaf()) continue;
    const bool both_leaves =
        tree_[static_cast<std::size_t>(node.child[0])].is_leaf() &&
        tree_[static_cast<std::size_t>(node.child[1])].is_leaf();
    if (both_leaves) {
      if (depth > best_depth) {
        best_depth = depth;
        best = at;
      }
      continue;
    }
    stack.push_back({node.child[0], depth + 1});
    stack.push_back({node.child[1], depth + 1});
  }
  QSA_ASSERT(best != kNoNode);
  return best;
}

void CanOverlay::move_store_into_zone(TreeNode& from, TreeNode& to) {
  for (auto& [key, values] : from.store) {
    to.store[key].insert(values.begin(), values.end());
  }
  from.store.clear();
}

void CanOverlay::fail(net::PeerId peer) {
  auto pit = leaf_of_peer_.find(peer);
  if (pit == leaf_of_peer_.end()) return;
  const int leaf = pit->second;
  leaf_of_peer_.erase(pit);

  TreeNode& vacated = tree_[static_cast<std::size_t>(leaf)];
  vacated.store.clear();  // the store vanishes; replicas keep copies

  if (leaf == root_) {  // last node leaves: the overlay empties
    root_ = kNoNode;
    tree_.clear();
    free_slots_.clear();
    return;
  }

  const int parent = vacated.parent;
  TreeNode& p = tree_[static_cast<std::size_t>(parent)];
  const int sibling = p.child[0] == leaf ? p.child[1] : p.child[0];
  TreeNode& sib = tree_[static_cast<std::size_t>(sibling)];

  if (sib.is_leaf()) {
    // The two halves merge back: the sibling's owner takes the parent zone.
    p.peer = sib.peer;
    p.split_dim = -1;
    p.child[0] = p.child[1] = kNoNode;
    move_store_into_zone(sib, p);
    leaf_of_peer_[p.peer] = parent;
    free_slots_.push_back(leaf);
    free_slots_.push_back(sibling);
    return;
  }

  // Classic CAN takeover: the deepest leaf pair in the sibling subtree
  // donates one node; its pair-mate absorbs the donated zone, the donor
  // adopts the vacated zone.
  const int pair = deepest_leaf_pair(sibling);
  TreeNode& q = tree_[static_cast<std::size_t>(pair)];
  const int donor_leaf = q.child[0];
  const int mate_leaf = q.child[1];
  TreeNode& donor = tree_[static_cast<std::size_t>(donor_leaf)];
  TreeNode& mate = tree_[static_cast<std::size_t>(mate_leaf)];

  // The pair collapses into one zone owned by the mate.
  q.peer = mate.peer;
  q.split_dim = -1;
  q.child[0] = q.child[1] = kNoNode;
  const net::PeerId donor_peer = donor.peer;
  move_store_into_zone(mate, q);
  move_store_into_zone(donor, q);
  leaf_of_peer_[q.peer] = pair;
  free_slots_.push_back(donor_leaf);
  free_slots_.push_back(mate_leaf);

  // The donor adopts the vacated zone.
  vacated.peer = donor_peer;
  leaf_of_peer_[donor_peer] = leaf;
}

int CanOverlay::next_leaf(int leaf) const {
  // In-order successor among leaves, wrapping at the end.
  int at = leaf;
  for (;;) {
    const int parent = tree_[static_cast<std::size_t>(at)].parent;
    if (parent == kNoNode) {  // climbed off the root: wrap to leftmost
      at = root_;
      break;
    }
    if (tree_[static_cast<std::size_t>(parent)].child[0] == at) {
      at = tree_[static_cast<std::size_t>(parent)].child[1];
      break;
    }
    at = parent;
  }
  while (!tree_[static_cast<std::size_t>(at)].is_leaf()) {
    at = tree_[static_cast<std::size_t>(at)].child[0];
  }
  return at;
}

std::vector<int> CanOverlay::replica_leaves(int leaf) const {
  std::vector<int> out;
  const int copies =
      std::min<int>(replicas_, static_cast<int>(leaf_of_peer_.size()));
  int at = leaf;
  for (int i = 0; i < copies; ++i) {
    out.push_back(at);
    at = next_leaf(at);
  }
  return out;
}

void CanOverlay::insert(Key key, std::uint64_t value) {
  QSA_EXPECTS(root_ != kNoNode);
  const int owner = leaf_containing(can_point(seed_, key));
  for (int leaf : replica_leaves(owner)) {
    tree_[static_cast<std::size_t>(leaf)].store[key].insert(value);
  }
}

void CanOverlay::erase(Key key, std::uint64_t value) {
  if (root_ == kNoNode) return;
  const int owner = leaf_containing(can_point(seed_, key));
  // A slightly wider window than insert uses: replica placement drifts
  // under churn, exactly as in the Chord implementation.
  int at = owner;
  const int window =
      std::min<int>(replicas_ + 2, static_cast<int>(leaf_of_peer_.size()));
  for (int i = 0; i < window; ++i) {
    TreeNode& node = tree_[static_cast<std::size_t>(at)];
    if (auto sit = node.store.find(key); sit != node.store.end()) {
      sit->second.erase(value);
      if (sit->second.empty()) node.store.erase(sit);
    }
    at = next_leaf(at);
  }
}

std::vector<std::uint64_t> CanOverlay::get(Key key) const {
  if (root_ == kNoNode) return {};
  const TreeNode& owner =
      tree_[static_cast<std::size_t>(leaf_containing(can_point(seed_, key)))];
  const auto sit = owner.store.find(key);
  if (sit == owner.store.end()) return {};
  return {sit->second.begin(), sit->second.end()};
}

LookupStats CanOverlay::route(Key key, net::PeerId from,
                              const net::NetworkModel* net) const {
  QSA_EXPECTS(root_ != kNoNode);
  const auto fit = leaf_of_peer_.find(from);
  QSA_EXPECTS(fit != leaf_of_peer_.end());

  const CanPoint target = can_point(seed_, key);
  LookupStats stats;
  int cur = fit->second;

  // Greedy forwarding needs at most O(d * n^(1/d)) hops; the cap guards a
  // corrupted tree.
  const int max_hops =
      8 + 4 * static_cast<int>(kCanDims *
                               std::pow(static_cast<double>(size()),
                                        1.0 / static_cast<double>(kCanDims)));
  while (stats.hops <= max_hops) {
    const TreeNode& node = tree_[static_cast<std::size_t>(cur)];
    if (node.zone.contains(target)) {
      stats.owner = node.peer;
      return stats;
    }
    // Cross the face nearest the target: clamp the point into the zone,
    // then step just over the boundary of the worst dimension.
    CanPoint step{};
    std::size_t worst_dim = 0;
    double worst_dist = -1;
    bool worst_is_upper = false;
    for (std::size_t d = 0; d < kCanDims; ++d) {
      const double t = target[d];
      if (t >= node.zone.lo[d] && t < node.zone.hi[d]) {
        step[d] = t;
        continue;
      }
      const double dist_lo = torus_dist(t, node.zone.lo[d]);
      const double dist_hi = torus_dist(t, node.zone.hi[d]);
      const bool upper = dist_hi < dist_lo;
      // Clamp inside the zone for now.
      step[d] = upper ? just_below(node.zone.hi[d]) : node.zone.lo[d];
      const double dist = std::min(dist_lo, dist_hi);
      if (dist > worst_dist) {
        worst_dist = dist;
        worst_dim = d;
        worst_is_upper = upper;
      }
    }
    QSA_ASSERT(worst_dist >= 0);
    // Step across the chosen face (half-open zones make the boundary point
    // itself belong to the neighbor).
    step[worst_dim] = worst_is_upper
                          ? wrap01(node.zone.hi[worst_dim])
                          : just_below(node.zone.lo[worst_dim]);
    int next = leaf_containing(step);
    QSA_ASSERT(next != cur);
    if (!deliver_hop(node.peer, tree_[static_cast<std::size_t>(next)].peer,
                     stats, net)) {
      // Greedy neighbor unreachable: reroute straight to the owner zone
      // (the wider search a node falls back to after a timeout).
      const int owner = leaf_containing(target);
      if (owner == next) return stats;  // owner itself unreachable: failed
      note_reroute();
      if (!deliver_hop(node.peer, tree_[static_cast<std::size_t>(owner)].peer,
                       stats, net)) {
        return stats;  // lookup failed; owner stays kNoPeer
      }
      next = owner;
    }
    if (net != nullptr) {
      stats.latency += net->latency(node.peer,
                                    tree_[static_cast<std::size_t>(next)].peer);
    }
    ++stats.hops;
    cur = next;
  }
  // Greedy routing can dither around a wrap seam; fall back to the direct
  // owner with one accounted hop, as a real node would after a timeout.
  const int owner = leaf_containing(target);
  if (!deliver_hop(tree_[static_cast<std::size_t>(cur)].peer,
                   tree_[static_cast<std::size_t>(owner)].peer, stats, net)) {
    return stats;  // lookup failed; owner stays kNoPeer
  }
  if (net != nullptr) {
    stats.latency += net->latency(tree_[static_cast<std::size_t>(cur)].peer,
                                  tree_[static_cast<std::size_t>(owner)].peer);
  }
  ++stats.hops;
  stats.owner = tree_[static_cast<std::size_t>(owner)].peer;
  return stats;
}

void CanOverlay::stabilize_round(double) {}
void CanOverlay::stabilize_all() {}

net::PeerId CanOverlay::owner_of(Key key) const {
  QSA_EXPECTS(root_ != kNoNode);
  return tree_[static_cast<std::size_t>(leaf_containing(can_point(seed_, key)))]
      .peer;
}

CanOverlay::Zone CanOverlay::zone_of(net::PeerId peer) const {
  const auto it = leaf_of_peer_.find(peer);
  QSA_EXPECTS(it != leaf_of_peer_.end());
  return tree_[static_cast<std::size_t>(it->second)].zone;
}

double CanOverlay::total_leaf_volume() const {
  double total = 0;
  for (const auto& [peer, leaf] : leaf_of_peer_) {
    total += tree_[static_cast<std::size_t>(leaf)].zone.volume();
  }
  return total;
}

}  // namespace qsa::overlay
