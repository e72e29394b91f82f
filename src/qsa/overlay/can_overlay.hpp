// CAN (Content-Addressable Network) overlay — the second lookup substrate
// the paper names (Ratnasamy et al., SIGCOMM 2001).
//
// The identifier space is the d-dimensional unit torus [0,1)^d. Every node
// owns a hyper-rectangular zone; the zones form the leaves of a binary
// split tree (each join splits a leaf in half along the next dimension in
// round-robin order, as CAN does). A 64-bit key hashes to a point; the node
// whose zone contains the point owns the key.
//
//   * join:  hash the newcomer to a random point, split the containing
//     zone, move the keys that fall in the new half;
//   * fail:  the classic CAN takeover — if the sibling zone is a leaf the
//     two halves merge, otherwise the deepest leaf pair in the sibling
//     subtree donates one node to adopt the vacated zone. The departed
//     node's store vanishes (replication on `replicas` zone successors in
//     tree order keeps copies reachable);
//   * routing: greedy geographic forwarding — each hop crosses the zone
//     boundary nearest the target, giving the protocol's O(d * n^(1/d))
//     hop growth.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "qsa/overlay/lookup.hpp"

namespace qsa::overlay {

/// Number of torus dimensions (CAN's `d`). The paper's CAN citation uses
/// small d; 2 gives the characteristic sqrt(n) routing.
inline constexpr std::size_t kCanDims = 2;

using CanPoint = std::array<double, kCanDims>;

/// Maps a key to its torus point (independent coordinate hashes).
[[nodiscard]] CanPoint can_point(std::uint64_t seed, Key key);

/// Per-dimension torus distance in [0, 0.5].
[[nodiscard]] double torus_dist(double a, double b);

class CanOverlay final : public LookupService {
 public:
  explicit CanOverlay(std::uint64_t seed, int replicas = 2);

  void join(net::PeerId peer) override;
  void fail(net::PeerId peer) override;

  [[nodiscard]] bool contains(net::PeerId peer) const override;
  [[nodiscard]] std::size_t size() const override { return leaf_of_peer_.size(); }

  [[nodiscard]] LookupStats route(
      Key key, net::PeerId from,
      const net::NetworkModel* net = nullptr) const override;

  void insert(Key key, std::uint64_t value) override;
  void erase(Key key, std::uint64_t value) override;
  [[nodiscard]] std::vector<std::uint64_t> get(Key key) const override;

  /// CAN repairs its neighbor state eagerly during takeover; the periodic
  /// stabilization rounds are no-ops kept for interface parity.
  void stabilize_round(double fraction) override;
  void stabilize_all() override;

  [[nodiscard]] net::PeerId owner_of(Key key) const override;

  /// The zone (lo/hi per dimension) currently owned by a joined peer.
  struct Zone {
    CanPoint lo{};
    CanPoint hi{};
    [[nodiscard]] bool contains(const CanPoint& p) const;
    [[nodiscard]] double volume() const;
  };
  [[nodiscard]] Zone zone_of(net::PeerId peer) const;

  /// Internal consistency: leaves tile the torus exactly (test hook).
  [[nodiscard]] double total_leaf_volume() const;

 private:
  static constexpr int kNoNode = -1;

  struct TreeNode {
    Zone zone;
    int parent = kNoNode;
    int child[2] = {kNoNode, kNoNode};
    int split_dim = -1;                 ///< valid for interior nodes
    net::PeerId peer = net::kNoPeer;    ///< valid for leaves
    std::map<Key, std::set<std::uint64_t>> store;
    [[nodiscard]] bool is_leaf() const noexcept { return child[0] == kNoNode; }
  };

  [[nodiscard]] int leaf_containing(const CanPoint& p) const;
  [[nodiscard]] int deepest_leaf_pair(int subtree) const;
  void move_store_into_zone(TreeNode& from, TreeNode& to);
  /// The `replicas` leaves after `leaf` in an in-order walk (wrap-around).
  [[nodiscard]] std::vector<int> replica_leaves(int leaf) const;
  [[nodiscard]] int next_leaf(int leaf) const;

  std::uint64_t seed_;
  int replicas_;
  std::vector<TreeNode> tree_;  // slot 0 = root once first node joins
  std::vector<int> free_slots_;
  int root_ = kNoNode;
  std::unordered_map<net::PeerId, int> leaf_of_peer_;
};

}  // namespace qsa::overlay
