// Pastry overlay (Rowstron & Druschel, Middleware 2001): the third
// structured lookup substrate, alongside Chord and CAN.
//
// Node ids live on a 64-bit circular space read as sixteen base-16 digits,
// most significant first. A key is owned by the node whose id is
// numerically closest on the circle (ties to the lower id). Each node keeps
//   * a leaf set: the L/2 nearest node ids on each side, always correct
//     (Pastry repairs leaf sets eagerly); and
//   * a routing table: row l holds, for each digit d, some node sharing
//     exactly l leading digits with this node and having digit d next —
//     refreshed in stabilization rounds, so entries go stale under churn
//     exactly as Chord fingers do.
// Routing: if the key falls inside the leaf-set range, hop directly to the
// numerically closest leaf; otherwise forward along the routing-table entry
// matching one more digit; in the rare case both fail, forward to any known
// node strictly closer to the key. Expected hops: O(log_16 N).
//
// Storage follows PAST: values replicate on the owner's leaf set.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "qsa/overlay/lookup.hpp"

namespace qsa::overlay {

class PastryOverlay final : public LookupService {
 public:
  /// Digits are 4 bits (base 16); ids have 16 digits.
  static constexpr int kDigitBits = 4;
  static constexpr int kDigits = 64 / kDigitBits;
  static constexpr int kBase = 1 << kDigitBits;
  /// Leaf-set half width (L/2 nodes on each side; L = 16, the standard
  /// Pastry configuration).
  static constexpr int kLeafHalf = 8;

  explicit PastryOverlay(std::uint64_t seed, int replicas = 2);

  void join(net::PeerId peer) override;
  void fail(net::PeerId peer) override;

  [[nodiscard]] bool contains(net::PeerId peer) const override;
  [[nodiscard]] std::size_t size() const override { return ring_.size(); }

  [[nodiscard]] LookupStats route(
      Key key, net::PeerId from,
      const net::NetworkModel* net = nullptr) const override;

  void insert(Key key, std::uint64_t value) override;
  void erase(Key key, std::uint64_t value) override;
  [[nodiscard]] std::vector<std::uint64_t> get(Key key) const override;

  void stabilize_round(double fraction) override;
  void stabilize_all() override;

  [[nodiscard]] net::PeerId owner_of(Key key) const override;

  /// Digit `i` (0 = most significant) of an id.
  [[nodiscard]] static int digit(std::uint64_t id, int i) noexcept {
    return static_cast<int>((id >> (64 - kDigitBits * (i + 1))) &
                            (kBase - 1));
  }
  /// Number of leading base-16 digits two ids share.
  [[nodiscard]] static int shared_digits(std::uint64_t a,
                                         std::uint64_t b) noexcept;
  /// Circular distance on the 64-bit id space.
  [[nodiscard]] static std::uint64_t circular_dist(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
    const std::uint64_t d = a - b;
    const std::uint64_t e = b - a;
    return d < e ? d : e;
  }

 private:
  struct Node {
    net::PeerId peer = net::kNoPeer;
    /// routing[l][d]: a node id sharing l digits with ours, digit l == d;
    /// kNoEntry when empty.
    std::array<std::array<std::uint64_t, kBase>, kDigits> routing{};
    bool routing_valid = false;
    std::map<Key, std::set<std::uint64_t>> store;
  };
  static constexpr std::uint64_t kNoEntry = 0;  // own slot is never used

  using Ring = std::map<std::uint64_t, Node>;

  [[nodiscard]] Ring::const_iterator node_nearest(std::uint64_t id) const;
  [[nodiscard]] Ring::iterator node_nearest(std::uint64_t id);

  /// The kLeafHalf neighbors on each side of a node (excluding it), plus
  /// the clockwise arc the whole set spans.
  struct Leaves {
    std::vector<std::uint64_t> ids;
    std::uint64_t leftmost = 0;   ///< counter-clockwise extreme
    std::uint64_t rightmost = 0;  ///< clockwise extreme
    bool whole_ring = false;      ///< the set covers every other node
  };
  [[nodiscard]] Leaves leaf_set(Ring::const_iterator it) const;
  void compute_routing(std::uint64_t id, Node& node) const;
  void replicate_insert(Ring::iterator owner_it, Key key, std::uint64_t value);

  std::uint64_t seed_;
  int replicas_;
  Ring ring_;
  std::unordered_map<net::PeerId, std::uint64_t> id_of_peer_;
  std::uint64_t stabilize_cursor_ = 0;
};

}  // namespace qsa::overlay
