// Chord ring: the P2P lookup service the aggregation model builds on.
//
// Every peer owns a node on a 64-bit identifier ring. A key is owned by its
// successor node. Nodes keep finger tables (finger[i] = first node at or
// after key + 2^i); lookups route greedily through the closest preceding
// live finger, falling back to the (always-correct) successor walk — the
// same progress guarantee real Chord gets from aggressive successor
// stabilization. Finger tables go stale under churn and are refreshed in
// periodic stabilization rounds, so lookup hop counts react to churn the way
// the protocol's do.
//
// The ring also implements the DHT storage layer the service directory
// needs: multi-valued keys with configurable replication on successors,
// key handoff on graceful leave and ownership shift on abrupt failure.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/overlay/chord_id.hpp"
#include "qsa/overlay/lookup.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::overlay {

class ChordRing final : public LookupService {
 public:
  /// `replicas` >= 1: each stored value lives on the owner plus
  /// (replicas - 1) immediate successors so abrupt failures rarely lose it.
  explicit ChordRing(std::uint64_t seed, int replicas = 2);

  /// Adds `peer` to the ring and pulls the key range it now owns from its
  /// successor. Computes the new node's fingers immediately (Chord's join
  /// does the same via lookups).
  void join(net::PeerId peer) override;

  /// Bulk-bootstrap join: same membership/store effect as join(), but the
  /// finger table is left unset (self-pointing, which routing treats as "no
  /// useful finger") until the stabilize_all() that ends the bootstrap
  /// recomputes every table anyway. Joining N peers this way is O(N log N)
  /// map inserts instead of O(N * 64 log N) finger lookups.
  void join_deferred(net::PeerId peer) override;

  /// Graceful departure: hands stored keys to the successor, then leaves.
  void leave(net::PeerId peer) override;

  /// Abrupt failure: the node vanishes with its store; replicas on
  /// successors keep surviving copies reachable.
  void fail(net::PeerId peer) override;

  [[nodiscard]] bool contains(net::PeerId peer) const override;
  [[nodiscard]] std::size_t size() const override { return ring_.size(); }

  /// Routes from `from`'s node to the owner of `key`, counting hops and, if
  /// `net` is given, summing per-hop latency. Requires a non-empty ring and
  /// `from` to be joined.
  [[nodiscard]] LookupStats route(
      ChordKey key, net::PeerId from,
      const net::NetworkModel* net = nullptr) const override;

  /// Stores `value` under `key` (owner + replicas).
  void insert(ChordKey key, std::uint64_t value) override;

  /// Removes `value` from `key` everywhere it is replicated.
  void erase(ChordKey key, std::uint64_t value) override;

  /// Values stored under `key` at its current owner (what a lookup returns).
  [[nodiscard]] std::vector<std::uint64_t> get(ChordKey key) const override;

  /// Refreshes the finger tables of roughly `fraction` of the nodes,
  /// cycling through the ring across calls (periodic stabilization).
  void stabilize_round(double fraction = 0.1) override;

  /// Refreshes every finger table (used after bulk bootstrap joins). Every
  /// node's fingers are a pure function of the sorted key snapshot, so from
  /// kPooledStabilizeMin nodes up the ring is refreshed in 512-node runs
  /// over util::shared_pool(), byte-identical to one serial run.
  void stabilize_all() override;

  /// Ring size from which stabilize_all() uses the pool; below it the
  /// chunk bookkeeping costs more than it saves.
  static constexpr std::size_t kPooledStabilizeMin = 2048;

  /// The node key owning `key` resolved against the live ring (oracle view,
  /// for tests).
  [[nodiscard]] net::PeerId owner_of(ChordKey key) const override;

  /// `peer`'s finger table as last computed (oracle view, for tests).
  /// Requires `peer` to be joined.
  [[nodiscard]] const std::array<ChordKey, kKeyBits>& fingers(
      net::PeerId peer) const;

 private:
  struct Node {
    net::PeerId peer = net::kNoPeer;
    // finger[i] targets key + 2^i. Inline array (not a heap vector): one
    // allocation per node instead of two, which matters at 10^6 joins. A
    // finger equal to the node's own key means "unset/useless" — routing
    // skips it (deferred joins fill the whole table with the own key).
    std::array<ChordKey, kKeyBits> fingers{};
    std::map<ChordKey, std::set<std::uint64_t>> store;
  };

  using Ring = std::map<ChordKey, Node>;

  /// First live node at or after `key` (wrapping). Requires non-empty ring.
  [[nodiscard]] Ring::const_iterator successor(ChordKey key) const;
  [[nodiscard]] Ring::iterator successor(ChordKey key);

  void compute_fingers(ChordKey at, Node& node) const;
  /// Shared join body; `deferred` skips the finger computation.
  void join_impl(net::PeerId peer, bool deferred);
  void replicate_insert(Ring::iterator owner_it, ChordKey key,
                        std::uint64_t value);

  /// Notes that `key` joined or left, for the next sync_keys().
  void log_change(ChordKey key);
  /// Brings keys_ in step with ring_: merges the change log into it, or
  /// rebuilds it from the map once the log has overflowed.
  void sync_keys();
  /// Recomputes the fingers of the `count` ring-consecutive nodes starting
  /// at keys_[first] (wrapping; count <= ring size) from a synced keys_.
  void refresh_run(std::size_t first, std::size_t count);

  std::uint64_t seed_;
  int replicas_;
  Ring ring_;
  std::unordered_map<net::PeerId, ChordKey> key_of_peer_;
  ChordKey stabilize_cursor_ = 0;
  // The member keys, sorted; equal to ring_'s after sync_keys(). Between
  // syncs, changes_ lists every key that joined or left since (a key may
  // appear more than once), unless keys_rebuild_ is set: the log
  // overflowed, was dropped, and the next sync rebuilds from the map.
  std::vector<ChordKey> keys_;
  std::vector<ChordKey> changes_;
  bool keys_rebuild_ = false;
};

}  // namespace qsa::overlay
