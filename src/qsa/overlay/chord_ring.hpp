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
// and ownership shift on abrupt failure.
//
// Storage is flat (DESIGN.md §14): node records (fingers, store) live in a
// paged slab found through a util::DenseMap keyed by peer, and ring order
// (key, peer, slot) lives in a sorted index of ~512-key blocks that every
// join and departure keeps current.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/overlay/chord_id.hpp"
#include "qsa/overlay/lookup.hpp"
#include "qsa/sim/time.hpp"
#include "qsa/util/dense_map.hpp"

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
  /// recomputes every table anyway. Into a ring with no placed member (a
  /// bootstrap from empty) the join only appends; the next call that reads
  /// ring order sorts the appended nodes into the index once.
  void join_deferred(net::PeerId peer) override;

  /// Abrupt failure: the node vanishes with its store; replicas on
  /// successors keep surviving copies reachable.
  void fail(net::PeerId peer) override;

  [[nodiscard]] bool contains(net::PeerId peer) const override;
  [[nodiscard]] std::size_t size() const override { return slot_of_.size(); }

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
  /// node's fingers are a pure function of the membership, so from
  /// kPooledStabilizeMin nodes up each index block is refreshed as one run
  /// by util::parallel_for, byte-identical to one serial run.
  void stabilize_all() override;

  /// Ring size from which stabilize_all() runs in parallel; below it the
  /// chunk bookkeeping costs more than it saves.
  static constexpr std::size_t kPooledStabilizeMin = 2048;

  /// The node key owning `key` resolved against the live ring (oracle view,
  /// for tests).
  [[nodiscard]] net::PeerId owner_of(ChordKey key) const override;

  /// `peer`'s finger table as last computed, as node keys (oracle view, for
  /// tests). Requires `peer` to be joined.
  [[nodiscard]] std::array<ChordKey, kKeyBits> fingers(net::PeerId peer) const;

 private:
  /// One member's record; its key and peer live in the index. Fingers are
  /// peers, not keys: node_key() is one-to-one (join checks it), so a peer
  /// names its node and is half the size. finger[i] targets key + 2^i; a
  /// finger equal to the node's own peer means "unset/useless" — routing
  /// skips it (deferred joins fill the whole table with it).
  struct Node {
    std::array<net::PeerId, kKeyBits> fingers{};
    std::map<ChordKey, std::set<std::uint64_t>> store;
  };

  /// Records per slab page. A page is allocated once and never moves, so
  /// growing the slab copies nothing.
  static constexpr std::size_t kPageNodes = 1024;
  /// Index entries per block as built; a block splits in two at twice this
  /// and merges with a neighbour once the pair fits in it again.
  static constexpr std::size_t kBlockKeys = 512;

  /// A run of ring-consecutive members: parallel arrays sorted by key.
  struct Block {
    std::vector<ChordKey> keys;
    std::vector<net::PeerId> peers;
    std::vector<std::uint32_t> slots;
  };
  /// An index position: entry `at` of block `block`. block ==
  /// blocks_.size() is the end.
  struct Pos {
    std::size_t block = 0;
    std::size_t at = 0;
    friend bool operator==(Pos, Pos) = default;
  };
  /// A deferred join waiting for its place in the index.
  struct Pending {
    ChordKey key;
    net::PeerId peer;
    std::uint32_t slot;
  };

  Node& node(std::uint32_t slot) {
    return pages_[slot / kPageNodes][slot % kPageNodes];
  }
  const Node& node(std::uint32_t slot) const {
    return pages_[slot / kPageNodes][slot % kPageNodes];
  }
  /// A fresh record for `peer` (unset fingers, empty store).
  std::uint32_t alloc_node(net::PeerId peer);

  /// Sorts deferred joins into the index. Every read of ring order calls it
  /// first; const because it changes how membership is stored, not what it
  /// is. Const calls may run concurrently only on a settled ring, where it
  /// reads one vector's size.
  void settle() const;

  /// First entry with a key >= `key`, or the end.
  [[nodiscard]] Pos lower_bound(ChordKey key) const;
  /// First node at or after `key` (wrapping). Requires a settled,
  /// non-empty ring.
  [[nodiscard]] Pos successor(ChordKey key) const;
  /// Steps `p` to the next node, wrapping.
  void advance(Pos& p) const;
  [[nodiscard]] Pos prev(Pos p) const;
  [[nodiscard]] ChordKey key_at(Pos p) const {
    return blocks_[p.block].keys[p.at];
  }
  [[nodiscard]] net::PeerId peer_at(Pos p) const {
    return blocks_[p.block].peers[p.at];
  }
  [[nodiscard]] std::uint32_t slot_at(Pos p) const {
    return blocks_[p.block].slots[p.at];
  }
  /// Index position of the member with `key`; requires it to be placed.
  [[nodiscard]] Pos find(ChordKey key) const;
  /// Places a member at `p` (a lower_bound() of its key).
  void index_insert(Pos p, ChordKey key, net::PeerId peer,
                    std::uint32_t slot);
  void index_erase(Pos p);
  /// Drops the node at `at`: index entry, membership and record (with its
  /// store).
  void remove(Pos at);

  /// join()'s finger table for the placed node `key`: the successor for
  /// every target up to it, one index search for each finger past it.
  void compute_fingers(ChordKey key, Node& record);
  /// Shared join body; `deferred` skips the finger computation.
  void join_impl(net::PeerId peer, bool deferred);
  /// Recomputes the fingers of the `count` ring-consecutive nodes starting
  /// at `first` (wrapping; count <= ring size); returns the position after
  /// the last.
  Pos refresh_run(Pos first, std::size_t count);

  std::uint64_t seed_;
  int replicas_;
  ChordKey stabilize_cursor_ = 0;
  // Membership: peer -> slab slot.
  util::DenseMap<net::PeerId, std::uint32_t> slot_of_;
  std::vector<std::unique_ptr<Node[]>> pages_;
  std::uint32_t slots_used_ = 0;  // slots ever handed out
  std::vector<std::uint32_t> free_slots_;
  // Ring order: every placed member, blocks in key order, and the last key
  // of each block for the top-level search. Members joined deferred into a
  // ring with no placed member wait in pending_ until settle().
  mutable std::vector<Block> blocks_;
  mutable std::vector<ChordKey> block_last_;
  mutable std::vector<Pending> pending_;
};

}  // namespace qsa::overlay
