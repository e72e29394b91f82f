// The P2P lookup substrate interface. Section 3.2 invokes "the P2P lookup
// protocol, such as Chord or CAN" for service discovery; the service
// directory programs against this interface and the grid can run on any
// implementation (ChordRing, CanOverlay or PastryOverlay). Membership
// changes by join and by abrupt failure only: the paper's peers leave
// without notice, so no key is ever handed off on departure.
//
// Keys are opaque 64-bit identifiers (see chord_id.hpp for the hash
// helpers); each implementation maps them into its own identifier space —
// Chord onto a ring, CAN onto a d-dimensional torus.
#pragma once

#include <cstdint>
#include <vector>

#include "qsa/fault/fault.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::overlay {

using Key = std::uint64_t;

struct LookupStats {
  net::PeerId owner = net::kNoPeer;  ///< peer responsible for the key
  int hops = 0;                      ///< application-level routing hops
  sim::SimTime latency;              ///< summed per-hop network latency

  /// True when routing reached an owner. Under fault injection a lookup
  /// whose hop messages all got dropped (primary, alternate and every
  /// retry) fails instead of silently succeeding.
  [[nodiscard]] bool ok() const noexcept { return owner != net::kNoPeer; }
};

class LookupService {
 public:
  virtual ~LookupService() = default;

  /// Adds a peer to the overlay.
  virtual void join(net::PeerId peer) = 0;
  /// Bulk-bootstrap join: identical membership effect to join(), but an
  /// implementation may defer building the peer's routing state (finger
  /// tables) to the stabilize_all() a bulk bootstrap always ends with —
  /// computing it per join is O(N log N) work that stabilize_all() redoes
  /// wholesale anyway. Must not be used when lookups can run before that
  /// stabilize_all(). Default: a plain join.
  virtual void join_deferred(net::PeerId peer) { join(peer); }
  /// Abrupt failure, the one way a peer departs: the node's store vanishes
  /// (replicas may survive).
  virtual void fail(net::PeerId peer) = 0;

  [[nodiscard]] virtual bool contains(net::PeerId peer) const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Routes from `from`'s node to the owner of `key`, counting hops and
  /// (with `net`) summing per-hop latency.
  [[nodiscard]] virtual LookupStats route(
      Key key, net::PeerId from, const net::NetworkModel* net = nullptr) const = 0;

  virtual void insert(Key key, std::uint64_t value) = 0;
  virtual void erase(Key key, std::uint64_t value) = 0;
  [[nodiscard]] virtual std::vector<std::uint64_t> get(Key key) const = 0;

  /// Periodic maintenance (finger refresh, neighbor-table repair, ...).
  virtual void stabilize_round(double fraction) = 0;
  /// Full rebuild of every node's routing state. An implementation may fan
  /// the rebuild out over threads, but the result must be
  /// byte-identical to a serial walk.
  virtual void stabilize_all() = 0;

  /// Oracle owner of a key (for tests and safety fallbacks).
  [[nodiscard]] virtual net::PeerId owner_of(Key key) const = 0;

  /// Attaches the fault-injection plan (null = perfect messaging, the
  /// default). Routing then pays for dropped hop messages with retries,
  /// reroutes through alternates, and may fail a lookup outright.
  void set_faults(const fault::FaultPlan* faults) noexcept {
    faults_ = faults;
  }

 protected:
  /// Delivers one routing-hop message from `a` to `b` under the fault plan:
  /// up to 1 + max_retries sends, each drop charging a wasted hop, the pair
  /// latency (the sender's timeout) and exponential backoff into `stats`.
  /// Returns false when every attempt was lost. Free when no plan is
  /// attached or the plan is disabled.
  bool deliver_hop(net::PeerId a, net::PeerId b, LookupStats& stats,
                   const net::NetworkModel* net) const;

  /// True when hop messages can actually fail.
  [[nodiscard]] bool faults_active() const noexcept {
    return faults_ != nullptr && faults_->enabled();
  }

  /// Accounts a reroute through an alternate neighbor (no-op untracked).
  void note_reroute() const noexcept {
    if (faults_ != nullptr) faults_->note_reroute();
  }

 private:
  const fault::FaultPlan* faults_ = nullptr;
};

}  // namespace qsa::overlay
