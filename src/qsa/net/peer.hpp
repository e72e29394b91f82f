// Peers and the peer table.
//
// A peer is a voluntarily participating host with heterogeneous end-system
// capacity (the paper draws [cpu, mem] in [100,100]..[1000,1000] units), a
// join time (possibly negative: pre-aged at simulation start), a departure
// time once churn removes it (departures are abrupt and unannounced), and a
// reservation ledger for admitted sessions.
// Probe-visible state (resource availability) carries epoch-snapshot
// semantics; uptime is computed against the probe-epoch boundary for the
// same reason.
//
// Storage is structure-of-arrays, paged: the fields every probe/selection
// touches (alive bit, capacity, the Snapshotted reservation) live in hot
// slabs, the lifecycle timestamps (join/departed-at) in cold slabs,
// page_size peers per slab. PeerIds are dense indices and are
// never reused, so under sustained churn the id space grows with total
// arrivals — but a page whose members have all departed, once the probe
// epoch has moved past the last departure, answers every query the same
// as its freed self (not alive, not probed-alive, reservations long gone)
// and is reclaimed. The resident footprint therefore tracks the alive
// population plus one epoch of recent departures, not arrivals-ever.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "qsa/net/reservations.hpp"
#include "qsa/qos/resources.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::net {

/// Dense peer identifier; ids are never reused within a simulation.
using PeerId = std::uint32_t;
inline constexpr PeerId kNoPeer = ~PeerId{0};

namespace detail {

/// Per-peer state on the probe/selection hot path.
struct PeerHot {
  qos::ResourceVector capacity;
  Snapshotted<qos::ResourceVector> reserved;
  std::uint32_t alive_slot = 0;  // index into PeerTable::alive_ids_
  bool alive = true;
};

/// Per-peer lifecycle timestamps, touched at join/departure and by the
/// uptime heuristic.
struct PeerCold {
  sim::SimTime join_time;
  sim::SimTime departed_at = sim::SimTime::infinity();
};

}  // namespace detail

/// A read-only view of one peer, assembled from the table's hot and cold
/// slabs. Cheap to copy; like a reference into a vector, it is invalidated
/// by the next table mutation.
class Peer {
 public:
  [[nodiscard]] PeerId id() const noexcept { return id_; }
  [[nodiscard]] bool alive() const noexcept { return hot_->alive; }
  [[nodiscard]] const qos::ResourceVector& capacity() const noexcept {
    return hot_->capacity;
  }
  [[nodiscard]] sim::SimTime join_time() const noexcept {
    return cold_->join_time;
  }

  /// Time connected so far. Requires alive().
  [[nodiscard]] sim::SimTime uptime(sim::SimTime now) const noexcept {
    return now - cold_->join_time;
  }

  /// Ground-truth available resources (capacity - live reservations).
  [[nodiscard]] qos::ResourceVector available() const {
    return hot_->capacity - hot_->reserved.live();
  }

  /// Available resources as a prober sees them in `epoch`.
  [[nodiscard]] qos::ResourceVector probed_available(std::int64_t epoch) const {
    return hot_->capacity - hot_->reserved.probed(epoch);
  }

  /// When the peer departed; SimTime::infinity() while alive.
  [[nodiscard]] sim::SimTime departed_at() const noexcept {
    return cold_->departed_at;
  }

 private:
  friend class PeerTable;

  Peer(PeerId id, const detail::PeerHot* hot,
       const detail::PeerCold* cold) noexcept
      : id_(id), hot_(hot), cold_(cold) {}

  PeerId id_;
  const detail::PeerHot* hot_;
  const detail::PeerCold* cold_;
};

/// Everything a prober reads about one peer at an instant (see
/// PeerTable::probed).
struct ProbedPeer {
  bool alive = false;             ///< probed_alive()
  qos::ResourceVector available;  ///< probed_available()
  sim::SimTime uptime;            ///< probed_uptime()
};

/// Owns all peers ever seen by a simulation and tracks the alive set with
/// O(1) insertion/removal and O(1) uniform sampling support.
class PeerTable {
 public:
  static constexpr std::size_t kDefaultPageSize = 4096;

  /// `page_size` is the slab granularity (and reclamation unit); tests use
  /// small pages to exercise reclamation cheaply.
  PeerTable(qos::ResourceSchema schema, ProbeClock clock,
            std::size_t page_size = kDefaultPageSize);

  [[nodiscard]] const qos::ResourceSchema& schema() const noexcept {
    return schema_;
  }
  [[nodiscard]] const ProbeClock& clock() const noexcept { return clock_; }

  /// Pre-sizes the page directory for `expected_peers` (bootstrap hint; the
  /// slabs themselves are allocated on demand).
  void reserve(std::size_t expected_peers);

  /// Adds a peer that joined at `join_time`. Returns its id.
  PeerId add_peer(qos::ResourceVector capacity, sim::SimTime join_time);

  /// Marks a peer departed at `now`. Its reservations evaporate with it
  /// (sessions it hosted are failed by the session manager). No-op if
  /// already gone.
  void remove_peer(PeerId id, sim::SimTime now);

  /// Liveness as a prober sees it at `now`: a peer that departed after the
  /// current probe-epoch boundary still looks alive (the prober has not
  /// probed since).
  [[nodiscard]] bool probed_alive(PeerId id, sim::SimTime now) const;

  /// View of a peer's state. Requires the peer's page to be resident —
  /// i.e. the peer is alive or departed recently enough that some query
  /// could still distinguish it (see the file comment); nothing in the
  /// grid reads the full record of a long-departed peer.
  [[nodiscard]] Peer peer(PeerId id) const;
  [[nodiscard]] bool alive(PeerId id) const;

  [[nodiscard]] std::size_t total_peers() const noexcept { return total_; }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return alive_ids_.size();
  }
  /// Ids of currently alive peers, in unspecified order (stable between
  /// mutations); suitable for uniform random sampling.
  [[nodiscard]] const std::vector<PeerId>& alive_ids() const noexcept {
    return alive_ids_;
  }

  /// Attempts to reserve `r` on the peer at time `now`; false (and no
  /// change) if the peer is gone or short on any resource kind.
  [[nodiscard]] bool try_reserve(PeerId id, const qos::ResourceVector& r,
                                 sim::SimTime now);

  /// Releases a prior reservation. No-op on a departed peer (its ledger died
  /// with it).
  void release(PeerId id, const qos::ResourceVector& r, sim::SimTime now);

  /// Probe-visible availability of a peer at `now` (epoch-start state).
  [[nodiscard]] qos::ResourceVector probed_available(PeerId id,
                                                     sim::SimTime now) const;

  /// Probe-visible uptime: measured at the epoch boundary a prober last saw.
  [[nodiscard]] sim::SimTime probed_uptime(PeerId id, sim::SimTime now) const;

  /// probed_alive(), probed_available() and probed_uptime() in one read:
  /// one page lookup and one epoch computation. `available` and `uptime`
  /// are filled whenever the peer's page is resident, also for a peer that
  /// no longer probes alive; on a reclaimed page only `alive` (false) is
  /// set.
  [[nodiscard]] ProbedPeer probed(PeerId id, sim::SimTime now) const;

  // --- footprint accounting (the flat-memory witness) ---
  [[nodiscard]] std::size_t page_size() const noexcept { return page_size_; }
  /// Pages whose slabs are currently allocated. total_peers() keeps
  /// growing with arrivals; this plateaus once churned-out cohorts are
  /// reclaimed.
  [[nodiscard]] std::size_t resident_pages() const noexcept {
    return resident_pages_;
  }
  /// Upper bound on per-peer slab bytes currently resident.
  [[nodiscard]] std::size_t resident_slots() const noexcept {
    return resident_pages_ * page_size_;
  }

 private:
  struct Page {
    std::unique_ptr<detail::PeerHot[]> hot;
    std::unique_ptr<detail::PeerCold[]> cold;
    std::uint32_t alive_members = 0;
    std::int64_t last_depart_epoch = INT64_MIN;
  };

  [[nodiscard]] bool resident(PeerId id) const noexcept {
    return pages_[id / page_size_].hot != nullptr;
  }
  [[nodiscard]] detail::PeerHot& hot(PeerId id) noexcept {
    return pages_[id / page_size_].hot[id % page_size_];
  }
  [[nodiscard]] const detail::PeerHot& hot(PeerId id) const noexcept {
    return pages_[id / page_size_].hot[id % page_size_];
  }
  [[nodiscard]] const detail::PeerCold& cold(PeerId id) const noexcept {
    return pages_[id / page_size_].cold[id % page_size_];
  }

  /// Advances the epoch high-water mark and reclaims drained pages whose
  /// last departure the probe clock has moved past. Mutating paths only:
  /// const probes stay pure for concurrent serving readers.
  void note_epoch(std::int64_t epoch);

  qos::ResourceSchema schema_;
  ProbeClock clock_;
  std::size_t page_size_;
  std::vector<Page> pages_;
  std::vector<PeerId> alive_ids_;
  /// Fully-departed full pages awaiting epoch passage before reclamation.
  std::vector<std::uint32_t> drained_;
  std::size_t total_ = 0;
  std::size_t resident_pages_ = 0;
  std::int64_t epoch_high_water_ = INT64_MIN;
};

}  // namespace qsa::net
