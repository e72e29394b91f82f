// Dynamic peer selection (Section 3.3): one hop of the distributed,
// hop-by-hop selection. The current peer chooses, among the candidate
// providers of the next service instance, using only its locally probed
// neighbor information:
//
//   1. candidates it has no information about are set aside;
//   2. known candidates are filtered: probed-alive, probed uptime >= the
//      application's session duration (topological-variation tolerance),
//      probed availability >= R, probed bandwidth >= b;
//   3. the survivors are ranked by the configurable composite metric
//      Phi = sum_i omega_i * ra_i / r_i + omega_{m+1} * beta / b  (eq. 4-5)
//      and the maximizer wins;
//   4. if nothing survives, the uptime filter is relaxed (best effort);
//   5. if still nothing, selection falls back to a random pick among the
//      candidates without information (the paper's random fallback); with
//      no unknowns left the hop fails.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/probe/resolution.hpp"
#include "qsa/probe/snapshot.hpp"
#include "qsa/qos/tuple_compare.hpp"
#include "qsa/registry/service.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::core {

struct HopSelection {
  net::PeerId peer = net::kNoPeer;
  bool random_fallback = false;  ///< chosen without performance information
  [[nodiscard]] bool ok() const noexcept { return peer != net::kNoPeer; }
};

class PeerSelector {
 public:
  /// `use_uptime_filter` matches uptime against the session duration (the
  /// full QSA behaviour); false drives the uptime ablation.
  PeerSelector(qos::TupleWeights weights, qos::ResourceSchema schema,
               bool use_uptime_filter = true);

  /// The composite metric Phi for a candidate snapshot against an instance's
  /// requirements. Requires strictly positive requirements.
  [[nodiscard]] double phi(const probe::PerfSnapshot& snap,
                           const registry::ServiceInstance& instance) const;

  /// A candidate host and its probed snapshot.
  struct Candidate {
    net::PeerId peer = net::kNoPeer;
    probe::PerfSnapshot snap;
  };

  /// The winner of one filter-and-rank pass.
  struct Ranked {
    const Candidate* best = nullptr;  ///< null when no candidate passes
    double phi = 0;                   ///< best's Phi
  };

  /// One filter-and-rank pass (steps 2-3): among the candidates that are
  /// probed-alive, whose uptime is at least `min_uptime` (no uptime check
  /// when absent), whose availability fits R and whose bandwidth reaches b,
  /// the Phi maximizer, the lower PeerId on a tie. No floor is not a zero
  /// floor: a peer that joined inside the current probe epoch has a
  /// negative probed uptime.
  [[nodiscard]] Ranked rank(std::span<const Candidate> candidates,
                            const registry::ServiceInstance& instance,
                            std::optional<sim::SimTime> min_uptime) const;

  /// Same-epoch reservation correction for a candidate, supplied by the
  /// session layer: the host resources reserved since the current
  /// probe-epoch boundary, which probed snapshots cannot see yet.
  using LoadSignal = std::function<qos::ResourceVector(net::PeerId)>;

  /// Attaches (or, with an empty function, detaches) the live load signal:
  /// each candidate's probed availability is reduced by its same-epoch
  /// reservations before the capability filter and the Phi ranking run.
  /// Without it every session admitted inside one probe epoch is ranked
  /// against the same stale snapshot, so they pile onto the epoch's single
  /// Phi maximizer and overcommit it. Off by default — plain QSA selects
  /// on probed state alone; the replication tier turns it on (the
  /// load-balancing half of the subsystem).
  void set_load_signal(LoadSignal load) { load_ = std::move(load); }

  /// One selection step: `current` picks the host for `instance` among
  /// `candidates`. `table` is `current`'s neighbor table (already prepared
  /// by the resolution protocol).
  [[nodiscard]] HopSelection select_hop(
      const net::PeerTable& peers, const net::NetworkModel& net,
      const probe::NeighborTable& table, net::PeerId current,
      const registry::ServiceInstance& instance,
      std::span<const net::PeerId> candidates, sim::SimTime session_duration,
      sim::SimTime now, util::Rng& rng) const;

 private:
  qos::TupleWeights weights_;
  qos::ResourceSchema schema_;
  bool use_uptime_filter_;
  LoadSignal load_;

  // select_hop() scratch (mutable: selection is logically const, these are
  // pure workspace). Grow-only capacity; PerfSnapshot is inline storage
  // (SmallVec), so a warm selector allocates nothing. One PeerSelector
  // serves one thread. known_ holds the candidates the current peer has
  // probe information about.
  mutable std::vector<Candidate> known_;
  mutable std::vector<net::PeerId> unknown_;
};

}  // namespace qsa::core
