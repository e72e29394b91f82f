// Topological variation (Section 4): a Poisson process of peer departures
// and arrivals at a configured total rate (peers/min), alternating so the
// population stays near its initial size.
//
// Departure victims are chosen youngest-of-k: sample k alive peers uniformly
// and evict the one with the shortest uptime. This reproduces the
// heavy-tailed session-length behaviour of measured P2P systems (Saroiu et
// al., the study the paper cites): a peer that has already stayed long is
// less likely to leave soon, which is precisely the property the QSA uptime
// heuristic banks on — while keeping the churn *rate* an exact, independent
// knob as in the paper's Figure 7 sweep.
#pragma once

#include <functional>

#include "qsa/net/peer.hpp"
#include "qsa/sim/simulator.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::workload {

struct ChurnParams {
  std::uint64_t seed = 1;
  double events_per_min = 0;  ///< the paper's "topological variation rate"
};

class ChurnProcess {
 public:
  /// `on_depart` must remove the peer from every subsystem (table, ring,
  /// placements, sessions); `on_arrive` must create and wire a fresh peer.
  using DepartFn = std::function<void(net::PeerId)>;
  using ArriveFn = std::function<void()>;

  ChurnProcess(sim::Simulator& simulator, const net::PeerTable& peers,
               ChurnParams params, DepartFn on_depart, ArriveFn on_arrive);

  void start(sim::SimTime until);

  [[nodiscard]] std::uint64_t departures() const noexcept {
    return departures_;
  }
  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }

 private:
  void schedule_next(sim::SimTime until);
  void fire();
  [[nodiscard]] net::PeerId pick_victim();

  sim::Simulator& simulator_;
  const net::PeerTable& peers_;
  ChurnParams params_;
  DepartFn on_depart_;
  ArriveFn on_arrive_;
  util::Rng rng_;
  bool next_is_departure_ = true;
  std::uint64_t departures_ = 0;
  std::uint64_t arrivals_ = 0;
};

}  // namespace qsa::workload
