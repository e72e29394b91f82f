#include "qsa/workload/churn.hpp"

#include <utility>

#include "qsa/util/expects.hpp"

namespace qsa::workload {
namespace {

/// k for youngest-of-k departure selection.
constexpr int kVictimSample = 8;

}  // namespace

ChurnProcess::ChurnProcess(sim::Simulator& simulator,
                           const net::PeerTable& peers, ChurnParams params,
                           DepartFn on_depart, ArriveFn on_arrive)
    : simulator_(simulator),
      peers_(peers),
      params_(params),
      on_depart_(std::move(on_depart)),
      on_arrive_(std::move(on_arrive)),
      rng_(util::derive_seed(params.seed, "churn", 0)) {
  QSA_EXPECTS(params_.events_per_min >= 0);
  QSA_EXPECTS(on_depart_ != nullptr);
  QSA_EXPECTS(on_arrive_ != nullptr);
}

void ChurnProcess::start(sim::SimTime until) {
  if (params_.events_per_min <= 0) return;
  schedule_next(until);
}

void ChurnProcess::schedule_next(sim::SimTime until) {
  const double gap_min = rng_.exponential(1.0 / params_.events_per_min);
  const auto at = sim::within_horizon(simulator_.now(), gap_min, until);
  if (!at) return;
  simulator_.schedule_at(*at, [this, until] {
    fire();
    schedule_next(until);
  });
}

net::PeerId ChurnProcess::pick_victim() {
  const auto& alive = peers_.alive_ids();
  if (alive.empty()) return net::kNoPeer;
  net::PeerId victim = alive[rng_.index(alive.size())];
  for (int i = 1; i < kVictimSample; ++i) {
    const net::PeerId other = alive[rng_.index(alive.size())];
    // Youngest-of-k: the later the join, the shorter the uptime.
    if (peers_.peer(other).join_time() > peers_.peer(victim).join_time()) {
      victim = other;
    }
  }
  return victim;
}

void ChurnProcess::fire() {
  if (next_is_departure_) {
    if (const net::PeerId victim = pick_victim(); victim != net::kNoPeer) {
      ++departures_;
      on_depart_(victim);
    }
  } else {
    ++arrivals_;
    on_arrive_();
  }
  next_is_departure_ = !next_is_departure_;
}

}  // namespace qsa::workload
