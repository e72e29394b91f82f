#include "qsa/workload/generator.hpp"

#include <utility>

#include "qsa/util/expects.hpp"

namespace qsa::workload {
namespace {

/// Session durations are uniform in [kMinSessionMin, kMaxSessionMin]
/// minutes (paper: [1, 60]).
constexpr double kMinSessionMin = 1;
constexpr double kMaxSessionMin = 60;

}  // namespace

RequestGenerator::RequestGenerator(sim::Simulator& simulator,
                                   const ApplicationCatalog& apps,
                                   const registry::QosUniverse& universe,
                                   const net::PeerTable& peers,
                                   RequestParams params, Sink sink)
    : simulator_(simulator),
      apps_(apps),
      universe_(universe),
      peers_(peers),
      params_(params),
      sink_(std::move(sink)),
      rng_(util::derive_seed(params.seed, "requests", 0)) {
  QSA_EXPECTS(params_.rate_per_min >= 0);
  QSA_EXPECTS(sink_ != nullptr);
}

void RequestGenerator::start(sim::SimTime until) {
  if (params_.rate_per_min <= 0) return;
  schedule_next(until);
}

void RequestGenerator::schedule_next(sim::SimTime until) {
  const double gap_min = rng_.exponential(1.0 / params_.rate_per_min);
  const auto at = sim::within_horizon(simulator_.now(), gap_min, until);
  if (!at) return;
  simulator_.schedule_at(*at, [this, until] {
    fire();
    schedule_next(until);
  });
}

void RequestGenerator::fire() {
  if (peers_.alive_count() == 0) return;

  const auto& alive = peers_.alive_ids();
  const Application& app =
      apps_.apps()[rng_.index(apps_.apps().size())];
  const auto level = static_cast<QosLevel>(rng_.index(3));

  core::ServiceRequest req;
  req.requester = alive[rng_.index(alive.size())];
  req.abstract_path = app.path;
  req.requirement = requirement_for(level, universe_);
  req.session_duration = sim::SimTime::minutes(
      rng_.uniform(kMinSessionMin, kMaxSessionMin));

  ++count_;
  sink_(req, app, level);
}

}  // namespace qsa::workload
