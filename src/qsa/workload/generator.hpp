// Poisson request generation (Section 4.1): during each minute a configured
// number of user requests arrives on randomly chosen peers; each request is
// one of the 10 applications with a uniform QoS level and a session duration
// uniform in [1, 60] minutes.
#pragma once

#include <functional>

#include "qsa/core/aggregate.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/sim/simulator.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/workload/apps.hpp"

namespace qsa::workload {

struct RequestParams {
  std::uint64_t seed = 1;
  double rate_per_min = 100;  ///< mean request arrival rate
};

class RequestGenerator {
 public:
  /// `sink` receives each materialized request at its arrival time.
  using Sink = std::function<void(const core::ServiceRequest&,
                                  const Application&, QosLevel)>;

  RequestGenerator(sim::Simulator& simulator, const ApplicationCatalog& apps,
                   const registry::QosUniverse& universe,
                   const net::PeerTable& peers, RequestParams params,
                   Sink sink);

  /// Schedules Poisson arrivals from now until `until` (self-perpetuating;
  /// arrivals beyond `until` are not scheduled).
  void start(sim::SimTime until);

  [[nodiscard]] std::uint64_t generated() const noexcept { return count_; }

 private:
  void schedule_next(sim::SimTime until);
  void fire();

  sim::Simulator& simulator_;
  const ApplicationCatalog& apps_;
  const registry::QosUniverse& universe_;
  const net::PeerTable& peers_;
  RequestParams params_;
  Sink sink_;
  util::Rng rng_;
  std::uint64_t count_ = 0;
};

}  // namespace qsa::workload
