// Quickstart: build a small P2P computing grid, submit one application
// request through the full QSA pipeline (discover -> compose -> select ->
// admit), and watch the session run to completion.
//
//   ./examples/quickstart [--peers=500] [--seed=42]
#include <cstdio>

#include "qsa/harness/grid.hpp"
#include "qsa/util/flags.hpp"
#include "qsa/workload/apps.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);

  // 1. Configure a grid. GridConfig defaults to the paper's Section 4.1
  //    setup; we shrink it so the example runs instantly.
  harness::GridConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.peers = static_cast<std::size_t>(util::get_int_in(
      flags, "peers", 500, 1, harness::kMaxPeers, "quickstart"));
  util::reject_unknown_flags(flags, "quickstart");
  config.min_providers = 20;
  config.max_providers = 40;
  harness::GridSimulation grid(config);

  std::printf("grid: %zu peers, %zu services, %zu service instances\n",
              grid.peers().alive_count(), grid.catalog().service_count(),
              grid.catalog().instance_count());

  // 2. Build a user request: the first generated application, an "average"
  //    end-to-end QoS requirement, a 10-minute session.
  const workload::Application& app = grid.apps().apps()[0];
  core::ServiceRequest request;
  request.requester = grid.peers().alive_ids()[0];
  request.abstract_path = app.path;
  request.requirement = workload::requirement_for(
      workload::QosLevel::kAverage, grid.universe());
  request.session_duration = sim::SimTime::minutes(10);

  std::printf("request: app%u with %zu services, average QoS, 10 min, "
              "from peer %u\n",
              app.id, app.path.size(), request.requester);

  // 3. Aggregate: tier 1 (discovery + QCS composition) and tier 2
  //    (hop-by-hop dynamic peer selection).
  const core::AggregationPlan plan = grid.submit_request(request);
  if (!plan.ok()) {
    std::printf("aggregation failed: %s\n",
                std::string(core::to_string(plan.failure)).c_str());
    return 1;
  }
  std::printf("composed service path (cost %.4f, %d lookup hops):\n",
              plan.composition_cost, plan.lookup_hops);
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& inst = grid.catalog().instance(plan.instances[i]);
    std::printf("  hop %zu: %-14s instance %-4u on peer %-5u R=%s b=%.0f kbps\n",
                plan.instances.size() - i,  // hop index, sink = hop 1
                grid.catalog().service(inst.service).name.c_str(), inst.id,
                plan.hosts[i], inst.resources.to_string().c_str(),
                inst.bandwidth_kbps);
  }

  // 4. Admit the session (reserves resources along the whole path) and run
  //    the simulation until it completes.
  const auto cause = grid.sessions().start_session(request, plan);
  if (cause != core::FailureCause::kNone) {
    std::printf("admission failed: %s\n",
                std::string(core::to_string(cause)).c_str());
    return 1;
  }
  std::printf("session admitted; %zu active session(s)\n",
              grid.sessions().active_sessions());

  grid.simulator().run_until(sim::SimTime::minutes(11));
  std::printf("after 11 simulated minutes: %zu active, %llu completed\n",
              grid.sessions().active_sessions(),
              static_cast<unsigned long long>(grid.sessions().stats().completed));
  return 0;
}
