// Content retrieval: the paper's single-hop aggregation example. Many peers
// request the same content service; the example contrasts how QSA's
// Phi-driven peer selection spreads load across replica providers while the
// fixed (client-server) strategy piles every session onto one dedicated
// host.
//
//   ./examples/content_retrieval [--requests=300]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

#include "qsa/harness/grid.hpp"
#include "qsa/util/flags.hpp"
#include "qsa/workload/apps.hpp"

using namespace qsa;

namespace {

/// Runs `n` single-service requests through a grid and reports the host
/// distribution plus admission outcomes.
struct Outcome {
  std::map<net::PeerId, int> host_histogram;
  int admitted = 0;
  int rejected = 0;
};

Outcome drive(harness::GridSimulation& grid, int n) {
  Outcome out;
  // Pick the shortest generated application as the "content" app.
  const workload::Application* app = &grid.apps().apps()[0];
  for (const auto& a : grid.apps().apps()) {
    if (a.path.size() < app->path.size()) app = &a;
  }
  util::Rng rng(99);
  for (int i = 0; i < n; ++i) {
    core::ServiceRequest req;
    const auto& alive = grid.peers().alive_ids();
    req.requester = alive[rng.index(alive.size())];
    req.abstract_path = app->path;
    req.requirement =
        workload::requirement_for(workload::QosLevel::kLow, grid.universe());
    req.session_duration = sim::SimTime::minutes(30);
    const auto plan = grid.submit_request(req);
    if (!plan.ok()) {
      ++out.rejected;
      continue;
    }
    if (grid.sessions().start_session(req, plan) == core::FailureCause::kNone) {
      ++out.admitted;
      // Count the host of the *sink* hop (the content server).
      ++out.host_histogram[plan.hosts.back()];
    } else {
      ++out.rejected;
    }
  }
  return out;
}

void report(const char* name, const Outcome& o) {
  int max_load = 0;
  for (const auto& [host, count] : o.host_histogram) {
    max_load = std::max(max_load, count);
  }
  std::printf("%-8s admitted %-4d rejected %-4d distinct hosts %-3zu "
              "max sessions on one host %d\n",
              name, o.admitted, o.rejected, o.host_histogram.size(), max_load);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int requests = static_cast<int>(
      util::get_int_in(flags, "requests", 300, 1,
                       std::numeric_limits<int>::max(), "content_retrieval"));
  util::reject_unknown_flags(flags, "content_retrieval");

  harness::GridConfig config;
  config.seed = 21;
  config.peers = 600;
  config.min_providers = 25;
  config.max_providers = 50;
  config.apps.applications = 5;
  config.apps.min_path_len = 1;  // content retrieval = single hop
  config.apps.max_path_len = 3;

  std::printf("content retrieval, %d concurrent 30-minute sessions\n\n",
              requests);

  Outcome qsa_out, fixed_out;
  {
    auto c = config;
    c.algorithm = harness::AlgorithmKind::kQsa;
    harness::GridSimulation grid(c);
    qsa_out = drive(grid, requests);
  }
  {
    auto c = config;
    c.algorithm = harness::AlgorithmKind::kFixed;
    harness::GridSimulation grid(c);
    fixed_out = drive(grid, requests);
  }

  report("qsa", qsa_out);
  report("fixed", fixed_out);

  std::printf("\nQSA spreads sessions across replica providers (load "
              "balance); fixed funnels them into dedicated servers until "
              "admission control rejects the overflow — the paper's "
              "client-server comparison in miniature.\n");
  return 0;
}
