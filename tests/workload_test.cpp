// Workload generation: application catalog, Poisson request process, churn.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "qsa/qos/translator.hpp"
#include "qsa/workload/apps.hpp"
#include "qsa/workload/churn.hpp"
#include "qsa/workload/generator.hpp"

namespace qsa::workload {
namespace {

using net::PeerId;
using sim::SimTime;

struct WorkloadFixture : ::testing::Test {
  WorkloadFixture()
      : universe(registry::QosUniverse::standard(interner)),
        translator(universe.level,
                   qos::AnalyticTranslator::paper_coefficients()),
        peers(qos::ResourceSchema::paper(),
              net::ProbeClock(SimTime::seconds(30))) {
    for (int i = 0; i < 50; ++i) {
      peers.add_peer(qos::ResourceVector{500, 500}, SimTime::minutes(-10));
    }
  }

  ApplicationCatalog make_apps(AppCatalogParams params = {}) {
    return ApplicationCatalog(services, universe, translator, params,
                              /*seed=*/1);
  }

  util::Interner interner;
  registry::QosUniverse universe;
  qos::AnalyticTranslator translator;
  registry::ServiceCatalog services;
  net::PeerTable peers;
  sim::Simulator simulator;
};

// -------------------------------------------------------------- app catalog

TEST_F(WorkloadFixture, BuildsConfiguredApplicationCount) {
  const auto apps = make_apps();
  EXPECT_EQ(apps.apps().size(), 10u);  // paper: 10 applications
}

TEST_F(WorkloadFixture, PathLengthsWithinPaperBounds) {
  const auto apps = make_apps();
  for (const auto& app : apps.apps()) {
    EXPECT_GE(app.path.size(), 2u);
    EXPECT_LE(app.path.size(), 5u);
  }
}

TEST_F(WorkloadFixture, EveryServiceHasInstances) {
  const auto apps = make_apps();
  for (const auto& app : apps.apps()) {
    for (const auto svc : app.path) {
      const auto n = services.instances_of(svc).size();
      EXPECT_GE(n, 10u);
      EXPECT_LE(n, 20u);
    }
  }
}

TEST_F(WorkloadFixture, OnlySourcesLackInput) {
  const auto apps = make_apps();
  for (const auto& app : apps.apps()) {
    for (std::size_t i = 0; i < app.path.size(); ++i) {
      for (const auto inst : services.instances_of(app.path[i])) {
        EXPECT_EQ(services.instance(inst).qin.empty(), i == 0);
      }
    }
  }
}

TEST_F(WorkloadFixture, AppsAreSeedDeterministic) {
  registry::ServiceCatalog cat2;
  ApplicationCatalog a1 = make_apps();
  ApplicationCatalog a2(cat2, universe, translator, AppCatalogParams{},
                        /*seed=*/1);
  ASSERT_EQ(a1.apps().size(), a2.apps().size());
  for (std::size_t i = 0; i < a1.apps().size(); ++i) {
    EXPECT_EQ(a1.apps()[i].path.size(), a2.apps()[i].path.size());
  }
}

TEST(QosLevels, RequirementFloorsOrdered) {
  util::Interner interner;
  const auto u = registry::QosUniverse::standard(interner);
  const auto low = requirement_for(QosLevel::kLow, u);
  const auto avg = requirement_for(QosLevel::kAverage, u);
  const auto high = requirement_for(QosLevel::kHigh, u);
  EXPECT_LT(low.get(u.level)->lo(), avg.get(u.level)->lo());
  EXPECT_LT(avg.get(u.level)->lo(), high.get(u.level)->lo());
  EXPECT_DOUBLE_EQ(high.get(u.level)->hi(), 100.0);
}

TEST(QosLevels, Names) {
  EXPECT_EQ(to_string(QosLevel::kLow), "low");
  EXPECT_EQ(to_string(QosLevel::kAverage), "average");
  EXPECT_EQ(to_string(QosLevel::kHigh), "high");
}

// --------------------------------------------------------- request process

TEST_F(WorkloadFixture, GeneratesRoughlyRateTimesMinutes) {
  const auto apps = make_apps();
  RequestParams params;
  params.rate_per_min = 50;
  int count = 0;
  RequestGenerator gen(simulator, apps, universe, peers, params,
                       [&](const core::ServiceRequest&, const Application&,
                           QosLevel) { ++count; });
  gen.start(SimTime::minutes(100));
  simulator.run_until(SimTime::minutes(100));
  EXPECT_NEAR(count, 5000, 400);  // Poisson: ~3 sigma is ~212
  EXPECT_EQ(gen.generated(), static_cast<std::uint64_t>(count));
}

TEST_F(WorkloadFixture, InterArrivalsAreExponentialish) {
  const auto apps = make_apps();
  RequestParams params;
  params.rate_per_min = 60;
  std::vector<double> stamps;
  RequestGenerator gen(simulator, apps, universe, peers, params,
                       [&](const core::ServiceRequest&, const Application&,
                           QosLevel) {
                         stamps.push_back(simulator.now().as_minutes());
                       });
  gen.start(SimTime::minutes(200));
  simulator.run_until(SimTime::minutes(200));
  ASSERT_GT(stamps.size(), 1000u);
  // Coefficient of variation of exponential gaps is 1.
  double mean = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    mean += stamps[i] - stamps[i - 1];
  }
  mean /= static_cast<double>(stamps.size() - 1);
  double var = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    const double d = stamps[i] - stamps[i - 1] - mean;
    var += d * d;
  }
  var /= static_cast<double>(stamps.size() - 2);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.15);
}

TEST_F(WorkloadFixture, RequestFieldsWithinBounds) {
  const auto apps = make_apps();
  RequestParams params;
  params.rate_per_min = 100;
  RequestGenerator gen(
      simulator, apps, universe, peers, params,
      [&](const core::ServiceRequest& req, const Application& app,
          QosLevel) {
        EXPECT_TRUE(peers.alive(req.requester));
        EXPECT_EQ(req.abstract_path, app.path);
        EXPECT_GE(req.session_duration, SimTime::minutes(1));
        EXPECT_LE(req.session_duration, SimTime::minutes(60));
        EXPECT_FALSE(req.requirement.empty());
      });
  gen.start(SimTime::minutes(10));
  simulator.run_until(SimTime::minutes(10));
}

TEST_F(WorkloadFixture, AllLevelsAndAppsExercised) {
  const auto apps = make_apps();
  RequestParams params;
  params.rate_per_min = 200;
  std::map<std::uint32_t, int> app_counts;
  std::map<QosLevel, int> level_counts;
  RequestGenerator gen(simulator, apps, universe, peers, params,
                       [&](const core::ServiceRequest&, const Application& a,
                           QosLevel l) {
                         ++app_counts[a.id];
                         ++level_counts[l];
                       });
  gen.start(SimTime::minutes(30));
  simulator.run_until(SimTime::minutes(30));
  EXPECT_EQ(app_counts.size(), 10u);
  EXPECT_EQ(level_counts.size(), 3u);
}

TEST_F(WorkloadFixture, ZeroRateGeneratesNothing) {
  // A vanishing rate draws gaps far past SimTime's range (~1e20 minutes);
  // they must end the process, not wrap into the past and flood the run.
  const auto apps = make_apps();
  for (const double rate : {0.0, 1e-20}) {
    RequestParams params;
    params.rate_per_min = rate;
    RequestGenerator gen(simulator, apps, universe, peers, params,
                         [&](const core::ServiceRequest&, const Application&,
                             QosLevel) { FAIL() << "no requests expected"; });
    const SimTime end = simulator.now() + SimTime::minutes(100);
    gen.start(end);
    simulator.run_until(end);
    EXPECT_EQ(gen.generated(), 0u) << rate;
  }
}

TEST_F(WorkloadFixture, StopsAtHorizon) {
  const auto apps = make_apps();
  RequestParams params;
  params.rate_per_min = 30;
  SimTime last = SimTime::zero();
  RequestGenerator gen(simulator, apps, universe, peers, params,
                       [&](const core::ServiceRequest&, const Application&,
                           QosLevel) { last = simulator.now(); });
  gen.start(SimTime::minutes(10));
  simulator.run_until(SimTime::minutes(50));
  EXPECT_LE(last, SimTime::minutes(10));
}

// ----------------------------------------------------------------- churn

TEST_F(WorkloadFixture, ChurnAlternatesDeparturesAndArrivals) {
  ChurnParams params;
  params.events_per_min = 10;
  int departures = 0, arrivals = 0;
  ChurnProcess churn(
      simulator, peers, params,
      [&](PeerId p) {
        ++departures;
        peers.remove_peer(p, simulator.now());
      },
      [&] {
        ++arrivals;
        peers.add_peer(qos::ResourceVector{500, 500}, simulator.now());
      });
  churn.start(SimTime::minutes(60));
  simulator.run_until(SimTime::minutes(60));
  EXPECT_NEAR(departures + arrivals, 600, 100);
  EXPECT_NEAR(departures, arrivals, 1);
  EXPECT_EQ(churn.departures(), static_cast<std::uint64_t>(departures));
  EXPECT_EQ(churn.arrivals(), static_cast<std::uint64_t>(arrivals));
}

TEST_F(WorkloadFixture, ChurnTargetsYoungPeers) {
  // Half the peers are old, half fresh; youngest-of-8 sampling must evict
  // mostly fresh ones.
  net::PeerTable mixed(qos::ResourceSchema::paper(),
                       net::ProbeClock(SimTime::seconds(30)));
  for (int i = 0; i < 100; ++i) {
    mixed.add_peer(qos::ResourceVector{500, 500}, SimTime::minutes(-1000));
  }
  for (int i = 0; i < 100; ++i) {
    mixed.add_peer(qos::ResourceVector{500, 500}, SimTime::minutes(-1));
  }
  ChurnParams params;
  params.events_per_min = 4;  // ~2 departures/min over 30 min = ~60
  int young_evicted = 0, old_evicted = 0;
  ChurnProcess churn(
      simulator, mixed, params,
      [&](PeerId p) {
        (mixed.peer(p).join_time() < SimTime::minutes(-500) ? old_evicted
                                                            : young_evicted)++;
        mixed.remove_peer(p, simulator.now());
      },
      [&] {
        mixed.add_peer(qos::ResourceVector{500, 500}, simulator.now());
      });
  churn.start(SimTime::minutes(30));
  simulator.run_until(SimTime::minutes(30));
  EXPECT_GT(young_evicted, 3 * std::max(1, old_evicted));
}

TEST_F(WorkloadFixture, ZeroChurnIsInert) {
  // As for requests, a vanishing rate's huge gaps end the process.
  for (const double rate : {0.0, 1e-20}) {
    ChurnParams params;
    params.events_per_min = rate;
    ChurnProcess churn(
        simulator, peers, params, [&](PeerId) { FAIL(); }, [&] { FAIL(); });
    const SimTime end = simulator.now() + SimTime::minutes(100);
    churn.start(end);
    simulator.run_until(end);
    EXPECT_EQ(churn.departures(), 0u) << rate;
  }
}

}  // namespace
}  // namespace qsa::workload
