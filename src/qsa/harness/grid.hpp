// GridSimulation: one complete simulated P2P computing grid — peers, WAN
// model, Chord ring, service catalog and placement, probing subsystem,
// workload and churn processes, the aggregation algorithm under test, and
// session accounting. Construct it from a GridConfig, call run(), read the
// GridResult.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "qsa/core/aggregate.hpp"
#include "qsa/engine/engine.hpp"
#include "qsa/fault/fault.hpp"
#include "qsa/harness/config.hpp"
#include "qsa/index/attribute_index.hpp"
#include "qsa/metrics/timeseries.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/obs/trace.hpp"
#include "qsa/overlay/lookup.hpp"
#include "qsa/probe/resolution.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/registry/directory.hpp"
#include "qsa/registry/placement.hpp"
#include "qsa/replica/manager.hpp"
#include "qsa/session/manager.hpp"
#include "qsa/sim/simulator.hpp"
#include "qsa/util/interner.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/workload/apps.hpp"

namespace qsa::obs {
class CsvMetricSink;
}  // namespace qsa::obs

namespace qsa::harness {

/// Aggregated outcome of one simulation run.
struct GridResult {
  std::uint64_t requests = 0;
  std::uint64_t successes = 0;  ///< completed (or still healthy at horizon)
  std::uint64_t failures_discovery = 0;
  std::uint64_t failures_composition = 0;
  std::uint64_t failures_selection = 0;
  std::uint64_t failures_admission = 0;
  std::uint64_t failures_departure = 0;

  /// The paper's metric psi = successes / requests (1.0 when no requests).
  [[nodiscard]] double success_ratio() const noexcept {
    return requests == 0
               ? 1.0
               : static_cast<double>(successes) / static_cast<double>(requests);
  }

  /// psi per sample window, bucketed by request *arrival* time (how the
  /// fluctuation figures attribute outcomes).
  metrics::TimeSeries series;

  /// Protocol/overhead observations.
  std::uint64_t notification_messages = 0;
  std::uint64_t lookup_hops = 0;
  std::uint64_t setup_latency_ms = 0;  ///< summed discovery latency
  std::uint64_t random_fallback_hops = 0;
  std::uint64_t churn_departures = 0;
  std::uint64_t churn_arrivals = 0;
  double avg_composition_cost = 0;  ///< mean over composed requests
  /// Mean co-location share at admission — the fraction of a service's
  /// active sessions funneled onto the chosen host (see
  /// SessionManager::mean_service_concentration); 0 when load tracking and
  /// replication are both off.
  double avg_service_concentration = 0;
  /// Every other run-level count, by name in name order. run() writes each
  /// once, at the end, from the subsystem that owns it.
  std::map<std::string, std::uint64_t, std::less<>> counters;

  /// The named count; 0 when the run did not export it.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Wall-clock phase timings of one run, always measured; GridConfig::profile
/// gates only their export. Host-clock measurements: useful for perf work,
/// never fed back into the simulation.
struct ProfileReport {
  double bootstrap_ms = 0;    ///< population bootstrap (after construction)
  // Bootstrap sub-phases (they sum to bootstrap_ms up to the timers' own
  // cost; catalog and subsystem construction is in neither):
  double bootstrap_peers_ms = 0;      ///< peer creation + overlay joins
  double bootstrap_overlay_ms = 0;    ///< stabilize_all (parallel on big rings)
  double bootstrap_placement_ms = 0;  ///< provider placement draws
  double bootstrap_publish_ms = 0;    ///< directory publish_all
  double run_ms = 0;          ///< the discrete-event loop
  double aggregate_ms = 0;    ///< summed wall time inside aggregate()
  double admission_ms = 0;    ///< summed wall time inside start_session()
  std::uint64_t events = 0;   ///< events executed by the loop
  double events_per_sec = 0;  ///< events / run wall-clock
  std::size_t queue_peak = 0; ///< live-event high-water mark
};

class GridSimulation {
 public:
  /// Requires `config.validate()` to be empty: a broken rule aborts with
  /// the rule as the message.
  explicit GridSimulation(GridConfig config);
  ~GridSimulation();

  GridSimulation(const GridSimulation&) = delete;
  GridSimulation& operator=(const GridSimulation&) = delete;

  /// Runs the configured horizon and returns the accounting.
  GridResult run();

  /// Injects one request immediately (examples/tests drive the grid
  /// manually with this instead of the Poisson generator).
  core::AggregationPlan submit_request(const core::ServiceRequest& request);

  // --- component access for examples, tests and ablations ---
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] net::PeerTable& peers() noexcept { return *peers_; }
  [[nodiscard]] net::NetworkModel& network() noexcept { return *network_; }
  [[nodiscard]] overlay::LookupService& ring() noexcept { return *ring_; }
  [[nodiscard]] registry::ServiceCatalog& catalog() noexcept {
    return catalog_;
  }
  [[nodiscard]] registry::PlacementMap& placement() noexcept {
    return placement_;
  }
  [[nodiscard]] const registry::QosUniverse& universe() const noexcept {
    return universe_;
  }
  [[nodiscard]] const workload::ApplicationCatalog& apps() const noexcept {
    return *apps_;
  }
  [[nodiscard]] registry::ServiceDirectory& directory() noexcept {
    return *directory_;
  }
  /// The discovery backend candidate lookups actually route through: the
  /// attribute index under --discovery=dht, the directory otherwise.
  [[nodiscard]] registry::DiscoveryBackend& discovery() noexcept {
    return index_ != nullptr
               ? static_cast<registry::DiscoveryBackend&>(*index_)
               : static_cast<registry::DiscoveryBackend&>(*directory_);
  }
  [[nodiscard]] session::SessionManager& sessions() noexcept {
    return *manager_;
  }
  [[nodiscard]] const GridConfig& config() const noexcept { return config_; }

  /// The fault-injection plan; non-null iff `config.faults` enables any
  /// loss or delay.
  [[nodiscard]] const fault::FaultPlan* faults() const noexcept {
    return fault_plan_.get();
  }

  /// The replication tier; non-null iff `config.replication.enabled`.
  [[nodiscard]] const replica::ReplicaManager* replicas() const noexcept {
    return replica_.get();
  }

  /// Wall-clock phase timings: the bootstrap phases once constructed, the
  /// rest once run() returns.
  [[nodiscard]] const ProfileReport& profile_report() const noexcept {
    return profile_;
  }

  /// The trace/metrics instruments; non-null iff `config.observe` is set.
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] obs::MetricsRegistry* metrics() noexcept {
    return metrics_.get();
  }

  /// The failure flight recorder; non-null iff `config.flight_recorder > 0`
  /// (and observing).
  [[nodiscard]] obs::FlightRecorder* flight() noexcept {
    return tracer_ != nullptr ? tracer_->flight() : nullptr;
  }

  /// Attaches the streaming span writer (not owned). Must be wired before
  /// run() — completed requests flush incrementally, so spans routed while
  /// no writer is attached are gone. No-op when not observing.
  void set_span_sink(obs::JsonlSpanSink* sink) noexcept {
    if (tracer_ != nullptr) tracer_->set_sink(sink);
  }

  /// Attaches the streaming time-series writer (not owned); same wiring
  /// rule as set_span_sink(). It receives rows only when
  /// `config.obs_window` is non-zero (and observing): only then is a window
  /// event scheduled.
  void set_series_sink(obs::CsvMetricSink* sink) noexcept {
    series_sink_ = sink;
  }

  /// Departs a peer through the full churn path (sessions, placement, ring,
  /// neighbor state, table).
  void depart_peer(net::PeerId peer);

  /// Adds a fresh peer (random capacity, hosts a few random instances).
  net::PeerId arrive_peer();

 private:
  void bootstrap();
  void handle_request(const core::ServiceRequest& request);
  /// The psi sample window an instant falls in.
  [[nodiscard]] std::size_t window_of(sim::SimTime t) const noexcept {
    return static_cast<std::size_t>(t.as_millis() /
                                    config_.sample_period.as_millis());
  }
  /// Counts a success for the request that arrived at `arrival`; its
  /// attempt (and window) was counted then.
  void record_success(sim::SimTime arrival);
  /// Emits the setup-phase spans (discovery -> composition -> selection ->
  /// admission) of one aggregation attempt. `cause` is the attempt's
  /// outcome; `will_retry` marks a non-terminal admission failure.
  void trace_setup(std::uint64_t request_id, sim::SimTime now,
                   const core::AggregationPlan& plan,
                   core::FailureCause cause, bool will_retry, int attempt);
  /// The obs-window event: writes one live-series row per tracked value.
  void sample_series();
  /// Recovery policy: the downstream neighbor of the failed hop re-runs one
  /// dynamic-peer-selection step over the surviving providers.
  net::PeerId select_replacement(const session::Session& s,
                                 std::size_t position, net::PeerId failed);

  /// Adapts the discrete-event simulator's clock to the engine's time seam.
  struct SimClock final : engine::Clock {
    explicit SimClock(const sim::Simulator& s) noexcept : sim(&s) {}
    [[nodiscard]] sim::SimTime now() const override { return sim->now(); }
    const sim::Simulator* sim;
  };

  GridConfig config_;
  util::Interner interner_;
  registry::QosUniverse universe_;
  qos::AnalyticTranslator translator_;
  registry::ServiceCatalog catalog_;
  std::unique_ptr<workload::ApplicationCatalog> apps_;

  sim::Simulator simulator_;
  SimClock sim_clock_{simulator_};
  std::unique_ptr<net::PeerTable> peers_;
  std::unique_ptr<net::NetworkModel> network_;
  std::unique_ptr<overlay::LookupService> ring_;
  registry::PlacementMap placement_;
  std::unique_ptr<registry::ServiceDirectory> directory_;
  // The --discovery=dht backend; null in directory mode (knobs-off
  // construction is unchanged).
  std::unique_ptr<index::AttributeIndex> index_;
  std::unique_ptr<probe::NeighborResolution> neighbors_;
  std::unique_ptr<engine::ServingEngine> engine_;
  std::unique_ptr<session::SessionManager> manager_;
  std::unique_ptr<core::PeerSelector> recovery_selector_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  std::unique_ptr<replica::ReplicaManager> replica_;

  util::Rng grid_rng_;
  util::Rng recovery_rng_;

  // Outcome accounting bucketed by arrival window. An admitted request's
  // outcome arrives with its session, which carries the request number
  // (Session::trace_id) and the arrival instant (Session::start).
  struct Window {
    std::uint64_t attempts = 0;
    std::uint64_t successes = 0;
  };
  std::vector<Window> windows_;
  GridResult result_;
  ProfileReport profile_;
  double composition_cost_sum_ = 0;
  std::uint64_t composed_ = 0;
  std::uint64_t admission_retries_ = 0;

  // Observability (only allocated when config.observe is set); the
  // histogram handles are resolved once at construction.
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::CsvMetricSink* series_sink_ = nullptr;
  obs::Histogram* lookup_hops_hist_ = nullptr;
  obs::Histogram* setup_latency_hist_ = nullptr;
  obs::Histogram* composition_cost_hist_ = nullptr;
  obs::Histogram* path_length_hist_ = nullptr;
  // Windowed psi accounting for the live series (reset every obs window).
  std::uint64_t obs_window_attempts_ = 0;
  std::uint64_t obs_window_successes_ = 0;
};

}  // namespace qsa::harness
