#include "qsa/harness/grid.hpp"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "qsa/obs/sink.hpp"
#include "qsa/overlay/can_overlay.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/overlay/pastry_overlay.hpp"
#include "qsa/qos/translator.hpp"
#include "qsa/util/expects.hpp"
#include "qsa/workload/generator.hpp"

namespace qsa::harness {
namespace {

// Population and overlay parameters shared by every grid.
constexpr double kMinCapacity = 100;       ///< per-kind units, paper: [100,100]
constexpr double kMaxCapacity = 1000;      ///< paper: [1000,1000]
constexpr double kMaxInitialAgeMin = 180;  ///< pre-aged uptime at t = 0
constexpr int kArrivalHostedMin = 2;  ///< instances a churn arrival hosts
constexpr int kArrivalHostedMax = 5;
constexpr int kOverlayReplicas = 4;  ///< every overlay's key replication factor

/// Adds the host wall time of its scope, in milliseconds, to `ms`. The one
/// timing path of a run: the ProfileReport fields are always measured, and
/// GridConfig::profile gates only their export.
class ScopedWallTimer {
 public:
  explicit ScopedWallTimer(double& ms) noexcept
      : ms_(ms), t0_(Clock::now()) {}
  ~ScopedWallTimer() {
    ms_ += std::chrono::duration<double, std::milli>(Clock::now() - t0_)
               .count();
  }
  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  double& ms_;
  Clock::time_point t0_;
};

}  // namespace

GridSimulation::GridSimulation(GridConfig config)
    : config_(std::move(config)),
      universe_(registry::QosUniverse::standard(interner_)),
      translator_(universe_.level,
                  qos::AnalyticTranslator::paper_coefficients()),
      grid_rng_(util::derive_seed(config_.seed, "grid", 0)),
      recovery_rng_(util::derive_seed(config_.seed, "recovery", 0)) {
  if (const std::string_view rule = config_.validate(); !rule.empty()) {
    util::contract_failure("precondition", std::string(rule).c_str(),
                           __FILE__, __LINE__);
  }
  // Applications + abstract services + service instances.
  apps_ = std::make_unique<workload::ApplicationCatalog>(
      catalog_, universe_, translator_, config_.apps,
      util::derive_seed(config_.seed, "apps-root", 0));

  const net::ProbeClock clock(config_.probe_period);
  peers_ = std::make_unique<net::PeerTable>(qos::ResourceSchema::paper(), clock);
  network_ = std::make_unique<net::NetworkModel>(
      util::derive_seed(config_.seed, "network", 0), clock,
      config_.net_model);
  switch (config_.overlay) {
    case OverlayKind::kChord:
      ring_ = std::make_unique<overlay::ChordRing>(
          util::derive_seed(config_.seed, "chord", 0), kOverlayReplicas);
      break;
    case OverlayKind::kCan:
      ring_ = std::make_unique<overlay::CanOverlay>(
          util::derive_seed(config_.seed, "can", 0), kOverlayReplicas);
      break;
    case OverlayKind::kPastry:
      ring_ = std::make_unique<overlay::PastryOverlay>(
          util::derive_seed(config_.seed, "pastry", 0), kOverlayReplicas);
      break;
  }
  directory_ = std::make_unique<registry::ServiceDirectory>(
      util::derive_seed(config_.seed, "directory", 0), *ring_, catalog_);
  if (config_.discovery == DiscoveryKind::kDht) {
    index_ = std::make_unique<index::AttributeIndex>(
        util::derive_seed(config_.seed, "index", 0), *ring_, catalog_,
        placement_, *peers_, universe_.level, sim_clock_);
  }
  neighbors_ = std::make_unique<probe::NeighborResolution>(
      config_.probe_budget, config_.neighbor_ttl);
  manager_ = std::make_unique<session::SessionManager>(simulator_, *peers_,
                                                       *network_, catalog_);

  if (config_.faults.enabled()) {
    fault_plan_ = std::make_unique<fault::FaultPlan>(
        util::derive_seed(config_.seed, "fault", 0), config_.faults);
    ring_->set_faults(fault_plan_.get());
    neighbors_->set_faults(fault_plan_.get());
    manager_->set_faults(fault_plan_.get());
  }

  // The composition+selection hot path lives in the sim-free serving
  // facade; the simulation is one of its drivers (a standalone request loop
  // over a ManualClock is another). Constructed before the observe block:
  // the engine sets the directory's cache TTL, which must precede
  // directory_->set_metrics (the cache counters are gated on the TTL cache
  // being enabled).
  {
    engine::EngineConfig ec;
    ec.seed = config_.seed;
    ec.algorithm = config_.algorithm;
    ec.qsa_options = config_.qsa_options;
    ec.bandwidth_weight = config_.bandwidth_weight;
    ec.compose_caches = config_.compose_caches;
    ec.discovery_cache_ttl = config_.discovery_cache_ttl;
    engine::EngineDeps deps;
    deps.catalog = &catalog_;
    deps.placement = &placement_;
    deps.directory = directory_.get();
    deps.discovery = index_.get();  // null = the directory answers lookups
    deps.peers = peers_.get();
    deps.net = network_.get();
    deps.neighbors = neighbors_.get();
    engine_ = std::make_unique<engine::ServingEngine>(ec, deps);
  }

  if (config_.observe) {
    obs::TraceConfig tc;
    tc.seed = config_.seed;
    tc.sample_every = config_.trace_sample;
    tc.flight_capacity = config_.flight_recorder;
    tracer_ = std::make_unique<obs::Tracer>(tc);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    // Exactly one backend's lookup metrics register: directory.* names in
    // directory mode, index.* in dht mode — never both.
    if (index_ != nullptr) {
      index_->set_metrics(metrics_.get());
    } else {
      directory_->set_metrics(metrics_.get());
    }
    neighbors_->set_metrics(metrics_.get(), network_.get());
    manager_->set_observability(tracer_.get(), metrics_.get());
    lookup_hops_hist_ = &metrics_->histogram("aggregate.lookup_hops");
    setup_latency_hist_ = &metrics_->histogram("aggregate.setup_latency_ms");
    composition_cost_hist_ =
        &metrics_->histogram("aggregate.composition_cost");
    path_length_hist_ = &metrics_->histogram("aggregate.path_length");
    // Gated on the plan so that with faults off no fault.* metric name is
    // ever registered and exported output stays identical.
    if (fault_plan_ != nullptr) fault_plan_->set_metrics(metrics_.get());
    // Same gating for cache.compat.*: the engine only forwards to the memo
    // when it exists.
    engine_->set_metrics(metrics_.get());
  }

  const qos::TupleWeights& weights = engine_->weights();

  // The replication tier hears the demand of every request handle_request
  // sets up (admissions, rejections, selection failures, and the end of the
  // sessions it admitted) and widens hot provider pools through placement +
  // directory publish. Constructed only when enabled: a disabled config
  // schedules nothing and registers no metric names, keeping output
  // byte-identical.
  if (config_.replication.enabled) {
    replica_ = std::make_unique<replica::ReplicaManager>(
        util::derive_seed(config_.seed, "replica", 0), config_.replication,
        catalog_, placement_, discovery(), *peers_, *network_, weights,
        peers_->schema());
    if (metrics_ != nullptr) replica_->set_metrics(metrics_.get());
    // The load-balancing half of the tier: selection subtracts each
    // candidate's same-epoch reservations from its probed availability, so
    // sessions admitted within one probe epoch see near-live headroom and
    // spread across the widened pool instead of piling onto the stale
    // snapshot's single Phi maximizer (and then failing at reservation).
    engine_->algorithm().set_load_signal(
        [this](net::PeerId p) { return manager_->epoch_reservations(p); });
  }
  // Concentration accounting rides along with replication (its evaluation
  // metric) and can be requested on its own.
  manager_->set_load_tracking(config_.track_load ||
                              config_.replication.enabled);

  if (config_.enable_recovery) {
    recovery_selector_ = std::make_unique<core::PeerSelector>(
        weights, peers_->schema(), config_.qsa_options.use_uptime_filter);
    manager_->set_recovery([this](const session::Session& s,
                                  std::size_t position, net::PeerId failed) {
      return select_replacement(s, position, failed);
    });
  }

  manager_->set_outcome_callback(
      [this](const session::Session& s, core::FailureCause cause) {
        // Sessions injected directly via sessions().start_session (examples,
        // tests) carry no request number and bypass request accounting.
        if (s.trace_id == 0) return;
        const bool success = cause == core::FailureCause::kNone;
        if (success) {
          record_success(s.start);
        } else {
          QSA_ASSERT(cause == core::FailureCause::kDeparture);
          ++result_.failures_departure;
        }
        ++obs_window_attempts_;
        if (success) ++obs_window_successes_;
        // The request is over: its running/teardown spans are closed (the
        // manager emits them before this callback), so route the chain and
        // recycle its nodes.
        if (tracer_ != nullptr) tracer_->finish(s.trace_id);
        if (replica_ != nullptr) replica_->on_session_ended(s.instances);
      });

  ScopedWallTimer timer(profile_.bootstrap_ms);
  bootstrap();
}

GridSimulation::~GridSimulation() = default;

void GridSimulation::bootstrap() {
  // Peers, pre-aged so uptimes are meaningful at t = 0. Deferred joins:
  // nothing routes until the stabilize below, which (re)builds every
  // finger table wholesale — per-join finger computation would be thrown
  // away, and skipping it roughly halves million-peer bootstrap. The RNG
  // draws are a strict sequence, so this loop stays serial.
  {
    ScopedWallTimer timer(profile_.bootstrap_peers_ms);
    peers_->reserve(config_.peers);
    for (std::size_t i = 0; i < config_.peers; ++i) {
      const double tier = grid_rng_.uniform(kMinCapacity, kMaxCapacity);
      const double age_min = grid_rng_.uniform(0.0, kMaxInitialAgeMin);
      const net::PeerId id =
          peers_->add_peer(qos::ResourceVector{tier, tier},
                           sim::SimTime::minutes(-age_min));
      ring_->join_deferred(id);
    }
  }

  // Finger-table rebuild: per-node state is a pure function of the
  // membership snapshot, so the overlay may fan it out over threads with
  // byte-identical results (Chord does from 2048 nodes up).
  {
    ScopedWallTimer timer(profile_.bootstrap_overlay_ms);
    ring_->stabilize_all();
  }

  // Placement: each instance gets 40-80 distinct random providers.
  {
    ScopedWallTimer timer(profile_.bootstrap_placement_ms);
    for (registry::InstanceId inst = 0; inst < catalog_.instance_count();
         ++inst) {
      const int copies = static_cast<int>(grid_rng_.uniform_int(
          config_.min_providers, config_.max_providers));
      const auto& alive = peers_->alive_ids();
      std::unordered_set<net::PeerId> chosen;
      while (static_cast<int>(chosen.size()) <
             std::min<int>(copies, static_cast<int>(alive.size()))) {
        chosen.insert(alive[grid_rng_.index(alive.size())]);
      }
      for (net::PeerId p : chosen) placement_.add_provider(inst, p);
    }
  }

  ScopedWallTimer timer(profile_.bootstrap_publish_ms);
  discovery().publish_all();
}

core::AggregationPlan GridSimulation::submit_request(
    const core::ServiceRequest& request) {
  return engine_->aggregate(request, simulator_.now());
}

void GridSimulation::record_success(sim::SimTime arrival) {
  ++windows_[window_of(arrival)].successes;
  ++result_.successes;
}

void GridSimulation::trace_setup(std::uint64_t request_id, sim::SimTime now,
                                 const core::AggregationPlan& plan,
                                 core::FailureCause cause, bool will_retry,
                                 int attempt) {
  using obs::Phase;
  using obs::SpanStatus;
  obs::Tracer& t = *tracer_;
  const auto verdict = [&](core::FailureCause at) {
    return cause == at ? SpanStatus::kFail : SpanStatus::kOk;
  };

  // Setup phases run within one simulator event, so spans are instantaneous
  // in sim time; the modeled latency travels as an annotation.
  const auto discovery = t.instant(
      request_id, Phase::kDiscovery, now, verdict(core::FailureCause::kDiscovery),
      cause == core::FailureCause::kDiscovery ? core::to_string(cause)
                                              : std::string_view{});
  t.annotate(discovery, "hops", static_cast<double>(plan.lookup_hops));
  t.annotate(discovery, "latency_ms",
             static_cast<double>(plan.setup_latency.as_millis()));
  if (cause == core::FailureCause::kDiscovery) return;

  const auto composition = t.instant(
      request_id, Phase::kComposition, now,
      verdict(core::FailureCause::kComposition),
      cause == core::FailureCause::kComposition ? core::to_string(cause)
                                                : std::string_view{});
  if (cause == core::FailureCause::kComposition) return;
  t.annotate(composition, "cost", plan.composition_cost);
  t.annotate(composition, "path_length",
             static_cast<double>(plan.instances.size()));

  const auto selection = t.instant(
      request_id, Phase::kSelection, now, verdict(core::FailureCause::kSelection),
      cause == core::FailureCause::kSelection ? core::to_string(cause)
                                              : std::string_view{});
  if (cause == core::FailureCause::kSelection) return;
  t.annotate(selection, "random_fallback_hops",
             static_cast<double>(plan.random_fallback_hops));

  const SpanStatus admission_status =
      cause == core::FailureCause::kNone
          ? SpanStatus::kOk
          : (will_retry ? SpanStatus::kRetry : SpanStatus::kFail);
  const auto admission = t.instant(
      request_id, Phase::kAdmission, now, admission_status,
      cause == core::FailureCause::kAdmission ? core::to_string(cause)
                                              : std::string_view{});
  t.annotate(admission, "attempt", static_cast<double>(attempt));
}

void GridSimulation::handle_request(const core::ServiceRequest& request) {
  const sim::SimTime now = simulator_.now();
  const std::size_t window = window_of(now);
  if (window >= windows_.size()) windows_.resize(window + 1);
  ++windows_[window].attempts;
  ++result_.requests;
  const std::uint64_t rid = result_.requests;  // 1-based trace id

  // The request number rides on the admitted session to its outcome (the
  // session's start is this arrival instant).
  core::ServiceRequest attempt = request;
  attempt.trace_id = rid;
  core::FailureCause cause = core::FailureCause::kNone;
  for (int tries = 0; tries <= config_.admission_retries; ++tries) {
    core::AggregationPlan plan;
    {
      ScopedWallTimer timer(profile_.aggregate_ms);
      plan = engine_->aggregate(attempt, now);
    }
    result_.lookup_hops += static_cast<std::uint64_t>(plan.lookup_hops);
    result_.setup_latency_ms +=
        static_cast<std::uint64_t>(plan.setup_latency.as_millis());
    result_.random_fallback_hops +=
        static_cast<std::uint64_t>(plan.random_fallback_hops);
    cause = plan.failure;
    if (metrics_ != nullptr) {
      lookup_hops_hist_->observe(static_cast<double>(plan.lookup_hops));
      setup_latency_hist_->observe(
          static_cast<double>(plan.setup_latency.as_millis()));
      if (plan.ok()) {
        composition_cost_hist_->observe(plan.composition_cost);
        path_length_hist_->observe(static_cast<double>(plan.instances.size()));
      }
    }
    // Counted once per request, as soon as composition succeeded (whatever
    // selection and admission do afterwards): admission retries recompose
    // the identical (host-independent) plan, and conditioning on the later
    // stages would measure the retry/selection mix rather than the
    // composition objective.
    if (tries == 0 && cause != core::FailureCause::kDiscovery &&
        cause != core::FailureCause::kComposition) {
      composition_cost_sum_ += plan.composition_cost;
      ++composed_;
    }
    if (!plan.ok()) {
      // A selection failure means no provider of some hop had probed
      // headroom — the strongest replication signal there is.
      if (replica_ != nullptr && cause == core::FailureCause::kSelection) {
        replica_->on_selection_failure(plan.instances, now);
      }
      if (tracer_ != nullptr) {
        trace_setup(rid, now, plan, cause, /*will_retry=*/false, tries);
      }
      break;
    }

    net::PeerId blamed = net::kNoPeer;
    {
      ScopedWallTimer timer(profile_.admission_ms);
      cause = manager_->start_session(attempt, plan, &blamed);
      // start_session admits (kNone) or rejects (kAdmission).
      if (replica_ != nullptr) {
        if (cause == core::FailureCause::kNone) {
          replica_->on_admitted(plan.instances, now);
        } else {
          replica_->on_rejected(plan.instances, plan.hosts, blamed, now);
        }
      }
    }
    const bool will_retry = cause == core::FailureCause::kAdmission &&
                            blamed != net::kNoPeer &&
                            tries < config_.admission_retries;
    if (tracer_ != nullptr) {
      trace_setup(rid, now, plan, cause, will_retry, tries);
    }
    if (cause != core::FailureCause::kAdmission || blamed == net::kNoPeer) {
      break;
    }
    // Second chance: exclude the peer whose reservation fell short and
    // re-select. Only worthwhile while retries remain.
    if (tries < config_.admission_retries) {
      attempt.excluded_hosts.push_back(blamed);
      ++admission_retries_;
    }
  }
  switch (cause) {
    case core::FailureCause::kNone:
      break;  // decided at completion or departure abort
    case core::FailureCause::kDiscovery:
      ++result_.failures_discovery;
      break;
    case core::FailureCause::kComposition:
      ++result_.failures_composition;
      break;
    case core::FailureCause::kSelection:
      ++result_.failures_selection;
      break;
    case core::FailureCause::kAdmission:
      ++result_.failures_admission;
      break;
    case core::FailureCause::kDeparture:
      // Set-up never reports a departure; only a running session departs,
      // and the outcome callback counts it. run()'s request.* export
      // relies on this.
      QSA_ASSERT(cause != core::FailureCause::kDeparture);
      break;
  }
  // Setup failures are terminal here and now: route the chain out of the
  // tracer and recycle its nodes. Admitted requests finish at their
  // session's outcome callback (or the horizon sweep).
  if (cause != core::FailureCause::kNone) {
    ++obs_window_attempts_;
    if (tracer_ != nullptr) tracer_->finish(rid);
  }
}

void GridSimulation::sample_series() {
  const sim::SimTime now = simulator_.now();
  // Every value is computed whether or not a writer is attached: reading a
  // hit rate creates its counters in the registry, and the metrics export
  // lists them (in dht mode nothing else registers cache.discovery.*).
  const auto write = [this, now](std::string_view name, double value) {
    if (series_sink_ != nullptr) series_sink_->on_sample(name, now, value);
  };
  const auto hit_rate = [this](std::string_view hits,
                               std::string_view misses) {
    const double h = static_cast<double>(metrics_->counter(hits).value);
    const double m = static_cast<double>(metrics_->counter(misses).value);
    return h + m > 0 ? h / (h + m) : 0.0;
  };
  // Windowed psi first (requests resolved since the last window), then the
  // instantaneous state.
  if (obs_window_attempts_ > 0) {
    write("psi.window", static_cast<double>(obs_window_successes_) /
                            static_cast<double>(obs_window_attempts_));
    obs_window_attempts_ = obs_window_successes_ = 0;
  }
  write("sim.queue_depth", static_cast<double>(simulator_.pending_events()));
  write("session.active", static_cast<double>(manager_->active_sessions()));
  if (config_.discovery_cache_ttl.as_millis() > 0) {
    write("cache.discovery.hit_rate",
          hit_rate("cache.discovery.hits", "cache.discovery.misses"));
  }
  if (engine_->compose_cache() != nullptr) {
    write("cache.compat.hit_rate",
          hit_rate("cache.compat.hits", "cache.compat.misses"));
  }
  if (replica_ != nullptr) {
    write("replica.active", static_cast<double>(replica_->active()));
  }
  write("obs.live_spans", static_cast<double>(tracer_->live_spans()));
  if (config_.profile) {
    // Cumulative host wall-clock per phase — non-deterministic values,
    // gated behind --profile like the perf.* gauges.
    write("perf.aggregate_ms", profile_.aggregate_ms);
    write("perf.admission_ms", profile_.admission_ms);
  }
}

net::PeerId GridSimulation::select_replacement(const session::Session& s,
                                               std::size_t position,
                                               net::PeerId failed) {
  const auto providers = placement_.providers(s.instances[position]);
  std::vector<net::PeerId> candidates;
  for (net::PeerId p : providers) {
    if (p != failed && peers_->alive(p)) candidates.push_back(p);
  }
  if (candidates.empty()) return net::kNoPeer;

  // The downstream consumer (who notices the stream stopping) selects.
  const net::PeerId detector = position + 1 < s.hosts.size()
                                   ? s.hosts[position + 1]
                                   : s.requester;
  if (!peers_->alive(detector)) return net::kNoPeer;
  const sim::SimTime now = simulator_.now();
  neighbors_->prepare_selection(detector, candidates, 1, /*direct=*/false,
                                now);
  const auto& inst = catalog_.instance(s.instances[position]);
  const auto sel = recovery_selector_->select_hop(
      *peers_, *network_, neighbors_->table(detector), detector, inst,
      candidates, s.end - now, now, recovery_rng_);
  return sel.peer;
}

void GridSimulation::depart_peer(net::PeerId peer) {
  if (!peers_->alive(peer)) return;
  manager_->peer_departed(peer);
  placement_.remove_peer(peer);
  // Replicas hosted on the departed peer die with it (their placement
  // entries just vanished wholesale above).
  if (replica_ != nullptr) replica_->peer_departed(peer);
  ring_->fail(peer);
  neighbors_->drop_peer(peer);
  peers_->remove_peer(peer, simulator_.now());
  // A departure changes what discovery should return (the departed peer's
  // share of the key space is gone): the directory drops cached lookups;
  // the attribute index lets the lost postings age out via the epoch sweep.
  discovery().peer_departed(peer);
}

net::PeerId GridSimulation::arrive_peer() {
  const double tier = grid_rng_.uniform(kMinCapacity, kMaxCapacity);
  const net::PeerId id = peers_->add_peer(qos::ResourceVector{tier, tier},
                                          simulator_.now());
  ring_->join(id);
  // A newcomer contributes a few instance copies.
  const int hosted = static_cast<int>(
      grid_rng_.uniform_int(kArrivalHostedMin, kArrivalHostedMax));
  for (int i = 0; i < hosted && catalog_.instance_count() > 0; ++i) {
    placement_.add_provider(
        static_cast<registry::InstanceId>(
            grid_rng_.index(catalog_.instance_count())),
        id);
  }
  return id;
}

GridResult GridSimulation::run() {
  const sim::SimTime horizon = config_.horizon;

  // Periodic maintenance: overlay stabilization and directory republish.
  simulator_.every(config_.stabilize_period, config_.stabilize_period,
                   [this] { ring_->stabilize_round(config_.stabilize_fraction); });
  simulator_.every(config_.republish_period, config_.republish_period,
                   [this] { discovery().publish_all(); });
  // Replica retirement sweep, only when the tier exists (an extra periodic
  // event would otherwise perturb the event count of knobs-off runs).
  if (replica_ != nullptr) {
    const sim::SimTime cooldown = config_.replication.cooldown;
    simulator_.every(cooldown, cooldown,
                     [this] { replica_->sweep(simulator_.now()); });
  }

  // Live time-series sampling event. Scheduled only when observing with a
  // window, so without --obs-window-ms no event is scheduled and no series
  // name exists.
  if (config_.observe && config_.obs_window > sim::SimTime::zero()) {
    simulator_.every(config_.obs_window, config_.obs_window,
                     [this] { sample_series(); });
  }

  // Workload.
  workload::RequestParams rp = config_.requests;
  rp.seed = util::derive_seed(config_.seed, "requests-root", 0);
  workload::RequestGenerator generator(
      simulator_, *apps_, universe_, *peers_, rp,
      [this](const core::ServiceRequest& req, const workload::Application&,
             workload::QosLevel) { handle_request(req); });
  generator.start(horizon);

  // Churn.
  workload::ChurnParams cp = config_.churn;
  cp.seed = util::derive_seed(config_.seed, "churn-root", 0);
  workload::ChurnProcess churn(
      simulator_, *peers_, cp, [this](net::PeerId p) { depart_peer(p); },
      [this] { arrive_peer(); });
  churn.start(horizon);

  {
    // Wall-clock the event loop alone: periodic registration above and the
    // accounting below are one-shot, the loop is where the engine lives.
    ScopedWallTimer timer(profile_.run_ms);
    simulator_.run_until(horizon);
  }

  // Sessions still healthy at the horizon count as successes. end_open is
  // per-request state, so the unordered sweep is safe; the emission order
  // is fixed afterwards by finish_all()'s ascending request-id drain.
  for (const auto& [id, s] : manager_->running_sessions()) {
    if (s.trace_id == 0) continue;  // started outside handle_request
    record_success(s.start);
    if (tracer_ != nullptr) {
      // The running span is still open; the horizon ends it healthy.
      tracer_->end_open(s.trace_id, simulator_.now(), obs::SpanStatus::kOk,
                        "horizon");
    }
  }
  if (tracer_ != nullptr) {
    tracer_->finish_all();
    if (tracer_->sink() != nullptr) tracer_->sink()->flush();
  }

  // Emit the arrival-bucketed psi series.
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    if (windows_[w].attempts == 0) continue;
    const auto t = sim::SimTime::millis(
        static_cast<std::int64_t>(w + 1) * config_.sample_period.as_millis());
    result_.series.record(t, static_cast<double>(windows_[w].successes) /
                                 static_cast<double>(windows_[w].attempts));
  }

  result_.notification_messages = neighbors_->messages();
  result_.churn_departures = churn.departures();
  result_.churn_arrivals = churn.arrivals();
  result_.avg_composition_cost =
      composed_ == 0 ? 0 : composition_cost_sum_ / static_cast<double>(composed_);

  // The run-level counts, exported once. Each is read from the subsystem
  // that owns it, and one statement writes it to both surfaces: a
  // GridResult::counters row and, when observing, a registry instrument of
  // the same name (or `metric`, where the registry names it differently).
  // An exporter reads the registry only after run() returns, so this is
  // its pull. Optional subsystems export only when they exist, so
  // knobs-off runs add no names.
  const auto both = [this](std::string_view name, std::uint64_t value,
                           std::string_view metric = {}) {
    result_.counters.emplace(name, value);
    if (metrics_ != nullptr) {
      metrics_->add(metric.empty() ? name : metric, value);
    }
  };
  // A level: a counter in the result, a gauge in the registry.
  const auto level = [this](std::string_view name, std::uint64_t value) {
    result_.counters.emplace(name, value);
    if (metrics_ != nullptr) metrics_->set(name, static_cast<double>(value));
  };

  const session::SessionStats& ss = manager_->stats();
  both("sessions.admitted", ss.admitted, "session.admitted");
  both("sessions.completed", ss.completed, "session.completed");
  both("sessions.aborted", ss.aborted, "session.aborted");
  both("sessions.recovered", ss.recovered, "session.recovered");
  both("sessions.rejected", ss.rejected, "session.rejected");
  both("events.executed", simulator_.executed_events(), "sim.events_executed");
  // Historical name, monotone semantics: distinct pairs ever reserved.
  // Reported via touched_pairs() so ledger eviction (a memory-footprint
  // mechanism) cannot change exported output; the resident ledger size is
  // NetworkModel::active_pairs(), which benches read directly.
  level("net.active_pairs", network_->touched_pairs());
  if (admission_retries_ != 0) {
    result_.counters.emplace("admission.retries", admission_retries_);
  }

  if (replica_ != nullptr) {
    const replica::ReplicaStats& rs = replica_->stats();
    both("replica.created", rs.created);
    both("replica.retired", rs.retired);
    both("replica.rejected_no_host", rs.rejected_no_host);
    result_.counters.emplace("replica.host_departures", rs.host_departures);
    result_.counters.emplace("replica.active", replica_->active());
  }
  if (config_.track_load || config_.replication.enabled) {
    result_.counters.emplace("load.provider_peak",
                             manager_->peak_provider_load());
    result_.counters.emplace("load.concentration_peak",
                             manager_->peak_service_concentration());
    result_.avg_service_concentration =
        manager_->mean_service_concentration();
  }

  if (fault_plan_ != nullptr) {
    const fault::FaultStats& fs = fault_plan_->stats();
    const auto probe = static_cast<std::size_t>(fault::Channel::kProbe);
    const auto notify = static_cast<std::size_t>(fault::Channel::kNotify);
    const auto lookup = static_cast<std::size_t>(fault::Channel::kLookup);
    const auto resv = static_cast<std::size_t>(fault::Channel::kReservation);
    both("fault.messages", fs.total_attempts());
    both("fault.dropped", fs.total_dropped());
    both("probe.retries", fs.retries[probe] + fs.retries[notify]);
    both("lookup.retries", fs.retries[lookup]);
    both("lookup.rerouted", fs.rerouted);
    both("session.recovery_retries", fs.retries[resv]);
  }

  if (index_ != nullptr) {
    const index::IndexStats& is = index_->stats();
    both("index.publishes", is.publishes);
    both("index.updates", is.updates);
    both("index.expiries", is.expiries);
    both("index.scans", is.scans);
    both("index.scan_segments", is.scan_segments);
    both("index.scan_hops", is.scan_hops);
    both("index.scan_reroutes", is.scan_reroutes);
    both("index.failed_scans", is.failed_scans);
    both("index.scanned_postings", is.scanned_postings);
    both("index.false_positives", is.false_positives);
    both("index.stale_postings", is.stale_postings);
    level("index.postings", index_->postings());
  }

  if (metrics_ != nullptr) {
    // Request outcomes at set-up: start_session only admits or rejects and
    // aggregation never reports a departure, so the four set-up failure
    // counts are exactly the requests that failed there.
    const std::uint64_t setup_failures =
        result_.failures_discovery + result_.failures_composition +
        result_.failures_selection + result_.failures_admission;
    const std::pair<std::string_view, std::uint64_t> outcomes[] = {
        {"request.admitted", result_.requests - setup_failures},
        {"request.fail.discovery", result_.failures_discovery},
        {"request.fail.composition", result_.failures_composition},
        {"request.fail.selection", result_.failures_selection},
        {"request.fail.admission", result_.failures_admission},
    };
    for (const auto& [name, n] : outcomes) {
      if (n != 0) metrics_->add(name, n);
    }
    metrics_->add("request.total", result_.requests);
    metrics_->set("sim.event_queue_high_water",
                  static_cast<double>(simulator_.max_pending_events()));
    metrics_->add("churn.departures", result_.churn_departures);
    metrics_->add("churn.arrivals", result_.churn_arrivals);
    // Every notification the protocol sent, resends included (DESIGN §8).
    metrics_->add("probe.notifications", result_.notification_messages);
    // The bounded-memory witness: resident span count never exceeds the
    // number of in-flight requests, whatever the total request volume.
    metrics_->set("obs.spans_live_high_water",
                  static_cast<double>(tracer_->peak_live_spans()));
    metrics_->add("obs.spans_emitted", tracer_->emitted_spans());
    metrics_->add("obs.requests_finished", tracer_->finished_requests());
    metrics_->add("obs.requests_sampled", tracer_->sampled_requests());
  }

  profile_.events = simulator_.executed_events();
  profile_.events_per_sec =
      profile_.run_ms > 0
          ? static_cast<double>(profile_.events) * 1000.0 / profile_.run_ms
          : 0;
  profile_.queue_peak = simulator_.max_pending_events();
  // Profiling export, gated on its own flag: the values are host wall-clock,
  // so keeping them out of the default metric set preserves byte-identical
  // knobs-off output.
  if (config_.profile && metrics_ != nullptr) {
    metrics_->set("perf.wall_ms.bootstrap", profile_.bootstrap_ms);
    metrics_->set("perf.wall_ms.bootstrap_peers", profile_.bootstrap_peers_ms);
    metrics_->set("perf.wall_ms.bootstrap_overlay",
                  profile_.bootstrap_overlay_ms);
    metrics_->set("perf.wall_ms.bootstrap_placement",
                  profile_.bootstrap_placement_ms);
    metrics_->set("perf.wall_ms.bootstrap_publish",
                  profile_.bootstrap_publish_ms);
    metrics_->set("perf.wall_ms.run", profile_.run_ms);
    metrics_->set("perf.wall_ms.aggregate", profile_.aggregate_ms);
    metrics_->set("perf.wall_ms.admission", profile_.admission_ms);
    metrics_->set("perf.events_per_sec", profile_.events_per_sec);
  }
  return result_;
}

}  // namespace qsa::harness
