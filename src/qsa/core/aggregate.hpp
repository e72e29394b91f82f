// The two-tier QoS-aware service aggregation model (QSA): on-demand service
// composition followed by dynamic peer selection, orchestrated per request
// at session setup time (Section 3). Baselines implement the same
// AggregationAlgorithm interface.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "qsa/core/compose.hpp"
#include "qsa/core/select.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/probe/resolution.hpp"
#include "qsa/registry/backend.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/registry/placement.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::core {

/// Why a request failed (setup-time causes here; the session manager adds
/// admission/departure).
enum class FailureCause : std::uint8_t {
  kNone,         ///< success
  kDiscovery,    ///< a service had no discoverable candidate instances
  kComposition,  ///< no QoS-consistent service path exists
  kSelection,    ///< a hop found no acceptable peer
  kAdmission,    ///< reservation failed on the chosen peers/links
  kDeparture,    ///< a provisioning peer left mid-session
};

[[nodiscard]] std::string_view to_string(FailureCause cause);

/// A user request: the abstract service path (source .. sink) plus the
/// end-to-end QoS requirement and intended session duration.
struct ServiceRequest {
  net::PeerId requester = net::kNoPeer;
  std::vector<registry::ServiceId> abstract_path;
  qos::QosVector requirement;
  sim::SimTime session_duration;
  /// Hosts the caller has ruled out (admission-retry support: peers whose
  /// reservation just failed on stale probe data). Every algorithm honors
  /// this — QSA's selection, random's uniform pick, and fixed's dedicated
  /// host all skip excluded providers.
  std::vector<net::PeerId> excluded_hosts;
  /// The harness's 1-based request number; 0 = a request outside its
  /// accounting. The session manager copies it onto the admitted session
  /// and keys its spans on it. Algorithms never read it.
  std::uint64_t trace_id = 0;
};

/// The aggregation decision: which instance runs where, hop by hop.
struct AggregationPlan {
  FailureCause failure = FailureCause::kNone;
  /// Chosen instances, source first, sink last (empty on failure).
  std::vector<registry::InstanceId> instances;
  /// Hosting peers, aligned with `instances`.
  std::vector<net::PeerId> hosts;
  double composition_cost = 0;
  int lookup_hops = 0;          ///< total Chord hops spent on discovery
  sim::SimTime setup_latency;   ///< summed discovery latency
  int random_fallback_hops = 0; ///< hops selected without performance info

  [[nodiscard]] bool ok() const noexcept {
    return failure == FailureCause::kNone;
  }

  /// Back to the default-constructed state, keeping the vectors' capacity —
  /// the aggregate_into() reuse contract.
  void reset() noexcept {
    failure = FailureCause::kNone;
    instances.clear();
    hosts.clear();
    composition_cost = 0;
    lookup_hops = 0;
    setup_latency = sim::SimTime::zero();
    random_fallback_hops = 0;
  }
};

class AggregationAlgorithm {
 public:
  virtual ~AggregationAlgorithm() = default;
  /// The one aggregation entry point: resets `out` and writes the plan for
  /// `request` into it, reusing its buffers. QSA is allocation-free once
  /// warm (ServingEngine.WarmFrozenServeIntoAllocatesNothing); the
  /// baselines' DFS may still allocate.
  virtual void aggregate_into(const ServiceRequest& request, sim::SimTime now,
                              AggregationPlan& out) = 0;
  /// Live load balancing (replication tier): algorithms that rank hosts may
  /// discount loaded candidates. No-op for algorithms without a ranking.
  virtual void set_load_signal(PeerSelector::LoadSignal) {}
};

/// Everything an aggregation algorithm needs to consult. Non-owning; the
/// grid harness wires one up per simulation.
struct GridServices {
  const registry::ServiceCatalog* catalog = nullptr;
  const registry::PlacementMap* placement = nullptr;
  const registry::DiscoveryBackend* discovery = nullptr;
  const net::PeerTable* peers = nullptr;
  const net::NetworkModel* net = nullptr;
  probe::NeighborResolution* neighbors = nullptr;
};

/// Ablation switches for the QSA algorithm (full QSA by default).
struct QsaOptions {
  bool qcs_composition = true;    ///< false: random consistent path
  bool smart_selection = true;    ///< false: random peer per hop
  bool use_uptime_filter = true;  ///< false: selection ignores uptime
};

/// The paper's QSA algorithm: QCS composition + dynamic peer selection.
class QsaAlgorithm final : public AggregationAlgorithm {
 public:
  QsaAlgorithm(GridServices services, qos::TupleWeights weights,
               qos::ResourceSchema schema, std::uint64_t seed,
               QsaOptions options = {},
               cache::ComposeCache* compose_cache = nullptr);

  /// Steady state (warm discovery cache, warmed neighbor tables,
  /// previously seen path lengths) performs no heap allocation — the
  /// scratch below grows to a plateau and is reused.
  void aggregate_into(const ServiceRequest& request, sim::SimTime now,
                      AggregationPlan& out) override;

  void set_load_signal(PeerSelector::LoadSignal load) override {
    selector_.set_load_signal(std::move(load));
  }

 private:
  GridServices services_;
  QcsComposer composer_;
  PeerSelector selector_;
  QsaOptions options_;
  util::Rng rng_;

  // Per-request scratch, grow-only (inner vectors keep their capacity
  // across requests). One QsaAlgorithm instance serves one thread.
  std::vector<std::vector<registry::InstanceId>> candidates_;
  std::vector<std::vector<net::PeerId>> hop_candidates_;
  CompositionResult comp_;
};

/// Discovers candidate instances for every service on the abstract path.
/// Shared by QSA and the baselines. Returns false (and sets the plan's
/// failure) when any service has no candidates. `out` is grow-only scratch:
/// only its first abstract_path.size() entries are meaningful after the
/// call (extra entries from earlier, longer requests keep their buffers).
bool discover_candidates(const GridServices& services,
                         const ServiceRequest& request, sim::SimTime now,
                         std::vector<std::vector<registry::InstanceId>>& out,
                         AggregationPlan& plan);

/// The providers of `instance` that `excluded` does not name, in the
/// placement map's (sorted) order, written into `out` (cleared first, its
/// buffer reused). Shared by QSA and the baselines. Order matters: with no
/// exclusions `out` is the raw provider list, so a draw over it consumes
/// the same RNG stream as a draw over the providers.
void eligible_providers(const registry::PlacementMap& placement,
                        registry::InstanceId instance,
                        const std::vector<net::PeerId>& excluded,
                        std::vector<net::PeerId>& out);

}  // namespace qsa::core
