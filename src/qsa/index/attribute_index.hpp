// The attribute index (DESIGN.md §15): the --discovery=dht backend. Per
// (attribute, service) posting lists live *in the overlay itself* under the
// order-preserving key encoding of index/keys.hpp, so range discovery routes
// as ordinary overlay lookups — subject to the same churn, replication and
// fault-injection machinery as every other message.
//
// Two attributes are indexed, exactly the two predicates discovery pushes
// down from the request context:
//   * uptime >= session_duration — the selector's uptime heuristic applied
//     at discovery time, so providers that cannot cover the session never
//     enter the candidate set;
//   * quality level >= requirement floor — only on the sink hop, whose Qout
//     the end-to-end requirement constrains.
// Capacity is not indexed: it is an *availability* question answered by
// probing live state, not by publish-time registrations.
//
// Maintenance is soft state. Each (instance, provider) registration is a
// posting inserted under one bucket key per attribute; a shadow ledger on
// the publishing side remembers each posting's buckets, publish-time
// attribute values and last-refresh epoch. The periodic republish advances
// the epoch, re-buckets values that moved (uptime grows, clones appear),
// and expires postings unrefreshed for kExpiryEpochs epochs — exactly how
// churned providers age out: their placement rows vanish at departure, so
// the next republish skips them and the sweep reclaims their postings.
//
// A query scans the contiguous bucket span of each active predicate (first
// bucket routed from the requester at O(log N) hops, subsequent buckets
// routed from the previous owner — on-arc, so usually zero or one hop),
// intersects the per-attribute posting sets client-side, and re-checks the
// survivors exactly against the ledger's stored values (the record a real
// lookup response would carry). Quantization makes the scan a conservative
// superset: the re-check drops the false positives and counts them; it
// never misses a qualifying posting. Under fault injection a lost mid-scan
// segment is retried from the original requester; if that reroute also
// fails the whole query fails — partial results are never passed off as
// complete.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "qsa/engine/clock.hpp"
#include "qsa/index/keys.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/overlay/lookup.hpp"
#include "qsa/registry/backend.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/registry/placement.hpp"

namespace qsa::index {

/// Epochs (republish periods) a posting survives without a refresh before
/// the sweep reclaims it: the first republish that skips it leaves it in
/// place, the second reclaims it, so one lost republish cycle is tolerated.
inline constexpr std::uint64_t kExpiryEpochs = 2;

/// Cumulative maintenance/query accounting (the fault-stats pattern: plain
/// counters, exported by the harness only when the backend is enabled).
struct IndexStats {
  std::uint64_t publishes = 0;        ///< new postings inserted
  std::uint64_t updates = 0;          ///< postings re-bucketed on refresh
  std::uint64_t expiries = 0;         ///< postings aged out by the sweep
  std::uint64_t scans = 0;            ///< range queries answered
  std::uint64_t scan_segments = 0;    ///< bucket lookups routed
  std::uint64_t scan_hops = 0;        ///< routing hops over all scans
  std::uint64_t scan_reroutes = 0;    ///< mid-scan segments retried
  std::uint64_t failed_scans = 0;     ///< queries lost even after reroute
  std::uint64_t scanned_postings = 0; ///< postings returned by bucket scans
  std::uint64_t false_positives = 0;  ///< dropped by the exact re-check
  std::uint64_t stale_postings = 0;   ///< provider already departed at use
};

/// A range query over one service's registrations. Both predicates are
/// optional and of "at least" polarity; with neither, the query is pure
/// service membership.
struct RangeQuery {
  registry::ServiceId service = 0;
  std::optional<double> min_uptime_min; ///< provider uptime, minutes
  std::optional<double> min_level;      ///< instance Qout quality floor
};

/// The routing cost and filtering outcome of one query.
struct QueryStats {
  int hops = 0;
  sim::SimTime latency;
  int segments = 0;        ///< bucket lookups routed
  int rerouted = 0;        ///< segments retried from the requester
  bool failed = false;     ///< lost under faults even after reroute
  int scanned = 0;         ///< postings the bucket scan returned
  int false_positives = 0; ///< scanned but failing the exact predicate
  int stale = 0;           ///< surviving postings with a departed provider
};

class AttributeIndex final : public registry::DiscoveryBackend {
 public:
  /// `clock` timestamps every publish: a posting's uptime is its provider's
  /// connected time when the clock was read.
  AttributeIndex(std::uint64_t seed, overlay::LookupService& ring,
                 const registry::ServiceCatalog& catalog,
                 const registry::PlacementMap& placement,
                 const net::PeerTable& peers, qos::ParamId level_param,
                 const engine::Clock& clock);

  /// Registers (or refreshes) `instance`'s postings — one per current
  /// provider — at the attribute values of now.
  void publish(registry::InstanceId instance) override;

  /// Bootstrap / periodic republish: advances the epoch, refreshes every
  /// catalog instance's postings, then expires anything unrefreshed for
  /// kExpiryEpochs epochs.
  void publish_all() override;

  /// Departure needs no eager action: the departed peer's postings age out
  /// through the epoch sweep (soft state), and there is no requester-side
  /// cache to drop.
  void peer_departed(net::PeerId /*peer*/) override {}

  /// Eagerly removes the single (instance, provider) posting — replica
  /// retirement narrowed the pool by one host without unregistering the
  /// instance. No-op if the posting is unknown.
  void provider_retired(registry::InstanceId instance,
                        net::PeerId host) override;

  /// Maps the request context onto the index's two predicates (uptime
  /// covers the session; the sink's Qout level meets the requirement) and
  /// answers it with query_into().
  registry::DiscoveryStats discover_into(
      const registry::DiscoveryQuery& query, const net::NetworkModel* net,
      sim::SimTime now, std::vector<registry::InstanceId>& out) const override;

  /// Registers `index.lookups` and the `index.lookup_hops` and
  /// `index.lookup_latency_ms` histograms (`metrics` non-null). The harness
  /// only attaches them when the backend is enabled, so knobs-off exports
  /// never see these names.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Answers `query` by routed bucket scans from `from`, writing the
  /// qualifying candidate instances (ascending, unique) into `out`. On a
  /// scan lost under fault injection, `out` is empty and stats.failed is
  /// set — never a silently truncated candidate set. A query with no
  /// predicate scans the full level arc (service membership).
  QueryStats query_into(const RangeQuery& query, net::PeerId from,
                        const net::NetworkModel* net,
                        std::vector<registry::InstanceId>& out) const;

  [[nodiscard]] const IndexStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t postings() const noexcept {
    return ledger_.size();
  }

 private:
  /// Shadow record of one posting: last-refresh epoch, the bucket each
  /// attribute key used, and the exact publish-time values the client-side
  /// re-check verifies against (in the real system the record travels in
  /// the lookup response, like the directory's catalog/placement reads).
  struct Entry {
    std::uint64_t epoch = 0;
    std::array<std::uint8_t, kAttributeCount> bucket{};
    float uptime_min = 0;
    float level = 0;
  };

  void refresh(registry::InstanceId instance, sim::SimTime now);
  void upsert(registry::InstanceId instance, net::PeerId provider,
              sim::SimTime now);
  void erase_posting(Posting posting, const Entry& entry);
  void expire_stale();

  /// Routes the bucket span [lo, kBuckets - 1] of one arc, appending raw
  /// postings. False when the scan was lost even after the requester-side
  /// reroute.
  bool scan_arc(Attribute a, registry::ServiceId service, int lo,
                net::PeerId from, const net::NetworkModel* net,
                QueryStats& qs, std::vector<Posting>& postings) const;

  std::uint64_t seed_;
  overlay::LookupService& ring_;
  const registry::ServiceCatalog& catalog_;
  const registry::PlacementMap& placement_;
  const net::PeerTable& peers_;
  qos::ParamId level_param_;
  const engine::Clock& clock_;

  std::uint64_t epoch_ = 0;
  std::unordered_map<Posting, Entry> ledger_;
  mutable IndexStats stats_;

  // Query scratch, grow-only (one AttributeIndex serves one thread).
  mutable std::vector<Posting> scan_[kAttributeCount];
  mutable std::vector<Posting> merge_;

  obs::Counter* lookups_ = nullptr;
  obs::Histogram* lookup_hops_ = nullptr;
  obs::Histogram* lookup_latency_ = nullptr;
};

}  // namespace qsa::index
