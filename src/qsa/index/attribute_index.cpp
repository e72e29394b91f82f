#include "qsa/index/attribute_index.hpp"

#include <algorithm>
#include <iterator>

#include "qsa/util/expects.hpp"

namespace qsa::index {

AttributeIndex::AttributeIndex(std::uint64_t seed,
                               overlay::LookupService& ring,
                               const registry::ServiceCatalog& catalog,
                               const registry::PlacementMap& placement,
                               const net::PeerTable& peers,
                               qos::ParamId level_param,
                               const engine::Clock& clock)
    : seed_(seed),
      ring_(ring),
      catalog_(catalog),
      placement_(placement),
      peers_(peers),
      level_param_(level_param),
      clock_(clock) {}

void AttributeIndex::publish(registry::InstanceId instance) {
  refresh(instance, clock_.now());
}

void AttributeIndex::refresh(registry::InstanceId instance, sim::SimTime now) {
  for (const net::PeerId provider : placement_.providers(instance)) {
    // A departed provider's row may linger in the placement map until the
    // grid prunes it; never mint fresh postings for it — its existing ones
    // age out through the epoch sweep.
    if (!peers_.alive(provider)) continue;
    upsert(instance, provider, now);
  }
}

void AttributeIndex::upsert(registry::InstanceId instance,
                            net::PeerId provider, sim::SimTime now) {
  const net::Peer peer = peers_.peer(provider);
  const registry::ServiceInstance& inst = catalog_.instance(instance);
  const auto level_value = inst.qout.get(level_param_);

  const float uptime_min =
      static_cast<float>(std::max(0.0, peer.uptime(now).as_minutes()));
  const float level =
      static_cast<float>(level_value ? level_value->lo() : 0.0);

  std::array<std::uint8_t, kAttributeCount> bucket{};
  bucket[static_cast<int>(Attribute::kUptime)] =
      static_cast<std::uint8_t>(uptime_bucket(peer.uptime(now)));
  bucket[static_cast<int>(Attribute::kLevel)] =
      static_cast<std::uint8_t>(level_bucket(level));

  const Posting posting = pack_posting(instance, provider);
  const auto [it, inserted] = ledger_.try_emplace(posting);
  Entry& entry = it->second;
  if (inserted) {
    for (int a = 0; a < kAttributeCount; ++a) {
      ring_.insert(
          index_key(seed_, static_cast<Attribute>(a), inst.service, bucket[a]),
          posting);
    }
    ++stats_.publishes;
  } else {
    bool moved = false;
    for (int a = 0; a < kAttributeCount; ++a) {
      if (entry.bucket[a] == bucket[a]) continue;
      const auto attr = static_cast<Attribute>(a);
      ring_.erase(index_key(seed_, attr, inst.service, entry.bucket[a]),
                  posting);
      ring_.insert(index_key(seed_, attr, inst.service, bucket[a]), posting);
      moved = true;
    }
    if (moved) ++stats_.updates;
  }
  entry.epoch = epoch_;
  entry.bucket = bucket;
  entry.uptime_min = uptime_min;
  entry.level = level;
}

void AttributeIndex::erase_posting(Posting posting, const Entry& entry) {
  const registry::ServiceId service =
      catalog_.instance(posting_instance(posting)).service;
  for (int a = 0; a < kAttributeCount; ++a) {
    ring_.erase(
        index_key(seed_, static_cast<Attribute>(a), service, entry.bucket[a]),
        posting);
  }
}

void AttributeIndex::provider_retired(registry::InstanceId instance,
                                      net::PeerId host) {
  const auto it = ledger_.find(pack_posting(instance, host));
  if (it == ledger_.end()) return;
  erase_posting(it->first, it->second);
  ledger_.erase(it);
}

void AttributeIndex::publish_all() {
  ++epoch_;
  const sim::SimTime now = clock_.now();
  for (registry::InstanceId i = 0;
       i < static_cast<registry::InstanceId>(catalog_.instance_count()); ++i) {
    refresh(i, now);
  }
  expire_stale();
}

void AttributeIndex::expire_stale() {
  for (auto it = ledger_.begin(); it != ledger_.end();) {
    if (epoch_ - it->second.epoch >= kExpiryEpochs) {
      erase_posting(it->first, it->second);
      it = ledger_.erase(it);
      ++stats_.expiries;
    } else {
      ++it;
    }
  }
}

bool AttributeIndex::scan_arc(Attribute a, registry::ServiceId service,
                              int lo, net::PeerId from,
                              const net::NetworkModel* net, QueryStats& qs,
                              std::vector<Posting>& postings) const {
  // Route to the first bucket's owner from the requester (the O(log N)
  // leg); each further bucket routes from the previous owner — adjacent
  // keys, so mostly zero hops with a handful of owner transitions (the
  // span leg).
  net::PeerId origin = from;
  for (int b = lo; b < kBuckets; ++b) {
    const overlay::Key key = index_key(seed_, a, service, b);
    overlay::LookupStats stats = ring_.route(key, origin, net);
    qs.hops += stats.hops;
    qs.latency = qs.latency + stats.latency;
    ++qs.segments;
    if (!stats.ok()) {
      // Mid-scan segment lost even after the overlay's own retries and
      // alternate-neighbor reroutes: retry once more from the original
      // requester (a fresh path, not the failed on-arc one).
      ++qs.rerouted;
      stats = ring_.route(key, from, net);
      qs.hops += stats.hops;
      qs.latency = qs.latency + stats.latency;
      if (!stats.ok()) return false;
    }
    for (const std::uint64_t v : ring_.get(key)) postings.push_back(v);
    origin = stats.owner;
  }
  return true;
}

QueryStats AttributeIndex::query_into(
    const RangeQuery& query, net::PeerId from, const net::NetworkModel* net,
    std::vector<registry::InstanceId>& out) const {
  out.clear();
  QueryStats qs;

  // Active per-attribute scans: each "at least" predicate is a contiguous
  // bucket span ending at the top of its arc.
  struct Scan {
    Attribute attr;
    int lo;
  };
  Scan scans[kAttributeCount];
  int n_scans = 0;
  if (query.min_uptime_min) {
    scans[n_scans++] = {
        Attribute::kUptime,
        uptime_bucket(sim::SimTime::minutes(*query.min_uptime_min))};
  }
  if (query.min_level) {
    scans[n_scans++] = {Attribute::kLevel, level_bucket(*query.min_level)};
  }
  if (n_scans == 0) {
    // Pure membership: the whole level arc holds every posting exactly once.
    scans[n_scans++] = {Attribute::kLevel, 0};
  }

  for (int s = 0; s < n_scans; ++s) {
    scan_[s].clear();
    if (!scan_arc(scans[s].attr, query.service, scans[s].lo, from, net, qs,
                  scan_[s])) {
      // Reroute failed too: the query fails whole. Never hand back the
      // partial postings already scanned as if they were the answer.
      qs.failed = true;
      out.clear();
      ++stats_.failed_scans;
      ++stats_.scans;
      stats_.scan_segments += static_cast<std::uint64_t>(qs.segments);
      stats_.scan_hops += static_cast<std::uint64_t>(qs.hops);
      stats_.scan_reroutes += static_cast<std::uint64_t>(qs.rerouted);
      return qs;
    }
    qs.scanned += static_cast<int>(scan_[s].size());
    std::sort(scan_[s].begin(), scan_[s].end());
  }

  // Client-side intersection of the two per-attribute posting sets.
  const std::vector<Posting>* hits = &scan_[0];
  if (n_scans == 2) {
    merge_.clear();
    std::set_intersection(scan_[0].begin(), scan_[0].end(), scan_[1].begin(),
                          scan_[1].end(), std::back_inserter(merge_));
    hits = &merge_;
  }

  // Exact re-check against the publish-time record (carried by the lookup
  // response in a real deployment): quantization false positives drop here.
  for (const Posting p : *hits) {
    const auto it = ledger_.find(p);
    if (it == ledger_.end()) {
      ++qs.false_positives;
      continue;
    }
    const Entry& e = it->second;
    const bool pass =
        (!query.min_uptime_min || e.uptime_min >= *query.min_uptime_min) &&
        (!query.min_level || e.level >= *query.min_level);
    if (!pass) {
      ++qs.false_positives;
      continue;
    }
    // Departed-provider postings linger until the sweep reclaims them; we
    // count the staleness (the peer table is the oracle) but keep the
    // candidate — the directory's candidate lists go stale the same way,
    // and downstream probing/admission is what rejects the dead.
    if (!peers_.alive(posting_provider(p))) ++qs.stale;
    out.push_back(posting_instance(p));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());

  ++stats_.scans;
  stats_.scan_segments += static_cast<std::uint64_t>(qs.segments);
  stats_.scan_hops += static_cast<std::uint64_t>(qs.hops);
  stats_.scan_reroutes += static_cast<std::uint64_t>(qs.rerouted);
  stats_.scanned_postings += static_cast<std::uint64_t>(qs.scanned);
  stats_.false_positives += static_cast<std::uint64_t>(qs.false_positives);
  stats_.stale_postings += static_cast<std::uint64_t>(qs.stale);
  return qs;
}

registry::DiscoveryStats AttributeIndex::discover_into(
    const registry::DiscoveryQuery& query, const net::NetworkModel* net,
    sim::SimTime /*now*/, std::vector<registry::InstanceId>& out) const {
  RangeQuery rq;
  rq.service = query.service;
  if (query.session_duration > sim::SimTime::zero()) {
    rq.min_uptime_min = query.session_duration.as_minutes();
  }
  if (query.is_sink && query.requirement != nullptr) {
    if (const auto level = query.requirement->get(level_param_)) {
      rq.min_level = level->lo();
    }
  }
  const QueryStats qs = query_into(rq, query.from, net, out);
  if (lookups_ != nullptr) {
    lookups_->add();
    lookup_hops_->observe(qs.hops);
    lookup_latency_->observe(static_cast<double>(qs.latency.as_millis()));
  }
  return {qs.hops, qs.latency};
}

void AttributeIndex::set_metrics(obs::MetricsRegistry* metrics) {
  QSA_EXPECTS(metrics != nullptr);
  // Same shape as the directory's lookup metrics, under the index.*
  // namespace.
  lookups_ = &metrics->counter("index.lookups");
  lookup_hops_ = &metrics->histogram("index.lookup_hops");
  lookup_latency_ = &metrics->histogram("index.lookup_latency_ms");
}

}  // namespace qsa::index
