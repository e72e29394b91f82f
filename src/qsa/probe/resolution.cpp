#include "qsa/probe/resolution.hpp"

#include "qsa/net/network.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::probe {

NeighborResolution::NeighborResolution(std::size_t budget, sim::SimTime ttl)
    : budget_(budget), ttl_(ttl) {
  QSA_EXPECTS(budget >= 1);
  QSA_EXPECTS(budget <= kMaxNeighborBudget);
  QSA_EXPECTS(ttl > sim::SimTime::zero());
}

void NeighborResolution::set_metrics(obs::MetricsRegistry* metrics,
                                     const net::NetworkModel* net) {
  QSA_EXPECTS(metrics != nullptr);
  net_ = net;
  stale_hits_ = &metrics->counter("probe.stale_hits");
  staleness_at_use_ = &metrics->histogram("probe.staleness_at_use_ms");
  probe_rtt_ = &metrics->histogram("probe.rtt_ms");
}

fault::Delivery NeighborResolution::send_soft_state(fault::Channel ch,
                                                    net::PeerId a,
                                                    net::PeerId b,
                                                    bool count_first_send) {
  if (count_first_send) ++messages_;
  if (faults_ == nullptr || !faults_->enabled()) return {};
  const fault::Resend r = faults_->send(ch, a, b);
  // Every resend is real protocol overhead.
  messages_ += static_cast<std::uint64_t>(r.sends - 1);
  return r.delivery;
}

NeighborTable& NeighborResolution::table(net::PeerId peer) {
  auto it = tables_.find(peer);
  if (it == tables_.end()) {
    it = tables_.emplace(peer, NeighborTable(budget_)).first;
  }
  return it->second;
}

void NeighborResolution::register_path(
    net::PeerId requester,
    std::span<const std::vector<net::PeerId>> hop_candidates,
    sim::SimTime now) {
  // NeighborEntry::hop is a uint8_t: a path longer than kMaxHopIndex would
  // silently wrap the hop distance (and with it the benefit ranking).
  QSA_EXPECTS(hop_candidates.size() <= kMaxHopIndex);
  NeighborTable& mine = table(requester);
  for (std::size_t i = 0; i < hop_candidates.size(); ++i) {
    const auto hop = static_cast<std::uint8_t>(i + 1);
    for (net::PeerId candidate : hop_candidates[i]) {
      const fault::Delivery d = send_soft_state(fault::Channel::kNotify,
                                                requester, candidate, true);
      if (!d.delivered) continue;  // entry stays unregistered (soft state)
      mine.add(candidate, hop, NeighborKind::kDirect, now, ttl_);
      if (probe_rtt_ != nullptr && net_ != nullptr) {
        probe_rtt_->observe(
            2 * static_cast<double>(net_->latency(requester, candidate)
                                        .as_millis()) +
            static_cast<double>(d.extra_delay.as_millis()));
      }
    }
    // Each hop-i candidate is notified about every hop-(i+1) candidate;
    // those indirect-table updates are accounted here and materialized
    // lazily in prepare_selection.
    if (i + 1 < hop_candidates.size()) {
      messages_ += hop_candidates[i].size() * hop_candidates[i + 1].size();
    }
  }
}

void NeighborResolution::prepare_selection(
    net::PeerId selector, std::span<const net::PeerId> candidates,
    std::uint8_t hop, bool direct, sim::SimTime now) {
  NeighborTable& t = table(selector);
  const NeighborKind kind =
      direct ? NeighborKind::kDirect : NeighborKind::kIndirect;
  // Relative to the selector an indirect neighbor is one hop away; the
  // requester keeps the absolute hop index.
  const std::uint8_t entry_hop = direct ? hop : std::uint8_t{1};
  for (net::PeerId candidate : candidates) {
    if (staleness_at_use_ != nullptr) {
      // Entry age at the moment the selector consults it, before this
      // refresh resets the soft-state deadline. Expired entries are observed
      // too — at their full TTL-exceeded age — so the histogram reflects how
      // stale the soft state actually got, not just the fresh cases.
      if (const auto entry = t.find(candidate)) {
        staleness_at_use_->observe(static_cast<double>(
            (ttl_ - (entry->expires - now)).as_millis()));
        if (entry->expires <= now && stale_hits_ != nullptr) {
          stale_hits_->add();
        }
      }
    }
    // The refresh is itself a probe message; when it is lost on every
    // attempt the entry keeps its old deadline and decays toward stale.
    if (!send_soft_state(fault::Channel::kProbe, selector, candidate, false)
             .delivered) {
      continue;
    }
    t.add(candidate, entry_hop, kind, now, ttl_);
  }
}

void NeighborResolution::drop_peer(net::PeerId peer) { tables_.erase(peer); }

}  // namespace qsa::probe
