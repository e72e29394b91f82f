#include "qsa/session/manager.hpp"

#include <algorithm>

#include "qsa/util/expects.hpp"

namespace qsa::session {
namespace {

/// Participants of a session: hosts plus requester, deduplicated.
std::vector<net::PeerId> participants_of(const Session& s) {
  std::vector<net::PeerId> participants = s.hosts;
  participants.push_back(s.requester);
  std::sort(participants.begin(), participants.end());
  participants.erase(std::unique(participants.begin(), participants.end()),
                     participants.end());
  return participants;
}

}  // namespace

SessionManager::SessionManager(sim::Simulator& simulator,
                               net::PeerTable& peers, net::NetworkModel& net,
                               const registry::ServiceCatalog& catalog)
    : simulator_(simulator), peers_(peers), net_(net), catalog_(catalog) {}

void SessionManager::set_observability(obs::Tracer* tracer,
                                       obs::MetricsRegistry* metrics) {
  QSA_EXPECTS(metrics != nullptr);
  tracer_ = tracer;
  metrics_ = metrics;
  active_gauge_ = &metrics->gauge("session.active");
  duration_hist_ = &metrics->histogram("session.duration_ms");
  time_to_failure_hist_ = &metrics->histogram("session.time_to_failure_ms");
  recovery_salvaged_hist_ =
      &metrics->histogram("session.recovery_salvaged_ms");
  // provider.load* names are registered lazily on the first tracked
  // admission, so untracked runs export no concentration instruments.
}

namespace {

std::uint64_t concentration_key(registry::ServiceId svc,
                                net::PeerId host) noexcept {
  return (static_cast<std::uint64_t>(svc) << 32) | host;
}

}  // namespace

qos::ResourceVector SessionManager::epoch_reservations(
    net::PeerId peer) const {
  const auto it = epoch_ledger_.find(peer);
  if (it == epoch_ledger_.end() ||
      it->second.epoch != peers_.clock().epoch(simulator_.now())) {
    return qos::ResourceVector::zeros(peers_.schema().kinds());
  }
  return it->second.reserved;
}

void SessionManager::track_host_gain(net::PeerId host,
                                     registry::InstanceId instance) {
  const std::uint32_t load = ++hosted_load_[host];
  if (load > peak_provider_load_) peak_provider_load_ = load;
  const registry::ServiceId svc = catalog_.instance(instance).service;
  const std::uint32_t conc = ++service_host_load_[concentration_key(svc, host)];
  if (conc > peak_concentration_) peak_concentration_ = conc;
  const std::uint32_t active = ++service_active_[svc];
  concentration_sum_ += static_cast<double>(conc) / active;
  ++concentration_admissions_;
  detail::EpochLedger& led = epoch_ledger_[host];
  const std::int64_t epoch = peers_.clock().epoch(simulator_.now());
  if (led.epoch != epoch) {
    led.epoch = epoch;
    led.reserved = qos::ResourceVector::zeros(peers_.schema().kinds());
  }
  led.reserved += catalog_.instance(instance).resources;
  if (metrics_ == nullptr) return;
  if (provider_load_hist_ == nullptr) {
    provider_load_hist_ = &metrics_->histogram("provider.load");
  }
  provider_load_hist_->observe(static_cast<double>(load));
  detail::ServiceLoad& sl = service_load_[svc];
  if (sl.max_gauge == nullptr) {
    const std::string base = "provider.load." + std::to_string(svc);
    sl.max_gauge = &metrics_->gauge(base + ".max");
    sl.mean_gauge = &metrics_->gauge(base + ".mean");
  }
  sl.sum += static_cast<double>(load);
  ++sl.observations;
  sl.max_gauge->set(static_cast<double>(load));  // gauge keeps the high water
  sl.mean_gauge->set(sl.sum / static_cast<double>(sl.observations));
}

void SessionManager::track_host_loss(net::PeerId host,
                                     registry::InstanceId instance) {
  auto it = hosted_load_.find(host);
  if (it == hosted_load_.end()) return;
  if (--it->second == 0) hosted_load_.erase(host);
  const registry::ServiceId svc = catalog_.instance(instance).service;
  const std::uint64_t ckey = concentration_key(svc, host);
  auto cit = service_host_load_.find(ckey);
  if (cit != service_host_load_.end() && --cit->second == 0) {
    service_host_load_.erase(ckey);
  }
  auto sit = service_active_.find(svc);
  if (sit != service_active_.end() && --sit->second == 0) {
    service_active_.erase(svc);
  }
  // A release inside the epoch that booked the reservation cancels it in
  // the ledger; releases of older sessions free capacity probes also can't
  // see yet, which we conservatively ignore.
  auto lit = epoch_ledger_.find(host);
  if (lit != epoch_ledger_.end() &&
      lit->second.epoch == peers_.clock().epoch(simulator_.now())) {
    lit->second.reserved -= catalog_.instance(instance).resources;
    lit->second.reserved.clamp_negative_zero();
  }
}

void SessionManager::index(const Session& s) {
  for (net::PeerId p : participants_of(s)) by_peer_[p].push_back(s.id);
}

void SessionManager::unindex(const Session& s) {
  for (net::PeerId p : participants_of(s)) {
    if (auto bit = by_peer_.find(p); bit != by_peer_.end()) {
      auto& v = bit->second;
      if (auto vit = std::find(v.begin(), v.end(), s.id); vit != v.end()) {
        *vit = v.back();
        v.pop_back();
      }
      if (v.empty()) by_peer_.erase(bit);
    }
  }
}

core::FailureCause SessionManager::start_session(
    const core::ServiceRequest& request, const core::AggregationPlan& plan,
    net::PeerId* blamed) {
  QSA_EXPECTS(plan.ok());
  QSA_EXPECTS(plan.instances.size() == plan.hosts.size());
  QSA_EXPECTS(!plan.instances.empty());

  const sim::SimTime now = simulator_.now();
  Session s;
  s.id = next_id_++;
  s.requester = request.requester;
  s.instances = plan.instances;
  s.hosts = plan.hosts;
  s.start = now;
  s.end = now + request.session_duration;

  // All-or-nothing admission: reserve host resources, then link bandwidth,
  // rolling everything back on the first shortage.
  bool ok = true;
  net::PeerId blame = net::kNoPeer;
  for (std::size_t i = 0; i < plan.instances.size() && ok; ++i) {
    const auto& inst = catalog_.instance(plan.instances[i]);
    if (peers_.try_reserve(plan.hosts[i], inst.resources, now)) {
      s.host_reservations.push_back(
          HostReservation{plan.hosts[i], inst.resources});
    } else {
      ok = false;
      blame = plan.hosts[i];
    }
  }
  // Aggregation-flow edges: producer i feeds consumer i+1; the sink (last
  // instance) feeds the requester's host.
  for (std::size_t i = 0; i < plan.instances.size() && ok; ++i) {
    const auto& inst = catalog_.instance(plan.instances[i]);
    const net::PeerId from = plan.hosts[i];
    const net::PeerId to = i + 1 < plan.hosts.size() ? plan.hosts[i + 1]
                                                     : request.requester;
    if (net_.try_reserve(from, to, inst.bandwidth_kbps, now)) {
      s.link_reservations.push_back(
          LinkReservation{from, to, inst.bandwidth_kbps});
    } else {
      ok = false;
      blame = from;
    }
  }
  if (!ok) {
    release_all(s);
    ++stats_.rejected;
    if (blamed != nullptr) *blamed = blame;
    return core::FailureCause::kAdmission;
  }

  index(s);
  const SessionId id = s.id;
  s.end_event = simulator_.schedule_at(
      s.end, [this, id] { finish_session(id, core::FailureCause::kNone); });
  s.trace_id = request.trace_id;
  if (tracer_ != nullptr && s.trace_id != 0) {
    s.trace_span = tracer_->begin(s.trace_id, obs::Phase::kRunning, now);
    tracer_->annotate(s.trace_span, "hosts",
                      static_cast<double>(s.hosts.size()));
  }
  sessions_.emplace(id, std::move(s));
  ++stats_.admitted;
  if (active_gauge_ != nullptr) {
    active_gauge_->set(static_cast<double>(sessions_.size()));
  }
  if (track_load_) {
    for (std::size_t i = 0; i < plan.hosts.size(); ++i) {
      track_host_gain(plan.hosts[i], plan.instances[i]);
    }
  }
  return core::FailureCause::kNone;
}

void SessionManager::release_all(Session& s) {
  const sim::SimTime now = simulator_.now();
  for (const auto& hr : s.host_reservations) {
    peers_.release(hr.peer, hr.resources, now);  // no-op on departed peers
  }
  for (const auto& lr : s.link_reservations) {
    net_.release(lr.from, lr.to, lr.kbps, now);
  }
  s.host_reservations.clear();
  s.link_reservations.clear();
}

void SessionManager::finish_session(SessionId id, core::FailureCause cause) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session s = std::move(it->second);
  sessions_.erase(it);

  simulator_.cancel(s.end_event);
  release_all(s);
  unindex(s);

  const sim::SimTime now = simulator_.now();
  const bool completed = cause == core::FailureCause::kNone;
  if (completed) {
    ++stats_.completed;
    if (duration_hist_ != nullptr) {
      duration_hist_->observe(static_cast<double>((now - s.start).as_millis()));
    }
  } else {
    ++stats_.aborted;
    if (time_to_failure_hist_ != nullptr) {
      time_to_failure_hist_->observe(
          static_cast<double>((now - s.start).as_millis()));
    }
  }
  if (tracer_ != nullptr && s.trace_id != 0) {
    tracer_->end(s.trace_span, now,
                 completed ? obs::SpanStatus::kOk : obs::SpanStatus::kFail,
                 completed ? std::string_view{} : core::to_string(cause));
    if (completed) {
      tracer_->instant(s.trace_id, obs::Phase::kTeardown, now,
                       obs::SpanStatus::kOk);
    }
  }
  if (track_load_) {
    for (std::size_t i = 0; i < s.hosts.size(); ++i) {
      track_host_loss(s.hosts[i], s.instances[i]);
    }
  }
  if (outcome_) outcome_(s, cause);
}

bool SessionManager::try_recover(SessionId id, net::PeerId failed) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = it->second;

  const sim::SimTime now = simulator_.now();
  obs::Tracer::SpanId span = obs::Tracer::kNoSpan;
  if (tracer_ != nullptr && s.trace_id != 0) {
    span = tracer_->begin(s.trace_id, obs::Phase::kRecovery, now);
  }
  const bool repaired = recover_hosts(s, failed);
  if (repaired) {
    ++stats_.recovered;
    if (recovery_salvaged_hist_ != nullptr) {
      // Session runtime the repair saved from abortion.
      recovery_salvaged_hist_->observe(
          static_cast<double>((s.end - now).as_millis()));
    }
  }
  if (span != obs::Tracer::kNoSpan) {
    tracer_->end(span, simulator_.now(),
                 repaired ? obs::SpanStatus::kOk : obs::SpanStatus::kFail,
                 "departure");
  }
  return repaired;
}

bool SessionManager::reservation_rtt(net::PeerId a, net::PeerId b) {
  if (faults_ == nullptr || !faults_->enabled()) return true;
  // A lost round-trip times out and is asked again after a backoff; the
  // repair is instantaneous in sim time, so the waits cost it nothing.
  return faults_->send(fault::Channel::kReservation, a, b).delivery.delivered;
}

bool SessionManager::recover_hosts(Session& s, net::PeerId failed) {
  if (s.requester == failed) return false;  // nothing to deliver to

  // Propose a replacement for every path position the failed peer held.
  std::vector<net::PeerId> new_hosts = s.hosts;
  for (std::size_t i = 0; i < new_hosts.size(); ++i) {
    if (new_hosts[i] != failed) continue;
    if (!recovery_) return false;
    const net::PeerId replacement = recovery_(s, i, failed);
    if (replacement == net::kNoPeer || replacement == failed ||
        !peers_.alive(replacement)) {
      return false;
    }
    new_hosts[i] = replacement;
  }

  const sim::SimTime now = simulator_.now();

  // Migrate host reservations: reserve on the replacements first; only then
  // drop the old entries (the failed peer's ledger died with it).
  std::vector<HostReservation> added;
  bool ok = true;
  for (std::size_t i = 0; i < new_hosts.size() && ok; ++i) {
    if (s.hosts[i] == new_hosts[i]) continue;
    const auto& inst = catalog_.instance(s.instances[i]);
    // The reservation request itself travels over the faulty network: a
    // round-trip lost beyond the retry budget reads as the host refusing.
    if (reservation_rtt(s.requester, new_hosts[i]) &&
        peers_.try_reserve(new_hosts[i], inst.resources, now)) {
      added.push_back(HostReservation{new_hosts[i], inst.resources});
    } else {
      ok = false;
    }
  }
  if (!ok) {
    for (const auto& hr : added) peers_.release(hr.peer, hr.resources, now);
    return false;
  }

  // Rebuild the edge reservations wholesale: the failed hop invalidates its
  // adjacent edges, and a wholesale swap keeps the bookkeeping simple and
  // exact. Old edges are released first so a link shared by old and new
  // paths is not double-counted against its capacity.
  for (const auto& lr : s.link_reservations) {
    net_.release(lr.from, lr.to, lr.kbps, now);
  }
  s.link_reservations.clear();
  std::vector<LinkReservation> new_links;
  for (std::size_t i = 0; i < new_hosts.size() && ok; ++i) {
    const auto& inst = catalog_.instance(s.instances[i]);
    const net::PeerId from = new_hosts[i];
    const net::PeerId to =
        i + 1 < new_hosts.size() ? new_hosts[i + 1] : s.requester;
    if (reservation_rtt(from, to) &&
        net_.try_reserve(from, to, inst.bandwidth_kbps, now)) {
      new_links.push_back(LinkReservation{from, to, inst.bandwidth_kbps});
    } else {
      ok = false;
    }
  }
  if (!ok) {
    for (const auto& lr : new_links) net_.release(lr.from, lr.to, lr.kbps, now);
    for (const auto& hr : added) peers_.release(hr.peer, hr.resources, now);
    // The session is beyond repair: the caller aborts it. Its remaining
    // host reservations are still recorded and released by finish_session.
    return false;
  }

  // Commit: swap hosts, fix the reservation records and the peer index.
  unindex(s);
  if (track_load_) {
    for (std::size_t i = 0; i < new_hosts.size(); ++i) {
      if (s.hosts[i] == new_hosts[i]) continue;
      track_host_loss(s.hosts[i], s.instances[i]);
      track_host_gain(new_hosts[i], s.instances[i]);
    }
  }
  s.hosts = new_hosts;
  // Drop host-reservation records held on the failed peer; keep the rest
  // and append the new ones.
  std::erase_if(s.host_reservations, [&](const HostReservation& hr) {
    return hr.peer == failed;
  });
  for (const auto& hr : added) s.host_reservations.push_back(hr);
  s.link_reservations = std::move(new_links);
  index(s);
  return true;
}

void SessionManager::peer_departed(net::PeerId peer) {
  auto it = by_peer_.find(peer);
  if (it == by_peer_.end()) return;
  // finish_session / try_recover mutate by_peer_, so snapshot first.
  const std::vector<SessionId> affected = it->second;
  for (SessionId id : affected) {
    if (recovery_ && try_recover(id, peer)) continue;
    finish_session(id, core::FailureCause::kDeparture);
  }
}

}  // namespace qsa::session
