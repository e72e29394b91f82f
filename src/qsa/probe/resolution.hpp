// Dynamic neighbor resolution protocol (Section 3.3).
//
// After the service composer produces a service path, the requester's host
// adds every hop's candidate providers to its own table as *direct* i-hop
// neighbors, and notifies candidates so that each hop's candidates adopt the
// next hop's candidates as *indirect* neighbors (they may be asked to pick
// among them during hop-by-hop selection). Entries are soft state: the
// notifications are re-sent while the path is in use, so the TTL covers the
// session; unused entries expire.
//
// Simulation note: tables are materialized lazily. The requester's direct
// entries are registered eagerly; a candidate's indirect entries are
// registered at the moment that candidate is actually asked to select the
// next hop (`prepare_selection`) — the table content any selector observes
// is exactly what the protocol would have delivered, while the simulator
// skips building tables for the (many) candidates that are never selected.
// The full notification fan-out is still *accounted*: `messages()` counts
// every notification the real protocol would send.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qsa/fault/fault.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/probe/neighbor_table.hpp"
#include "qsa/util/dense_map.hpp"

namespace qsa::net {
class NetworkModel;
}

namespace qsa::probe {

class NeighborResolution {
 public:
  /// `budget` is M (max probed neighbors per peer); `ttl` the soft-state
  /// lifetime granted by one notification.
  NeighborResolution(std::size_t budget, sim::SimTime ttl);

  /// Attaches observability (`metrics` non-null). Records
  /// `probe.staleness_at_use_ms` (histogram: entry age when a selector
  /// consults it), `probe.stale_hits` (counter: consults that found the
  /// entry already TTL-expired) and — when `net` is given — `probe.rtt_ms`
  /// (histogram: round-trip of each direct notification). The grid exports
  /// `probe.notifications` from messages() at the end of its run.
  void set_metrics(obs::MetricsRegistry* metrics,
                   const net::NetworkModel* net = nullptr);

  /// Attaches the fault-injection plan (null = perfect messaging, the
  /// default). Notifications and soft-state refreshes are then resent up to
  /// the retry budget with exponential backoff; a message lost on every
  /// attempt leaves the table entry unregistered/unrefreshed, so it goes
  /// stale exactly as the real soft-state protocol would.
  void set_faults(const fault::FaultPlan* faults) noexcept {
    faults_ = faults;
  }

  /// The (lazily created) neighbor table of a peer.
  [[nodiscard]] NeighborTable& table(net::PeerId peer);

  /// Runs the protocol for a freshly composed path: `hop_candidates[i]`
  /// holds the candidate providers of hop i+1 (hop count in the reverse
  /// direction of the aggregation flow, as the paper defines it). Registers
  /// the requester's direct entries and counts the indirect notifications.
  void register_path(net::PeerId requester,
                     std::span<const std::vector<net::PeerId>> hop_candidates,
                     sim::SimTime now);

  /// Ensures `selector`'s table reflects the notification that covered
  /// `candidates` (the providers of the hop it must now select). `hop` is
  /// the candidates' hop index from the requester; `direct` is true when the
  /// selector is the requester itself.
  void prepare_selection(net::PeerId selector,
                         std::span<const net::PeerId> candidates,
                         std::uint8_t hop, bool direct, sim::SimTime now);

  /// Forgets a departed peer's table.
  void drop_peer(net::PeerId peer);

  /// Notification messages the protocol has sent so far (overhead metric).
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }

  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

 private:
  /// Delivers one soft-state message from `a` to `b` on `ch`, resending up
  /// to the plan's retry budget. Resends always count into `messages_`; the
  /// first send only when `count_first_send` (refreshes materialized by
  /// prepare_selection were already accounted by register_path's fan-out).
  /// Returns the delivery of the first successful send, or `delivered ==
  /// false` when every attempt was lost. Trivially succeeds without a plan.
  fault::Delivery send_soft_state(fault::Channel ch, net::PeerId a,
                                  net::PeerId b, bool count_first_send);

  std::size_t budget_;
  sim::SimTime ttl_;
  util::DenseMap<net::PeerId, NeighborTable> tables_;
  std::uint64_t messages_ = 0;
  const fault::FaultPlan* faults_ = nullptr;

  // Observability handles; all null when detached (the disabled path is a
  // pointer test, no allocation).
  const net::NetworkModel* net_ = nullptr;
  obs::Counter* stale_hits_ = nullptr;
  obs::Histogram* staleness_at_use_ = nullptr;
  obs::Histogram* probe_rtt_ = nullptr;
};

}  // namespace qsa::probe
