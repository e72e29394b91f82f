// Deterministic fault injection for the messaging substrate.
//
// The paper's robustness argument (Section 4.2) needs a messaging layer that
// can actually fail: without it, "degradation under churn" measures only
// departures, never lost probes, notifications or lookup messages. FaultPlan
// supplies per-message loss and extra-delay verdicts derived purely from
// (seed, channel, unordered peer pair, sequence) — the same zero-storage
// hashing trick NetworkModel uses for pairwise bandwidth/latency — so a
// faulty run is bit-reproducible and costs nothing to store.
//
// Consumers (probe resolution, overlay routing, session recovery) send each
// message through `send`, which reacts to a drop with retry + exponential
// backoff up to `max_retries`; the plan centralizes the retry/reroute
// accounting so the grid can export `fault.*` metrics and reconcile the
// observed drop rate against the configured one.
//
// A default-constructed FaultConfig is fully off; every consumer treats a
// null or disabled plan as the perfect-messaging fast path, so runs without
// fault knobs are byte-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <string_view>

#include "qsa/net/peer.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::obs {
class MetricsRegistry;
class Histogram;
}  // namespace qsa::obs

namespace qsa::fault {

/// The message-bearing channels that can lose traffic, each with its own
/// loss rate: selector probes, soft-state notifications, overlay routing
/// hops, and reservation round-trips (recovery).
enum class Channel : std::uint8_t { kProbe, kNotify, kLookup, kReservation };

inline constexpr std::size_t kChannels = 4;

/// First-retry backoff; doubles per further retry.
inline constexpr sim::SimTime kBackoffBase = sim::SimTime::millis(50);

[[nodiscard]] std::string_view to_string(Channel ch);

struct FaultConfig {
  double probe_loss = 0;        ///< selector probe / soft-state refresh loss
  double notify_loss = 0;       ///< resolution-protocol notification loss
  double lookup_loss = 0;       ///< per overlay routing hop
  double reservation_loss = 0;  ///< per reservation round-trip (recovery)

  /// Maximum extra one-way delay injected into a *delivered* message; the
  /// actual delay is hash-derived uniform in [0, max_extra_delay].
  sim::SimTime max_extra_delay = sim::SimTime::zero();

  /// Retry budget per message: a consumer resends a lost message up to this
  /// many times (with exponential backoff) before giving up.
  int max_retries = 2;

  [[nodiscard]] double loss(Channel ch) const noexcept;

  /// Sets every channel's loss rate at once (the `--fault-loss` knob).
  void set_all_loss(double p) noexcept;

  /// True when any loss or delay is configured; a disabled config keeps
  /// every consumer on its perfect-messaging fast path.
  [[nodiscard]] bool enabled() const noexcept {
    return probe_loss > 0 || notify_loss > 0 || lookup_loss > 0 ||
           reservation_loss > 0 || max_extra_delay > sim::SimTime::zero();
  }
};

/// Aggregate decision accounting, per channel; the grid exports these as
/// `fault.*` counters at the end of a run.
struct FaultStats {
  std::uint64_t attempts[kChannels] = {};  ///< messages put on the wire
  std::uint64_t dropped[kChannels] = {};   ///< messages that vanished
  std::uint64_t retries[kChannels] = {};   ///< resends after a drop
  std::uint64_t rerouted = 0;              ///< lookup hops re-sent elsewhere

  [[nodiscard]] std::uint64_t total_attempts() const noexcept;
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;
};

/// One message's verdict.
struct Delivery {
  bool delivered = true;
  sim::SimTime extra_delay;  ///< additional latency when delivered
};

/// One message resent after each loss (FaultPlan::send).
struct Resend {
  Delivery delivery;     ///< the last send's; not delivered = all were lost
  int sends = 0;         ///< messages put on the wire, resends included
  sim::SimTime backoff;  ///< summed waits before the resends
};

class FaultPlan {
 public:
  FaultPlan(std::uint64_t seed, FaultConfig config);

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }

  /// Attaches the backoff histogram (`fault.backoff_ms`); optional, null
  /// detaches. Only retry waits are observed, so an attached registry stays
  /// untouched while the plan is disabled.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Verdict for the next message on channel `ch` between `a` and `b`.
  /// Deterministic: the verdict depends only on (seed, channel, unordered
  /// pair, per-channel sequence number), never on wall clock or storage.
  /// Const because read-side consumers (overlay routing) are const; the
  /// sequence/stat state is mutable and single-threaded like the simulator.
  [[nodiscard]] Delivery attempt(Channel ch, net::PeerId a,
                                 net::PeerId b) const;

  /// Accounts retry number `retry` (1-based) on `ch` and returns its
  /// exponential backoff wait (base * 2^(retry-1)).
  [[nodiscard]] sim::SimTime backoff(Channel ch, int retry) const;

  /// The one resend loop: sends a message on `ch` between `a` and `b` and,
  /// after each loss, backs off and resends, up to `max_retries` resends
  /// (attempt, backoff, attempt, ...). The caller charges what the lost
  /// sends cost it.
  [[nodiscard]] Resend send(Channel ch, net::PeerId a, net::PeerId b) const;

  /// Accounts one lookup-hop reroute through an alternate neighbor.
  void note_reroute() const noexcept { ++stats_.rerouted; }

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

 private:
  FaultConfig config_;
  std::uint64_t seed_;
  mutable std::uint64_t sequence_[kChannels] = {};
  mutable FaultStats stats_;
  obs::Histogram* backoff_hist_ = nullptr;
};

}  // namespace qsa::fault
