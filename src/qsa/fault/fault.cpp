#include "qsa/fault/fault.hpp"

#include "qsa/obs/registry.hpp"
#include "qsa/util/expects.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::fault {
namespace {

/// Unordered pair key, identical to NetworkModel's: the verdict for a
/// message must not depend on which endpoint is named first.
std::uint64_t pair_key(net::PeerId a, net::PeerId b) noexcept {
  const net::PeerId lo = a < b ? a : b;
  const net::PeerId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Uniform double in [0, 1) from a hash value (the Rng::uniform mapping).
double uniform01(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::string_view to_string(Channel ch) {
  switch (ch) {
    case Channel::kProbe:
      return "probe";
    case Channel::kNotify:
      return "notify";
    case Channel::kLookup:
      return "lookup";
    case Channel::kReservation:
      return "reservation";
  }
  return "?";
}

double FaultConfig::loss(Channel ch) const noexcept {
  switch (ch) {
    case Channel::kProbe:
      return probe_loss;
    case Channel::kNotify:
      return notify_loss;
    case Channel::kLookup:
      return lookup_loss;
    case Channel::kReservation:
      return reservation_loss;
  }
  return 0;
}

void FaultConfig::set_all_loss(double p) noexcept {
  probe_loss = notify_loss = lookup_loss = reservation_loss = p;
}

std::uint64_t FaultStats::total_attempts() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t a : attempts) total += a;
  return total;
}

std::uint64_t FaultStats::total_dropped() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t d : dropped) total += d;
  return total;
}

FaultPlan::FaultPlan(std::uint64_t seed, FaultConfig config)
    : config_(config), seed_(seed) {
  QSA_EXPECTS(config.probe_loss >= 0 && config.probe_loss <= 1);
  QSA_EXPECTS(config.notify_loss >= 0 && config.notify_loss <= 1);
  QSA_EXPECTS(config.lookup_loss >= 0 && config.lookup_loss <= 1);
  QSA_EXPECTS(config.reservation_loss >= 0 && config.reservation_loss <= 1);
  QSA_EXPECTS(config.max_extra_delay >= sim::SimTime::zero());
  QSA_EXPECTS(config.max_retries >= 0);
}

void FaultPlan::set_metrics(obs::MetricsRegistry* metrics) {
  backoff_hist_ =
      metrics == nullptr ? nullptr : &metrics->histogram("fault.backoff_ms");
}

Delivery FaultPlan::attempt(Channel ch, net::PeerId a, net::PeerId b) const {
  const auto c = static_cast<std::size_t>(ch);
  const std::uint64_t seq = sequence_[c]++;
  ++stats_.attempts[c];

  // One hash per message; loss and delay read independent bit mixes of it.
  const std::uint64_t h = util::derive_seed(
      seed_, "fault", pair_key(a, b),
      util::hash_combine(static_cast<std::uint64_t>(ch) + 1, seq));

  Delivery d;
  d.delivered = uniform01(h) >= config_.loss(ch);
  if (!d.delivered) {
    ++stats_.dropped[c];
    return d;
  }
  if (config_.max_extra_delay > sim::SimTime::zero()) {
    // The span [0, max] has max + 1 whole milliseconds; summed in double so
    // no delay can overflow (exact for any max below 2^53 ms).
    d.extra_delay = sim::SimTime::millis(static_cast<std::int64_t>(
        uniform01(util::mix64(h ^ util::hash_str("fault-delay"))) *
        (static_cast<double>(config_.max_extra_delay.as_millis()) + 1)));
  }
  return d;
}

sim::SimTime FaultPlan::backoff(Channel ch, int retry) const {
  QSA_EXPECTS(retry >= 1);
  ++stats_.retries[static_cast<std::size_t>(ch)];
  // Cap the doubling so a pathological retry budget cannot overflow.
  const int shift = retry - 1 > 20 ? 20 : retry - 1;
  const auto wait =
      sim::SimTime::millis(kBackoffBase.as_millis() << shift);
  if (backoff_hist_ != nullptr) {
    backoff_hist_->observe(static_cast<double>(wait.as_millis()));
  }
  return wait;
}

Resend FaultPlan::send(Channel ch, net::PeerId a, net::PeerId b) const {
  Resend r;
  while (true) {
    r.delivery = attempt(ch, a, b);
    ++r.sends;
    if (r.delivery.delivered || r.sends > config_.max_retries) return r;
    r.backoff += backoff(ch, r.sends);
  }
}

}  // namespace qsa::fault
