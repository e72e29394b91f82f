// Injected time source for the serving engine (DESIGN.md §13).
//
// The composition/selection pipeline consumes time for exactly three
// things: probe-epoch snapshots, neighbor soft-state TTLs, and the
// discovery cache TTL. Behind this seam the identical pipeline runs under
// the discrete-event simulator (the harness adapts sim::Simulator::now)
// and under a standalone request loop (a ManualClock advanced once per
// batch, or frozen to pin the world's soft state).
#pragma once

#include "qsa/sim/time.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::engine {

/// Abstract monotonic time source, read once per serve_into() call.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual sim::SimTime now() const = 0;
};

/// A clock the caller advances explicitly. A request loop ticks it once
/// per batch; tests drive TTL expiry with it deterministically.
class ManualClock final : public Clock {
 public:
  ManualClock() = default;
  explicit ManualClock(sim::SimTime start) : now_(start) {}

  [[nodiscard]] sim::SimTime now() const override { return now_; }

  /// Jumps to `t`; monotonic (the pipeline's soft-state bookkeeping assumes
  /// time never runs backwards).
  void set(sim::SimTime t) {
    QSA_EXPECTS(t >= now_);
    now_ = t;
  }

  void advance(sim::SimTime delta) {
    QSA_EXPECTS(delta >= sim::SimTime::zero());
    now_ = now_ + delta;
  }

 private:
  sim::SimTime now_;
};

}  // namespace qsa::engine
