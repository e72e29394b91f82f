// Knobs of the demand-driven replication tier (DESIGN.md §10). Defaults are
// fully off: a default ReplicaConfig constructs no manager, schedules no
// events and keeps every run byte-identical to a build without the
// subsystem.
#pragma once

#include "qsa/sim/time.hpp"

namespace qsa::replica {

struct ReplicaConfig {
  /// Master switch. Off (the default) constructs nothing.
  bool enabled = false;

  /// Demand score at which an instance trips replication (hysteresis high
  /// watermark). Demand is an exponentially decayed event count: +1 per
  /// admitted session using the instance, +2 per reservation rejection
  /// blamed on one of its providers, +2 per selection failure on its hop.
  /// A replica is retired once its instance's demand has decayed below a
  /// quarter of it (the hysteresis low watermark).
  double threshold = 4.0;

  /// Three-fold time constant: per-instance refractory period between
  /// placement decisions, minimum replica age before retirement, and the
  /// period of the retirement sweep.
  sim::SimTime cooldown = sim::SimTime::minutes(2);

  /// Hard cap on live replicas per instance (bounds steady state).
  int max_replicas = 8;

  /// Fraction of an instance's provider pool that must look saturated in
  /// the probe snapshots (headroom < R) before a clone is placed; demand
  /// alone never replicates while the existing pool still has room.
  double min_pool_pressure = 0.5;
};

}  // namespace qsa::replica
