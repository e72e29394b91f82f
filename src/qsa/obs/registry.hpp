// The metrics registry: named counters, gauges and histograms for one
// simulation run. Names follow the `subsystem.metric` convention
// (e.g. "probe.rtt_ms", "session.duration_ms").
//
// Hot-path design: instrumented subsystems resolve a handle (Counter*,
// Gauge*, Histogram*) once at wiring time and keep a null pointer when no
// registry is attached — the disabled path is a single pointer test, no
// lookup, no allocation. Handles stay valid for the registry's lifetime
// (node-based storage). Iteration is name-ordered, so every exporter is
// deterministic by construction.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "qsa/obs/histogram.hpp"

namespace qsa::obs {

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t delta = 1) noexcept { value += delta; }
};

/// A sampled level; tracks its high-water mark across the run.
struct Gauge {
  double value = 0;
  double high_water = 0;
  void set(double v) noexcept {
    value = v;
    if (v > high_water) high_water = v;
  }
};

class MetricsRegistry {
 public:
  /// Finds or creates the named instrument. The returned reference is
  /// stable for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // One-shot conveniences (lookup per call; fine off the hot path).
  void add(std::string_view name, std::uint64_t delta = 1) {
    counter(name).add(delta);
  }
  void set(std::string_view name, double v) { gauge(name).set(v); }
  void observe(std::string_view name, double v) { histogram(name).observe(v); }

  using CounterMap = std::map<std::string, Counter, std::less<>>;
  using GaugeMap = std::map<std::string, Gauge, std::less<>>;
  using HistogramMap = std::map<std::string, Histogram, std::less<>>;

  [[nodiscard]] const CounterMap& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const GaugeMap& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const noexcept {
    return histograms_;
  }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
};

}  // namespace qsa::obs
