// Live time-series recorder: named sim-time series sampled on a fixed
// window while the simulation runs and streamed row-by-row through a
// CsvMetricSink. It keeps no samples: the CSV stream is the one copy.
//
// Two feeding styles:
//   * track(name, probe): the probe is polled once per sample() tick (the
//     harness's --obs-window-ms event), in registration order — used for
//     instantaneous state like event-queue depth, replica counts or cache
//     hit ratios.
//   * push(name, now, value): the producer computes a windowed value itself
//     (e.g. the harness's windowed ψ) and records it directly.
//
// Determinism: registration order, poll order and value computation are all
// functions of the (seeded, single-threaded) simulation, so the CSV row
// stream a sink sees is byte-identical across runs and ExperimentRunner
// thread counts. Names must point at static storage; the recorder never
// copies name strings.
#pragma once

#include <string_view>
#include <vector>

#include "qsa/sim/time.hpp"
#include "qsa/util/inplace_function.hpp"

namespace qsa::obs {

class CsvMetricSink;

class LiveSeries {
 public:
  using Probe = util::InplaceFunction<double(), 32>;

  /// Attaches the streaming row destination (not owned). Without one,
  /// probes are still polled and their samples dropped.
  void set_sink(CsvMetricSink* sink) noexcept { sink_ = sink; }

  /// Registers a polled series. `name` must outlive the recorder and be
  /// registered once.
  void track(std::string_view name, Probe probe);

  /// Records one sample directly (windowed values the producer computes).
  void push(std::string_view name, sim::SimTime now, double value);

  /// Polls every tracked probe once, in registration order.
  void sample(sim::SimTime now);

 private:
  struct Tracked {
    std::string_view name;
    Probe probe;
  };

  CsvMetricSink* sink_ = nullptr;
  /// A handful of polled series, in registration order.
  std::vector<Tracked> tracked_;
};

}  // namespace qsa::obs
