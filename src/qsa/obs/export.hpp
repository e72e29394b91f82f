// Deterministic exporters for the observability layer.
//
// All output is byte-reproducible for a given run: object keys are emitted
// in sorted order, instruments iterate name-ordered, timestamps are sim-time
// milliseconds only (never wall clock), and doubles are rendered with
// std::to_chars shortest round-trip form. Two runs with the same seed — or
// the same cells executed under any ExperimentRunner thread count — produce
// identical bytes.
//
// Formats:
//   - trace:   JSON lines, one span per line, written by JsonlSpanSink
//              (see sink.hpp); span rendering lives here.
//   - series:  CSV rows `series,time_ms,value`, written by CsvMetricSink;
//              row rendering lives here.
//   - metrics: one JSON object {"counters":{},"gauges":{},"histograms":{}},
//              or flat CSV rows `kind,name,field,value`.
#pragma once

#include <string>
#include <string_view>

#include "qsa/obs/registry.hpp"
#include "qsa/obs/trace_span.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::obs {

/// Appends `s` as a JSON string literal, escaping quotes, backslashes and
/// every control character below 0x20 (named escapes where JSON has them,
/// \u00XX otherwise).
void append_json_string(std::string& out, std::string_view s);

/// Appends one span as a single JSON object (no newline).
void append_span_json(std::string& out, const Span& span);

/// Appends one `series,time_ms,value` CSV row (newline included).
void append_series_row(std::string& out, std::string_view series,
                       sim::SimTime time, double value);

/// The registry as one sorted-key JSON document (trailing newline).
[[nodiscard]] std::string metrics_json(const MetricsRegistry& registry);

/// The registry as CSV rows `kind,name,field,value` (header included).
[[nodiscard]] std::string metrics_csv(const MetricsRegistry& registry);

}  // namespace qsa::obs
