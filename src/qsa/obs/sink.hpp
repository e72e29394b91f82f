// The two streaming writers of the observability layer: spans as JSON lines
// and live time-series samples as CSV rows, each over a std::ostream.
//
// The tracer and the grid's live time-series never buffer a whole run:
// completed artifacts go through these writers as they are produced, so
// resident observability memory stays O(active requests) while the files on
// disk grow with the run. Writers are chunked — bytes are staged in a
// reused string and handed to the stream in kChunk-sized writes, so the hot
// path never does per-span stream I/O or per-span allocation beyond the
// occasional buffer growth. A caller that wants the output in memory (a
// test) gives the writer a std::ostringstream.
//
// Determinism: a writer only ever sees what the (single-threaded, seeded)
// simulation feeds it, in feed order, rendered by export.hpp's renderers —
// so the emitted byte stream is reproducible across runs and platforms.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "qsa/obs/trace_span.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::obs {

/// Receives every completed span of every *emitted* request (sampling and
/// request routing happen in the Tracer) and writes one JSON object per
/// line.
class JsonlSpanSink {
 public:
  static constexpr std::size_t kChunk = 64 * 1024;

  explicit JsonlSpanSink(std::ostream& os) : os_(os) {}
  ~JsonlSpanSink();
  JsonlSpanSink(const JsonlSpanSink&) = delete;
  JsonlSpanSink& operator=(const JsonlSpanSink&) = delete;

  void on_span(const Span& span);
  /// Hands any staged bytes to the stream. Called at end of run and
  /// whenever a consumer needs the output complete.
  void flush();

 private:
  std::ostream& os_;
  std::string buffer_;
};

/// Receives live time-series samples and writes CSV: header
/// `series,time_ms,value`, one row per sample, in feed order (chronological,
/// series in per-window record order).
class CsvMetricSink {
 public:
  static constexpr std::size_t kChunk = 64 * 1024;

  explicit CsvMetricSink(std::ostream& os);
  ~CsvMetricSink();
  CsvMetricSink(const CsvMetricSink&) = delete;
  CsvMetricSink& operator=(const CsvMetricSink&) = delete;

  void on_sample(std::string_view series, sim::SimTime time, double value);
  void flush();

 private:
  std::ostream& os_;
  std::string buffer_;
};

}  // namespace qsa::obs
