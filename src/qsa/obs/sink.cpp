#include "qsa/obs/sink.hpp"

#include <ostream>

#include "qsa/obs/export.hpp"

namespace qsa::obs {
namespace {

/// Hands `buffer`'s staged bytes to `os` and empties it.
void write_out(std::ostream& os, std::string& buffer) {
  if (buffer.empty()) return;
  os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  buffer.clear();
}

}  // namespace

JsonlSpanSink::~JsonlSpanSink() { flush(); }

void JsonlSpanSink::on_span(const Span& span) {
  append_span_json(buffer_, span);
  buffer_ += '\n';
  if (buffer_.size() >= kChunk) flush();
}

void JsonlSpanSink::flush() { write_out(os_, buffer_); }

CsvMetricSink::CsvMetricSink(std::ostream& os)
    : os_(os), buffer_("series,time_ms,value\n") {}

CsvMetricSink::~CsvMetricSink() { flush(); }

void CsvMetricSink::on_sample(std::string_view series, sim::SimTime time,
                              double value) {
  append_series_row(buffer_, series, time, value);
  if (buffer_.size() >= kChunk) flush();
}

void CsvMetricSink::flush() { write_out(os_, buffer_); }

}  // namespace qsa::obs
