#include "qsa/obs/export.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>

namespace qsa::obs {
namespace {

// Shortest round-trip decimal form — deterministic, locale-independent.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_histogram_json(std::string& out, const Histogram& h) {
  out += "{\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (h.buckets()[i] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    append_u64(out, i);
    out += ',';
    append_u64(out, h.buckets()[i]);
    out += ']';
  }
  out += "],\"count\":";
  append_u64(out, h.count());
  out += ",\"max\":";
  append_double(out, h.max());
  out += ",\"mean\":";
  append_double(out, h.mean());
  out += ",\"min\":";
  append_double(out, h.min());
  out += ",\"p50\":";
  append_double(out, h.p50());
  out += ",\"p90\":";
  append_double(out, h.p90());
  out += ",\"p99\":";
  append_double(out, h.p99());
  out += ",\"sum\":";
  append_double(out, h.sum());
  out += '}';
}

}  // namespace

// Metric/cause names are identifier-like; escape everything JSON requires
// anyway — quotes, backslashes and all control characters — so the emitter
// is safe for any input and the output always parses.
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_span_json(std::string& out, const Span& span) {
  out += '{';
  if (!span.attrs.empty()) {
    // Keys in sorted order, like every other object in the export.
    std::array<SpanAttr, 6> attrs{};
    const std::size_t n = span.attrs.size();
    std::copy(span.attrs.begin(), span.attrs.end(), attrs.begin());
    // Insertion sort: at most six keys, and std::sort on this tiny range
    // trips GCC 12's -Warray-bounds.
    for (std::size_t i = 1; i < n; ++i) {
      SpanAttr key = attrs[i];
      std::size_t j = i;
      while (j > 0 && std::strcmp(attrs[j - 1].key, key.key) > 0) {
        attrs[j] = attrs[j - 1];
        --j;
      }
      attrs[j] = key;
    }
    out += "\"attrs\":{";
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out += ',';
      append_json_string(out, attrs[i].key);
      out += ':';
      append_double(out, attrs[i].value);
    }
    out += "},";
  }
  out += "\"begin_ms\":";
  append_i64(out, span.begin.as_millis());
  if (!span.cause.empty()) {
    out += ",\"cause\":";
    append_json_string(out, span.cause);
  }
  out += ",\"end_ms\":";
  append_i64(out, span.end.as_millis());
  out += ",\"phase\":";
  append_json_string(out, to_string(span.phase));
  out += ",\"request\":";
  append_u64(out, span.request);
  out += ",\"status\":";
  append_json_string(out, to_string(span.status));
  out += '}';
}

void append_series_row(std::string& out, std::string_view series,
                       sim::SimTime time, double value) {
  out += series;
  out += ',';
  append_i64(out, time.as_millis());
  out += ',';
  append_double(out, value);
  out += '\n';
}

std::string metrics_json(const MetricsRegistry& registry) {
  std::string out;
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : registry.counters()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_u64(out, c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : registry.gauges()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"high_water\":";
    append_double(out, g.high_water);
    out += ",\"value\":";
    append_double(out, g.value);
    out += '}';
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : registry.histograms()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_histogram_json(out, h);
  }
  out += "}}\n";
  return out;
}

std::string metrics_csv(const MetricsRegistry& registry) {
  std::string out = "kind,name,field,value\n";
  auto row = [&out](std::string_view kind, std::string_view name,
                    std::string_view field, double v) {
    out += kind;
    out += ',';
    out += name;
    out += ',';
    out += field;
    out += ',';
    append_double(out, v);
    out += '\n';
  };
  for (const auto& [name, c] : registry.counters()) {
    out += "counter,";
    out += name;
    out += ",value,";
    append_u64(out, c.value);
    out += '\n';
  }
  for (const auto& [name, g] : registry.gauges()) {
    row("gauge", name, "value", g.value);
    row("gauge", name, "high_water", g.high_water);
  }
  for (const auto& [name, h] : registry.histograms()) {
    row("histogram", name, "count", static_cast<double>(h.count()));
    row("histogram", name, "sum", h.sum());
    row("histogram", name, "min", h.min());
    row("histogram", name, "max", h.max());
    row("histogram", name, "mean", h.mean());
    row("histogram", name, "p50", h.p50());
    row("histogram", name, "p90", h.p90());
    row("histogram", name, "p99", h.p99());
  }
  return out;
}

}  // namespace qsa::obs
