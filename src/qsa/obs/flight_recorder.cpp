#include "qsa/obs/flight_recorder.hpp"

#include <algorithm>
#include <charconv>

#include "qsa/obs/export.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::obs {

FlightRecorder::FlightRecorder(std::uint32_t capacity) : capacity_(capacity) {
  QSA_EXPECTS(capacity >= 1);
}

FlightRecorder::Ring& FlightRecorder::ring_for(std::string_view cause) {
  for (Ring& r : rings_) {
    if (r.cause == cause) return r;
  }
  rings_.push_back(Ring{cause, {}, 0, 0});
  return rings_.back();
}

void FlightRecorder::record(std::uint64_t request, std::string_view cause,
                            const std::vector<Span>& spans) {
  Ring& ring = ring_for(cause);
  if (ring.slots.size() < capacity_) {
    ring.slots.emplace_back();
    Chain& c = ring.slots.back();
    c.request = request;
    c.cause = cause;
    c.spans = spans;
  } else {
    // Recycle the oldest slot; copy-assign reuses its span capacity.
    Chain& c = ring.slots[ring.next];
    c.request = request;
    c.cause = cause;
    c.spans = spans;
    ring.next = (ring.next + 1) % capacity_;
  }
  ++ring.total;
  ++recorded_;
}

std::size_t FlightRecorder::size() const noexcept {
  std::size_t n = 0;
  for (const Ring& r : rings_) n += r.slots.size();
  return n;
}

std::vector<const FlightRecorder::Chain*> FlightRecorder::chains(
    std::string_view cause) const {
  std::vector<const Chain*> out;
  for (const Ring& r : rings_) {
    if (r.cause != cause) continue;
    // Oldest chain sits at `next` once the ring has wrapped, at 0 before.
    const std::size_t n = r.slots.size();
    const std::size_t start = n < capacity_ ? 0 : r.next;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(&r.slots[(start + i) % n]);
    }
    break;
  }
  return out;
}

std::vector<std::string_view> FlightRecorder::causes() const {
  std::vector<std::string_view> out;
  out.reserve(rings_.size());
  for (const Ring& r : rings_) out.push_back(r.cause);
  std::sort(out.begin(), out.end());
  return out;
}

std::string FlightRecorder::jsonl() const {
  std::string out;
  for (std::string_view cause : causes()) {
    for (const Chain* chain : chains(cause)) {
      out += "{\"cause\":";
      append_json_string(out, chain->cause);
      out += ",\"request\":";
      char buf[24];
      const auto res =
          std::to_chars(buf, buf + sizeof buf, chain->request);
      out.append(buf, res.ptr);
      out += ",\"spans\":[";
      for (std::size_t i = 0; i < chain->spans.size(); ++i) {
        if (i > 0) out += ',';
        append_span_json(out, chain->spans[i]);
      }
      out += "]}\n";
    }
  }
  return out;
}

}  // namespace qsa::obs
