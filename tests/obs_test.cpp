#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs_capture.hpp"
#include "qsa/harness/experiment.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/obs/export.hpp"
#include "qsa/obs/flight_recorder.hpp"
#include "qsa/obs/histogram.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/obs/trace.hpp"

namespace qsa::obs {
namespace {

using test::SeriesCapture;
using test::SpanCapture;

/// Lines of `text` that contain every one of `parts` and not `unless`.
std::uint64_t count_lines(const std::string& text,
                          std::initializer_list<std::string> parts,
                          const std::string& unless = {}) {
  std::uint64_t n = 0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!unless.empty() && line.find(unless) != std::string::npos) continue;
    if (std::all_of(parts.begin(), parts.end(), [&line](const auto& part) {
          return line.find(part) != std::string::npos;
        })) {
      ++n;
    }
  }
  return n;
}

// ------------------------------------------------------------ Histogram

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(Histogram, SingleSampleQuantilesAreTheSample) {
  Histogram h;
  h.observe(7.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 7.0);
  EXPECT_EQ(h.max(), 7.0);
  EXPECT_EQ(h.mean(), 7.0);
  // Clamped to [min, max], so any quantile of one sample is that sample.
  EXPECT_EQ(h.p50(), 7.0);
  EXPECT_EQ(h.p90(), 7.0);
  EXPECT_EQ(h.p99(), 7.0);
}

TEST(Histogram, BucketIndexEdges) {
  // Bucket 0: everything below 1, including negatives and NaN-safe input.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.5), 0u);
  EXPECT_EQ(Histogram::bucket_index(-100.0), 0u);
  // Bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_index(1.999), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(3.999), 2u);
  EXPECT_EQ(Histogram::bucket_index(4.0), 3u);
  // Overflow clamps to the last bucket.
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_lower(0), 0.0);
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBuckets - 1)));
}

TEST(Histogram, BucketBoundsRoundTrip) {
  for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(i)), i) << i;
  }
}

TEST(Histogram, QuantilesOrderedAndClamped) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p99(), h.max());
  // p50 of 1..100 should land around the middle power-of-two bucket.
  EXPECT_GT(h.p50(), 20.0);
  EXPECT_LT(h.p50(), 80.0);
}

TEST(Histogram, OverflowSampleLandsInLastBucket) {
  Histogram h;
  h.observe(1e300);
  EXPECT_EQ(h.buckets()[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(h.max(), 1e300);
  EXPECT_EQ(h.p99(), 1e300);  // clamped to max, not the bucket bound
}

TEST(Histogram, MergeAddsCountsAndExtremes) {
  Histogram a, b;
  a.observe(2.0);
  b.observe(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 2.0);
  EXPECT_EQ(a.max(), 100.0);
  EXPECT_EQ(a.sum(), 102.0);
}

TEST(Histogram, MergeWithEmptyIsIdentityBothWays) {
  Histogram a, empty;
  a.observe(3.0);
  a.observe(9.0);
  // Merging an empty histogram changes nothing — in particular it must not
  // drag min down to the empty histogram's zero-initialised extremes.
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 3.0);
  EXPECT_EQ(a.max(), 9.0);
  EXPECT_EQ(a.sum(), 12.0);
  // Merging into an empty histogram adopts the other's extremes wholesale.
  Histogram b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 3.0);
  EXPECT_EQ(b.max(), 9.0);
  EXPECT_EQ(b.p50(), a.p50());
}

TEST(Histogram, MergePreservesOverflowBucket) {
  Histogram a, b;
  a.observe(1.0);
  b.observe(1e300);
  a.merge(b);
  EXPECT_EQ(a.buckets()[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(a.max(), 1e300);
  EXPECT_EQ(a.count(), 2u);
}

// --------------------------------------------------------------- Tracer

TEST(Tracer, SpanLifecycleStreamsOnFinish) {
  Tracer t;
  SpanCapture cap;
  t.set_sink(&cap.sink);
  const auto id = t.begin(1, Phase::kRunning, sim::SimTime::millis(10));
  t.annotate(id, "hosts", 3);
  EXPECT_EQ(t.open_spans(), 1u);
  EXPECT_EQ(t.live_spans(), 1u);
  t.end(id, sim::SimTime::millis(500), SpanStatus::kOk);
  EXPECT_EQ(t.open_spans(), 0u);
  // Closed but not yet emitted: spans stream when their request finishes.
  EXPECT_EQ(t.emitted_spans(), 0u);
  t.finish(1);
  EXPECT_EQ(t.emitted_spans(), 1u);
  EXPECT_EQ(t.live_spans(), 0u);  // nodes recycled
  EXPECT_EQ(t.finished_requests(), 1u);
  EXPECT_EQ(cap.str(),
            "{\"attrs\":{\"hosts\":3},\"begin_ms\":10,\"end_ms\":500,"
            "\"phase\":\"running\",\"request\":1,\"status\":\"ok\"}\n");
}

TEST(Tracer, EndIsIdempotent) {
  Tracer t;
  SpanCapture cap;
  t.set_sink(&cap.sink);
  const auto id = t.begin(1, Phase::kAdmission, sim::SimTime::millis(0));
  t.end(id, sim::SimTime::millis(1), SpanStatus::kFail, "admission");
  t.end(id, sim::SimTime::millis(9), SpanStatus::kOk);  // ignored
  t.finish(1);
  const std::string out = cap.str();
  EXPECT_EQ(count_lines(out, {"\"status\":\"fail\""}), 1u);
  EXPECT_EQ(count_lines(out, {"\"status\":\"ok\""}), 0u);
  EXPECT_NE(out.find("\"end_ms\":1,"), std::string::npos);
}

TEST(Tracer, StaleHandleAfterFinishIsANoOp) {
  Tracer t;
  SpanCapture cap;
  t.set_sink(&cap.sink);
  const auto id = t.begin(1, Phase::kRunning, sim::SimTime::millis(0));
  t.end(id, sim::SimTime::millis(5), SpanStatus::kOk);
  t.finish(1);
  // The slot is recycled and its generation bumped: a retained handle must
  // not corrupt whatever lives there next.
  const auto id2 = t.begin(2, Phase::kRunning, sim::SimTime::millis(10));
  t.end(id, sim::SimTime::millis(99), SpanStatus::kFail, "stale");
  t.annotate(id, "stale", 1.0);
  EXPECT_EQ(t.open_spans(), 1u);  // request 2's span untouched
  t.end(id2, sim::SimTime::millis(11), SpanStatus::kOk);
  t.finish(2);
  const std::string out = cap.str();
  EXPECT_EQ(out.find("stale"), std::string::npos);
  EXPECT_EQ(count_lines(out, {"\"phase\":\"running\"", "\"status\":\"ok\""}),
            2u);
  EXPECT_EQ(count_lines(out, {"\"status\":\"fail\""}), 0u);
}

TEST(Tracer, EndOpenUnwindsAndEmitsInBeginOrder) {
  Tracer t;
  SpanCapture cap;
  t.set_sink(&cap.sink);
  t.begin(7, Phase::kRunning, sim::SimTime::millis(0));
  t.begin(7, Phase::kRecovery, sim::SimTime::millis(5));
  t.end_open(7, sim::SimTime::millis(9), SpanStatus::kAbort, "horizon");
  EXPECT_EQ(t.open_spans(), 0u);
  t.finish(7);
  const std::string out = cap.str();
  EXPECT_EQ(
      count_lines(out, {"\"phase\":\"running\"", "\"status\":\"abort\""}),
      1u);
  EXPECT_EQ(
      count_lines(out, {"\"phase\":\"recovery\"", "\"status\":\"abort\""}),
      1u);
  // Emission preserves begin order even though unwinding closed the
  // recovery span first.
  const auto run_pos = out.find("\"phase\":\"running\"");
  const auto rec_pos = out.find("\"phase\":\"recovery\"");
  ASSERT_NE(run_pos, std::string::npos);
  ASSERT_NE(rec_pos, std::string::npos);
  EXPECT_LT(run_pos, rec_pos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

// The flight recorder files a chain under its request's terminal failure,
// so it shows what the tracer counts as one.
Tracer flight_tracer() {
  TraceConfig cfg;
  cfg.flight_capacity = 4;
  return Tracer(cfg);
}

TEST(Tracer, FailuresExcludeRecoverySpans) {
  Tracer t = flight_tracer();
  SpanCapture cap;
  t.set_sink(&cap.sink);
  // A failed repair attempt inside a session that survives: the request
  // did not fail.
  t.instant(2, Phase::kRecovery, sim::SimTime::millis(50), SpanStatus::kFail,
            "departure");
  const auto ok = t.begin(2, Phase::kRunning, sim::SimTime::millis(0));
  t.end(ok, sim::SimTime::millis(60), SpanStatus::kOk);
  t.finish(2);
  EXPECT_EQ(t.flight()->recorded(), 0u);
  // A failed repair attempt inside a session that then fails: one recovery
  // kFail span plus the terminal running kFail span, same cause.
  t.instant(3, Phase::kRecovery, sim::SimTime::millis(50), SpanStatus::kFail,
            "departure");
  const auto run = t.begin(3, Phase::kRunning, sim::SimTime::millis(0));
  t.end(run, sim::SimTime::millis(60), SpanStatus::kFail, "departure");
  t.finish(3);
  ASSERT_EQ(t.flight()->chains("departure").size(), 1u);
  EXPECT_EQ(t.flight()->chains("departure")[0]->request, 3u);
  // The trace shows two recovery failures and one request failure.
  const std::string out = cap.str();
  EXPECT_EQ(count_lines(out, {"\"phase\":\"recovery\"", "\"status\":\"fail\""}),
            2u);
  EXPECT_EQ(count_lines(out, {"\"status\":\"fail\""}, "\"phase\":\"recovery\""),
            1u);
}

TEST(Tracer, RetryIsNotAFailure) {
  Tracer t = flight_tracer();
  SpanCapture cap;
  t.set_sink(&cap.sink);
  t.instant(4, Phase::kAdmission, sim::SimTime::millis(1), SpanStatus::kRetry,
            "admission");
  t.instant(4, Phase::kAdmission, sim::SimTime::millis(2), SpanStatus::kFail,
            "admission");
  t.finish(4);
  // A retry that then succeeds leaves no failure behind.
  t.instant(5, Phase::kAdmission, sim::SimTime::millis(3), SpanStatus::kRetry,
            "admission");
  t.instant(5, Phase::kAdmission, sim::SimTime::millis(4), SpanStatus::kOk);
  t.finish(5);
  ASSERT_EQ(t.flight()->recorded(), 1u);
  EXPECT_EQ(t.flight()->chains("admission")[0]->request, 4u);
  EXPECT_EQ(t.flight()->chains("admission")[0]->spans.size(), 2u);
  const std::string out = cap.str();
  EXPECT_EQ(count_lines(out, {"\"status\":\"retry\""}), 2u);
  EXPECT_EQ(count_lines(out, {"\"status\":\"fail\""}), 1u);
}

TEST(Tracer, MemoryIsBoundedByInFlightRequests) {
  Tracer t;
  SpanCapture cap;
  t.set_sink(&cap.sink);
  // 500 requests, two spans each, never more than two requests in flight:
  // the slab must recycle instead of growing with the total span count.
  for (std::uint64_t r = 0; r < 500; ++r) {
    const auto setup =
        t.instant(r, Phase::kAdmission, sim::SimTime::millis(r), SpanStatus::kOk);
    (void)setup;
    const auto run = t.begin(r, Phase::kRunning, sim::SimTime::millis(r));
    t.end(run, sim::SimTime::millis(r + 10), SpanStatus::kOk);
    t.finish(r);
  }
  EXPECT_EQ(t.live_spans(), 0u);
  EXPECT_LE(t.peak_live_spans(), 2u);
  EXPECT_EQ(t.finished_requests(), 500u);
  EXPECT_EQ(t.emitted_spans(), 1000u);
  const std::string out = cap.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1000);
}

// ------------------------------------------------------------- Sampling

TEST(Tracer, SamplingIsAPureFunctionOfSeedAndRequest) {
  TraceConfig cfg;
  cfg.seed = 42;
  cfg.sample_every = 4;
  const Tracer a(cfg), b(cfg);
  std::uint64_t kept = 0;
  for (std::uint64_t r = 0; r < 400; ++r) {
    EXPECT_EQ(a.sampled(r), b.sampled(r)) << r;
    kept += a.sampled(r) ? 1 : 0;
  }
  // Roughly 1-in-4; the hash makes the exact set seed-dependent.
  EXPECT_GT(kept, 400u / 8);
  EXPECT_LT(kept, 400u / 2);
  TraceConfig other = cfg;
  other.seed = 43;
  const Tracer c(other);
  bool differs = false;
  for (std::uint64_t r = 0; r < 400 && !differs; ++r) {
    differs = c.sampled(r) != a.sampled(r);
  }
  EXPECT_TRUE(differs);  // the kept set depends on the seed
}

TEST(Tracer, RateOneAndRateZeroKeepEverything) {
  for (std::uint32_t rate : {0u, 1u}) {
    TraceConfig cfg;
    cfg.seed = 7;
    cfg.sample_every = rate;
    Tracer t(cfg);
    for (std::uint64_t r = 0; r < 100; ++r) EXPECT_TRUE(t.sampled(r));
  }
}

TEST(Tracer, SampledStreamIsSubsetAndCountsStayExact) {
  const auto feed = [](Tracer& t) {
    for (std::uint64_t r = 0; r < 200; ++r) {
      const auto id = t.begin(r, Phase::kRunning, sim::SimTime::millis(r));
      if (r % 3 == 0) {
        t.end(id, sim::SimTime::millis(r + 5), SpanStatus::kFail, "departure");
      } else {
        t.end(id, sim::SimTime::millis(r + 5), SpanStatus::kOk);
      }
      t.finish(r);
    }
  };
  TraceConfig full_cfg;
  full_cfg.seed = 11;
  Tracer full(full_cfg);
  SpanCapture full_cap;
  full.set_sink(&full_cap.sink);
  feed(full);

  TraceConfig sampled_cfg = full_cfg;
  sampled_cfg.sample_every = 4;
  Tracer sampled(sampled_cfg);
  SpanCapture sampled_cap;
  sampled.set_sink(&sampled_cap.sink);
  feed(sampled);

  // The finished-request count is exact under any rate...
  EXPECT_EQ(sampled.finished_requests(), full.finished_requests());
  // ...while the stream itself thins to the sampled subset.
  EXPECT_LT(sampled.emitted_spans(), full.emitted_spans());
  EXPECT_GT(sampled.emitted_spans(), 0u);
  EXPECT_EQ(sampled.sampled_requests(), sampled.emitted_spans());
  const std::string full_trace = full_cap.str();
  const std::string sampled_trace = sampled_cap.str();
  std::string_view rest = sampled_trace;
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    ASSERT_NE(nl, std::string_view::npos);
    const std::string line(rest.substr(0, nl + 1));
    EXPECT_NE(full_trace.find(line), std::string::npos) << line;
    rest.remove_prefix(nl + 1);
  }
}

// ------------------------------------------------------ Flight recorder

TEST(FlightRecorder, RetainsLastKPerCauseOldestFirst) {
  FlightRecorder fr(2);
  std::vector<Span> chain(1);
  for (std::uint64_t r = 0; r < 5; ++r) {
    chain[0].request = r;
    fr.record(r, "departure", chain);
  }
  chain[0].request = 9;
  fr.record(9, "admission", chain);

  EXPECT_EQ(fr.capacity(), 2u);
  EXPECT_EQ(fr.recorded(), 6u);
  EXPECT_EQ(fr.size(), 3u);  // two departure chains + one admission chain
  const auto departures = fr.chains("departure");
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_EQ(departures[0]->request, 3u);  // oldest retained
  EXPECT_EQ(departures[1]->request, 4u);  // newest
  const auto causes = fr.causes();
  ASSERT_EQ(causes.size(), 2u);
  EXPECT_EQ(causes[0], "admission");  // lexicographic
  EXPECT_EQ(causes[1], "departure");
  EXPECT_TRUE(fr.chains("unknown").empty());
}

TEST(FlightRecorder, JsonlOneLinePerChainSortedByCause) {
  FlightRecorder fr(4);
  std::vector<Span> chain(2);
  chain[0].request = chain[1].request = 5;
  fr.record(5, "departure", chain);
  chain[0].request = chain[1].request = 6;
  fr.record(6, "admission", chain);
  const std::string out = fr.jsonl();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  const auto adm = out.find("\"cause\":\"admission\"");
  const auto dep = out.find("\"cause\":\"departure\"");
  ASSERT_NE(adm, std::string::npos);
  ASSERT_NE(dep, std::string::npos);
  EXPECT_LT(adm, dep);
  EXPECT_NE(out.find("\"request\":6"), std::string::npos);
}

TEST(Tracer, FlightRecorderKeepsFailuresEvenWhenUnsampled) {
  TraceConfig cfg;
  cfg.seed = 3;
  cfg.sample_every = 1000000;  // effectively drop everything from the stream
  cfg.flight_capacity = 2;
  Tracer t(cfg);
  SpanCapture cap;
  t.set_sink(&cap.sink);

  // Five failing requests, chosen unsampled so the stream stays silent.
  std::uint64_t fed = 0;
  for (std::uint64_t r = 0; fed < 5; ++r) {
    if (t.sampled(r)) continue;
    t.instant(r, Phase::kAdmission, sim::SimTime::millis(r), SpanStatus::kFail,
              "admission");
    t.finish(r);
    ++fed;
  }
  EXPECT_EQ(cap.str(), "");
  ASSERT_NE(t.flight(), nullptr);
  EXPECT_EQ(t.flight()->recorded(), 5u);
  EXPECT_EQ(t.flight()->chains("admission").size(), 2u);  // last K retained

  // A recovered request routes under the "recovered" pseudo-cause.
  const auto run = t.begin(7000, Phase::kRunning, sim::SimTime::millis(0));
  t.instant(7000, Phase::kRecovery, sim::SimTime::millis(3), SpanStatus::kOk);
  t.end(run, sim::SimTime::millis(9), SpanStatus::kOk);
  t.finish(7000);
  ASSERT_EQ(t.flight()->chains("recovered").size(), 1u);
  EXPECT_EQ(t.flight()->chains("recovered")[0]->spans.size(), 2u);

  // A clean success leaves no forensic record.
  t.instant(7001, Phase::kRunning, sim::SimTime::millis(10), SpanStatus::kOk);
  t.finish(7001);
  EXPECT_EQ(t.flight()->recorded(), 6u);
}

// ------------------------------------------------------------ Exporters

TEST(Export, SpanJsonGolden) {
  Tracer t;
  SpanCapture cap;
  t.set_sink(&cap.sink);
  const auto id = t.begin(12, Phase::kDiscovery, sim::SimTime::millis(100));
  // Annotated out of order: keys must come out sorted.
  t.annotate(id, "latency_ms", 42.5);
  t.annotate(id, "hops", 6);
  t.end(id, sim::SimTime::millis(100), SpanStatus::kFail, "discovery");
  t.finish(12);
  EXPECT_EQ(cap.str(),
            "{\"attrs\":{\"hops\":6,\"latency_ms\":42.5},"
            "\"begin_ms\":100,\"cause\":\"discovery\",\"end_ms\":100,"
            "\"phase\":\"discovery\",\"request\":12,\"status\":\"fail\"}\n");
}

TEST(Export, TraceJsonlOneLinePerSpan) {
  Tracer t;
  SpanCapture cap;
  t.set_sink(&cap.sink);
  t.instant(1, Phase::kTeardown, sim::SimTime::millis(5), SpanStatus::kOk);
  t.instant(2, Phase::kTeardown, sim::SimTime::millis(6), SpanStatus::kOk);
  t.finish_all();
  const std::string out = cap.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

// Minimal JSON string-literal decoder for the round-trip check below.
std::string unescape_json(std::string_view s) {
  EXPECT_GE(s.size(), 2u);
  EXPECT_EQ(s.front(), '"');
  EXPECT_EQ(s.back(), '"');
  std::string out;
  for (std::size_t i = 1; i + 1 < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        const int v = std::stoi(std::string(s.substr(i + 1, 4)), nullptr, 16);
        out += static_cast<char>(v);
        i += 4;
        break;
      }
      default: ADD_FAILURE() << "bad escape in " << s;
    }
  }
  return out;
}

TEST(Export, JsonStringEscapingGolden) {
  std::string out;
  append_json_string(out, "plain");
  EXPECT_EQ(out, "\"plain\"");
  out.clear();
  append_json_string(out, "a\"b\\c\nd\te\rf\bg\fh");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\"");
  out.clear();
  append_json_string(out, std::string_view("x\x01\x1fy", 4));
  EXPECT_EQ(out, "\"x\\u0001\\u001fy\"");
}

TEST(Export, JsonStringEscapingRoundTrip) {
  // Every byte below 0x80 that matters, plus the named-escape set, must
  // survive encode -> decode unchanged.
  std::string original = "quote:\" backslash:\\ newline:\n tab:\t";
  for (char c = 1; c < 0x20; ++c) original += c;
  original += "tail";
  std::string encoded;
  append_json_string(encoded, original);
  // The encoded form itself must contain no raw control characters.
  for (char c : encoded) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_EQ(unescape_json(encoded), original);
}

TEST(Export, SpanJsonEscapesHostileCause) {
  Tracer t;
  SpanCapture cap;
  t.set_sink(&cap.sink);
  t.instant(1, Phase::kAdmission, sim::SimTime::millis(0), SpanStatus::kFail,
            "bad\"cause\nwith\tcontrol");
  t.finish(1);
  const std::string out = cap.str();
  EXPECT_NE(out.find("\"cause\":\"bad\\\"cause\\nwith\\tcontrol\""),
            std::string::npos);
  // Still exactly one line: the newline inside the cause was escaped.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

TEST(Export, MetricsJsonGolden) {
  MetricsRegistry r;
  r.add("b.count", 2);
  r.add("a.count", 1);
  r.set("queue.depth", 3);
  r.observe("rtt_ms", 2.0);
  EXPECT_EQ(metrics_json(r),
            "{\"counters\":{\"a.count\":1,\"b.count\":2},"
            "\"gauges\":{\"queue.depth\":{\"high_water\":3,\"value\":3}},"
            "\"histograms\":{\"rtt_ms\":{\"buckets\":[[2,1]],\"count\":1,"
            "\"max\":2,\"mean\":2,\"min\":2,\"p50\":2,\"p90\":2,\"p99\":2,"
            "\"sum\":2}}}\n");
}

TEST(Export, MetricsCsvShape) {
  MetricsRegistry r;
  r.add("x", 5);
  r.observe("h", 1.5);
  const std::string out = metrics_csv(r);
  EXPECT_EQ(out.rfind("kind,name,field,value\n", 0), 0u);
  EXPECT_NE(out.find("counter,x,value,5\n"), std::string::npos);
  EXPECT_NE(out.find("histogram,h,count,1\n"), std::string::npos);
  EXPECT_NE(out.find("histogram,h,p99,1.5\n"), std::string::npos);
}

// ----------------------------------------------- End-to-end grid tracing

harness::GridConfig churn_config() {
  harness::GridConfig c;
  c.seed = 11;
  c.peers = 300;
  c.min_providers = 15;
  c.max_providers = 30;
  c.apps.applications = 6;
  c.requests.rate_per_min = 30;
  c.horizon = sim::SimTime::minutes(20);
  c.churn.events_per_min = 6;
  c.enable_recovery = true;
  c.admission_retries = 1;
  c.observe = true;
  return c;
}

struct GridRun {
  harness::GridResult result;
  std::string trace;
  std::uint64_t emitted = 0;
  std::uint64_t sampled = 0;
  std::size_t peak_live = 0;
};

GridRun run_churn(const harness::GridConfig& cfg) {
  harness::GridSimulation grid(cfg);
  SpanCapture cap;
  grid.set_span_sink(&cap.sink);
  GridRun out;
  out.result = grid.run();
  out.trace = cap.str();
  if (grid.tracer() != nullptr) {
    out.emitted = grid.tracer()->emitted_spans();
    out.sampled = grid.tracer()->sampled_requests();
    out.peak_live = grid.tracer()->peak_live_spans();
  }
  return out;
}

// The acceptance identity: every GridResult failure counter must be
// reconstructible from the streamed trace of an unsampled run — per cause,
// the "fail" spans outside recovery (a failed repair attempt is not a
// request outcome) == the counter.
TEST(GridTracing, SpanFailuresMatchResultCounters) {
  harness::GridSimulation grid(churn_config());
  SpanCapture cap;
  grid.set_span_sink(&cap.sink);
  const auto r = grid.run();
  const std::string trace = cap.str();
  ASSERT_NE(grid.tracer(), nullptr);
  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(grid.tracer()->open_spans(), 0u);  // every span closed by run()
  EXPECT_EQ(grid.tracer()->live_spans(), 0u);  // every chain drained by run()

  const auto fails = [&trace](const std::string& cause) {
    return count_lines(trace,
                       {"\"status\":\"fail\"", "\"cause\":\"" + cause + "\""},
                       "\"phase\":\"recovery\"");
  };
  EXPECT_EQ(fails("discovery"), r.failures_discovery);
  EXPECT_EQ(fails("composition"), r.failures_composition);
  EXPECT_EQ(fails("selection"), r.failures_selection);
  EXPECT_EQ(fails("admission"), r.failures_admission);
  EXPECT_EQ(fails("departure"), r.failures_departure);
  // Successful requests close their running span "ok" (completion or
  // horizon).
  EXPECT_EQ(count_lines(trace, {"\"phase\":\"running\"", "\"status\":\"ok\""}),
            r.successes);
  // Exercise enough of the space for the identity to mean something.
  EXPECT_GT(r.failures_departure, 0u);
}

// The same identity under aggressive sampling: failure counters and span
// tallies are exact whatever the stream keeps.
TEST(GridTracing, FailureCountersExactUnderSampling) {
  const GridRun full = run_churn(churn_config());
  auto cfg = churn_config();
  cfg.trace_sample = 7;
  const GridRun sampled = run_churn(cfg);

  EXPECT_EQ(sampled.result.requests, full.result.requests);
  EXPECT_EQ(sampled.result.successes, full.result.successes);
  EXPECT_EQ(sampled.result.failures_discovery, full.result.failures_discovery);
  EXPECT_EQ(sampled.result.failures_admission, full.result.failures_admission);
  EXPECT_EQ(sampled.result.failures_departure, full.result.failures_departure);
  // The stream thinned but stayed a subset of the unsampled stream.
  EXPECT_GT(sampled.emitted, 0u);
  EXPECT_LT(sampled.emitted, full.emitted);
  std::string_view rest = sampled.trace;
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    ASSERT_NE(nl, std::string_view::npos);
    const std::string line(rest.substr(0, nl + 1));
    EXPECT_NE(full.trace.find(line), std::string::npos) << line;
    rest.remove_prefix(nl + 1);
  }
}

TEST(GridTracing, RateOneTraceIsByteIdenticalToUnsampled) {
  auto zero = churn_config();
  zero.trace_sample = 0;
  auto one = churn_config();
  one.trace_sample = 1;
  EXPECT_EQ(run_churn(zero).trace, run_churn(one).trace);
}

TEST(GridTracing, ResidentSpansBoundedByActiveRequestsNotRunLength) {
  // The bounded-memory claim, observable: total spans (== emitted at rate 1)
  // grow with the horizon, but the high-water mark of *resident* spans is
  // O(active requests) and plateaus once the session population reaches
  // steady state. 4x the horizon must not come close to 2x the peak.
  const GridRun short_run = run_churn(churn_config());
  auto long_cfg = churn_config();
  long_cfg.horizon = sim::SimTime::minutes(80);
  const GridRun long_run = run_churn(long_cfg);
  EXPECT_GT(short_run.emitted, 0u);
  EXPECT_GT(long_run.emitted, 3 * short_run.emitted);
  EXPECT_LT(long_run.peak_live, 2 * short_run.peak_live);
}

TEST(GridTracing, FlightRecorderRetainsBoundedFailureChains) {
  auto cfg = churn_config();
  cfg.trace_sample = 100000;  // stream almost nothing
  cfg.flight_recorder = 4;
  harness::GridSimulation grid(cfg);
  SpanCapture cap;
  grid.set_span_sink(&cap.sink);
  const auto r = grid.run();
  ASSERT_NE(grid.flight(), nullptr);
  const FlightRecorder& fr = *grid.flight();
  // Plenty of failures happened; the recorder saw them all but holds at
  // most capacity chains per cause.
  EXPECT_GT(r.failures_departure + r.failures_admission, 4u);
  EXPECT_GT(fr.recorded(), 0u);
  for (const auto cause : fr.causes()) {
    EXPECT_LE(fr.chains(cause).size(), 4u) << cause;
    for (const auto* chain : fr.chains(cause)) {
      EXPECT_FALSE(chain->spans.empty());
    }
  }
  EXPECT_NE(fr.jsonl().find("\"cause\":\"departure\""), std::string::npos);
}

TEST(GridTracing, LiveSeriesRecordsWindowedRuntimeState) {
  auto cfg = churn_config();
  cfg.obs_window = sim::SimTime::minutes(2);
  harness::GridSimulation grid(cfg);
  SeriesCapture rows;
  grid.set_series_sink(&rows.sink);
  const auto r = grid.run();
  const std::string csv = rows.str();
  EXPECT_EQ(csv.rfind("series,time_ms,value\n", 0), 0u);
  for (const std::string name : {"psi.window", "sim.queue_depth",
                                 "session.active", "obs.live_spans"}) {
    EXPECT_GT(count_lines(csv, {name + ","}), 3u) << name;
  }
  // 20-minute horizon, 2-minute window: polled series tick ~10 times.
  const std::uint64_t ticks = count_lines(csv, {"sim.queue_depth,"});
  EXPECT_LE(ticks, 11u);
  // Without the flag there is no recorder and no window event at all: the
  // writer gets nothing, and the run executes one event per tick fewer.
  harness::GridSimulation off(churn_config());
  SeriesCapture none;
  off.set_series_sink(&none.sink);
  const auto r_off = off.run();
  EXPECT_EQ(none.str(), "series,time_ms,value\n");
  EXPECT_EQ(r.counter("events.executed"),
            r_off.counter("events.executed") + ticks);
}

// A live-series hit rate reads its counters through
// MetricsRegistry::counter(), which creates them, and in dht mode nothing
// else registers cache.discovery.*: a windowed run exports both counters
// (at 0) with no series writer attached, and a run without the window
// exports neither.
TEST(GridTracing, WindowedDhtRunExportsDiscoveryCacheCounters) {
  auto cfg = churn_config();
  cfg.peers = 200;
  cfg.requests.rate_per_min = 40;
  cfg.discovery = harness::DiscoveryKind::kDht;
  cfg.discovery_cache_ttl = sim::SimTime::minutes(60);
  cfg.replication.enabled = true;
  cfg.obs_window = sim::SimTime::minutes(1);
  harness::GridSimulation windowed(cfg);
  (void)windowed.run();
  const auto& counters = windowed.metrics()->counters();
  for (const std::string_view name :
       {"cache.discovery.hits", "cache.discovery.misses"}) {
    const auto it = counters.find(name);
    ASSERT_NE(it, counters.end()) << name;
    EXPECT_EQ(it->second.value, 0u) << name;
  }
  cfg.obs_window = sim::SimTime::zero();
  harness::GridSimulation plain(cfg);
  (void)plain.run();
  const std::string csv = metrics_csv(*plain.metrics());
  EXPECT_EQ(csv.find("cache.discovery."), std::string::npos);
}

TEST(GridTracing, MetricsRegistryMatchesResult) {
  harness::GridSimulation grid(churn_config());
  const auto r = grid.run();
  ASSERT_NE(grid.metrics(), nullptr);
  MetricsRegistry& m = *grid.metrics();
  EXPECT_EQ(m.counter("request.total").value, r.requests);
  EXPECT_EQ(m.counter("churn.departures").value, r.churn_departures);
  EXPECT_EQ(m.counter("churn.arrivals").value, r.churn_arrivals);
  EXPECT_EQ(m.counter("session.recovered").value,
            r.counter("sessions.recovered"));
  EXPECT_GT(m.histogram("aggregate.lookup_hops").count(), 0u);
  EXPECT_GT(m.histogram("probe.rtt_ms").count(), 0u);
  EXPECT_GT(m.gauge("sim.event_queue_high_water").value, 0.0);
  // The obs meta-instruments report the pipeline's own footprint.
  EXPECT_GT(m.gauge("obs.spans_live_high_water").value, 0.0);
  EXPECT_GT(m.counter("obs.spans_emitted").value, 0u);
  EXPECT_EQ(m.counter("obs.requests_sampled").value,
            m.counter("obs.requests_finished").value);  // rate 1: all kept
}

// obs.spans_emitted counts the sampled spans whether or not a writer takes
// them, so attaching one moves no exported number.
TEST(GridTracing, SpanCountIsTheSameWithoutAWriter) {
  auto cfg = churn_config();
  cfg.trace_sample = 3;
  harness::GridSimulation bare(cfg);
  (void)bare.run();
  harness::GridSimulation written(cfg);
  SpanCapture cap;
  written.set_span_sink(&cap.sink);
  (void)written.run();
  const std::string trace = cap.str();
  const auto lines =
      static_cast<std::uint64_t>(std::count(trace.begin(), trace.end(), '\n'));
  EXPECT_GT(lines, 0u);
  EXPECT_EQ(written.metrics()->counter("obs.spans_emitted").value, lines);
  EXPECT_EQ(metrics_csv(*bare.metrics()), metrics_csv(*written.metrics()));
}

// run() writes every count both surfaces carry once, from the subsystem
// that owns it, so the result and the registry agree on each: under the
// same name (a registry gauge for a level), under the registry's own name
// for sessions and events, and as request.fail.* for the set-up failures.
TEST(GridTracing, CountsAgreeAcrossResultAndRegistry) {
  auto cfg = churn_config();
  cfg.seed = 3;
  cfg.peers = 50;
  cfg.requests.rate_per_min = 80;
  cfg.horizon = sim::SimTime::minutes(3);
  cfg.faults.set_all_loss(0.05);
  cfg.discovery = harness::DiscoveryKind::kDht;
  cfg.replication.enabled = true;
  harness::GridSimulation grid(cfg);
  const auto r = grid.run();
  ASSERT_NE(grid.metrics(), nullptr);
  const MetricsRegistry& m = *grid.metrics();
  const auto counter = [&m](const std::string& name) -> std::uint64_t {
    const auto it = m.counters().find(name);
    return it == m.counters().end() ? 0 : it->second.value;
  };

  std::size_t shared = 0;
  for (const auto& [name, value] : r.counters) {
    if (const auto c = m.counters().find(name); c != m.counters().end()) {
      EXPECT_EQ(c->second.value, value) << name;
      ++shared;
    } else if (const auto g = m.gauges().find(name); g != m.gauges().end()) {
      EXPECT_EQ(g->second.value, static_cast<double>(value)) << name;
      ++shared;
    }
  }
  // fault.{messages,dropped}, probe.retries, lookup.{retries,rerouted},
  // session.recovery_retries, 12 index.*, replica.{created,retired,
  // rejected_no_host}, net.active_pairs, and the replica.active gauge.
  EXPECT_EQ(shared, 23u);

  for (const std::string s :
       {"admitted", "completed", "aborted", "recovered", "rejected"}) {
    EXPECT_EQ(counter("session." + s), r.counter("sessions." + s)) << s;
  }
  EXPECT_EQ(counter("sim.events_executed"), r.counter("events.executed"));
  EXPECT_EQ(counter("request.fail.discovery"), r.failures_discovery);
  EXPECT_EQ(counter("request.fail.composition"), r.failures_composition);
  EXPECT_EQ(counter("request.fail.selection"), r.failures_selection);
  EXPECT_EQ(counter("request.fail.admission"), r.failures_admission);
  EXPECT_EQ(counter("request.fail.departure"), 0u);
  EXPECT_EQ(counter("request.admitted"), r.counter("sessions.admitted"));
  EXPECT_EQ(counter("request.total"), r.requests);
  // The protocol's one notification count, resends under loss included.
  EXPECT_EQ(counter("probe.notifications"), r.notification_messages);

  // The run reaches the optional subsystems whose counts it compares.
  EXPECT_GT(r.counter("index.scans"), 0u);
  EXPECT_GT(r.counter("replica.created"), 0u);
  EXPECT_GT(r.counter("fault.dropped"), 0u);
  EXPECT_GT(r.failures_discovery, 0u);
  EXPECT_GT(r.failures_admission, 0u);
}

TEST(GridTracing, DisabledByDefaultAndResultUnchanged) {
  auto cfg = churn_config();
  cfg.observe = false;
  harness::GridSimulation off(cfg);
  EXPECT_EQ(off.tracer(), nullptr);
  EXPECT_EQ(off.metrics(), nullptr);
  const auto r_off = off.run();

  harness::GridSimulation on(churn_config());
  const auto r_on = on.run();
  // Observation must not perturb the simulation.
  EXPECT_EQ(r_off.requests, r_on.requests);
  EXPECT_EQ(r_off.successes, r_on.successes);
  EXPECT_EQ(r_off.failures_departure, r_on.failures_departure);
}

// The metrics sidecar must be byte-identical regardless of how many
// ExperimentRunner threads computed it — with the whole pipeline on:
// sampling, flight recorder and live series.
TEST(GridTracing, ExportsDeterministicAcrossThreadCounts) {
  auto base = churn_config();
  base.horizon = sim::SimTime::minutes(10);
  base.trace_sample = 3;
  base.flight_recorder = 4;
  base.obs_window = sim::SimTime::minutes(2);
  std::vector<harness::ExperimentCell> cells;
  for (auto& cell : harness::algorithm_comparison(base)) {
    cells.push_back(std::move(cell));
  }
  const auto one = harness::ExperimentRunner(1).run(cells);
  const auto many = harness::ExperimentRunner(8).run(cells);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_FALSE(one[i].metrics_json.empty());
    EXPECT_EQ(one[i].metrics_json, many[i].metrics_json) << one[i].label;
  }
}

}  // namespace
}  // namespace qsa::obs
