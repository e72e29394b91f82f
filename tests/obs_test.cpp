#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "qsa/harness/experiment.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/obs/export.hpp"
#include "qsa/obs/flight_recorder.hpp"
#include "qsa/obs/histogram.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/obs/series.hpp"
#include "qsa/obs/sink.hpp"
#include "qsa/obs/trace.hpp"

namespace qsa::obs {
namespace {

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
  StringSpanSink sink;
  t.set_sink(&sink);
  const auto id = t.begin(1, Phase::kRunning, sim::SimTime::millis(10));
  t.annotate(id, "hosts", 3);
  EXPECT_EQ(t.open_spans(), 1u);
  EXPECT_EQ(t.live_spans(), 1u);
  t.end(id, sim::SimTime::millis(500), SpanStatus::kOk);
  EXPECT_EQ(t.open_spans(), 0u);
  // Closed but not yet emitted: spans stream when their request finishes.
  EXPECT_EQ(sink.spans(), 0u);
  t.finish(1);
  EXPECT_EQ(sink.spans(), 1u);
  EXPECT_EQ(t.live_spans(), 0u);  // nodes recycled
  EXPECT_EQ(t.finished_requests(), 1u);
  EXPECT_EQ(sink.str(),
            "{\"attrs\":{\"hosts\":3},\"begin_ms\":10,\"end_ms\":500,"
            "\"phase\":\"running\",\"request\":1,\"status\":\"ok\"}\n");
}

TEST(Tracer, EndIsIdempotent) {
  Tracer t;
  StringSpanSink sink;
  t.set_sink(&sink);
  const auto id = t.begin(1, Phase::kAdmission, sim::SimTime::millis(0));
  t.end(id, sim::SimTime::millis(1), SpanStatus::kFail, "admission");
  t.end(id, sim::SimTime::millis(9), SpanStatus::kOk);  // ignored
  EXPECT_EQ(t.count(Phase::kAdmission, SpanStatus::kFail), 1u);
  EXPECT_EQ(t.count(Phase::kAdmission, SpanStatus::kOk), 0u);
  t.finish(1);
  EXPECT_NE(sink.str().find("\"end_ms\":1,"), std::string::npos);
  EXPECT_NE(sink.str().find("\"status\":\"fail\""), std::string::npos);
}

TEST(Tracer, StaleHandleAfterFinishIsANoOp) {
  Tracer t;
  const auto id = t.begin(1, Phase::kRunning, sim::SimTime::millis(0));
  t.end(id, sim::SimTime::millis(5), SpanStatus::kOk);
  t.finish(1);
  // The slot is recycled and its generation bumped: a retained handle must
  // not corrupt whatever lives there next.
  const auto id2 = t.begin(2, Phase::kRunning, sim::SimTime::millis(10));
  t.end(id, sim::SimTime::millis(99), SpanStatus::kFail, "stale");
  t.annotate(id, "stale", 1.0);
  EXPECT_EQ(t.failures("stale"), 0u);
  EXPECT_EQ(t.open_spans(), 1u);  // request 2's span untouched
  t.end(id2, sim::SimTime::millis(11), SpanStatus::kOk);
  t.finish(2);
  EXPECT_EQ(t.count(Phase::kRunning, SpanStatus::kOk), 2u);
  EXPECT_EQ(t.count(Phase::kRunning, SpanStatus::kFail), 0u);
}

TEST(Tracer, EndOpenUnwindsAndEmitsInBeginOrder) {
  Tracer t;
  StringSpanSink sink;
  t.set_sink(&sink);
  t.begin(7, Phase::kRunning, sim::SimTime::millis(0));
  t.begin(7, Phase::kRecovery, sim::SimTime::millis(5));
  t.end_open(7, sim::SimTime::millis(9), SpanStatus::kAbort, "horizon");
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_EQ(t.count(Phase::kRunning, SpanStatus::kAbort), 1u);
  EXPECT_EQ(t.count(Phase::kRecovery, SpanStatus::kAbort), 1u);
  t.finish(7);
  // Emission preserves begin order even though unwinding closed the
  // recovery span first.
  const std::string& out = sink.str();
  const auto run_pos = out.find("\"phase\":\"running\"");
  const auto rec_pos = out.find("\"phase\":\"recovery\"");
  ASSERT_NE(run_pos, std::string::npos);
  ASSERT_NE(rec_pos, std::string::npos);
  EXPECT_LT(run_pos, rec_pos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Tracer, FailuresExcludeRecoverySpans) {
  Tracer t;
  // A failed repair attempt inside a session that then fails: one recovery
  // kFail span plus the terminal running kFail span, same cause.
  t.instant(3, Phase::kRecovery, sim::SimTime::millis(50), SpanStatus::kFail,
            "departure");
  const auto run = t.begin(3, Phase::kRunning, sim::SimTime::millis(0));
  t.end(run, sim::SimTime::millis(60), SpanStatus::kFail, "departure");
  EXPECT_EQ(t.failures("departure"), 1u);  // the request failed once
  EXPECT_EQ(t.count(Phase::kRecovery, SpanStatus::kFail), 1u);
}

TEST(Tracer, RetryIsNotAFailure) {
  Tracer t;
  t.instant(4, Phase::kAdmission, sim::SimTime::millis(1), SpanStatus::kRetry,
            "admission");
  t.instant(4, Phase::kAdmission, sim::SimTime::millis(2), SpanStatus::kFail,
            "admission");
  EXPECT_EQ(t.failures("admission"), 1u);
  EXPECT_EQ(t.count(Phase::kAdmission, SpanStatus::kRetry), 1u);
}

TEST(Tracer, MemoryIsBoundedByInFlightRequests) {
  Tracer t;
  StringSpanSink sink;
  t.set_sink(&sink);
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
  EXPECT_EQ(sink.spans(), 1000u);
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
  StringSpanSink full_sink;
  full.set_sink(&full_sink);
  feed(full);

  TraceConfig sampled_cfg = full_cfg;
  sampled_cfg.sample_every = 4;
  Tracer sampled(sampled_cfg);
  StringSpanSink sampled_sink;
  sampled.set_sink(&sampled_sink);
  feed(sampled);

  // Aggregate accounting is exact under any rate...
  EXPECT_EQ(sampled.failures("departure"), full.failures("departure"));
  EXPECT_EQ(sampled.count(Phase::kRunning, SpanStatus::kOk),
            full.count(Phase::kRunning, SpanStatus::kOk));
  EXPECT_EQ(sampled.finished_requests(), full.finished_requests());
  // ...while the stream itself thins to the sampled subset.
  EXPECT_LT(sampled.emitted_spans(), full.emitted_spans());
  EXPECT_GT(sampled.emitted_spans(), 0u);
  EXPECT_EQ(sampled.sampled_requests(), sampled.emitted_spans());
  std::string_view rest = sampled_sink.str();
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    ASSERT_NE(nl, std::string_view::npos);
    const std::string line(rest.substr(0, nl + 1));
    EXPECT_NE(full_sink.str().find(line), std::string::npos) << line;
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
  StringSpanSink sink;
  t.set_sink(&sink);

  // Five failing requests, chosen unsampled so the stream stays silent.
  std::uint64_t fed = 0;
  for (std::uint64_t r = 0; fed < 5; ++r) {
    if (t.sampled(r)) continue;
    t.instant(r, Phase::kAdmission, sim::SimTime::millis(r), SpanStatus::kFail,
              "admission");
    t.finish(r);
    ++fed;
  }
  EXPECT_EQ(sink.spans(), 0u);
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

// ------------------------------------------------------------ LiveSeries

TEST(LiveSeries, ProbesPollInRegistrationOrderAndStreamRows) {
  LiveSeries ls;
  StringMetricSink sink;
  ls.set_sink(&sink);
  double x = 1.0;
  ls.track("a", [&x] { return x; });
  ls.track("b", [&x] { return x * 2; });
  ls.sample(sim::SimTime::millis(100));
  x = 5.0;
  ls.push("manual", sim::SimTime::millis(150), 42.0);
  ls.sample(sim::SimTime::millis(200));

  EXPECT_EQ(ls.series_count(), 3u);
  EXPECT_EQ(ls.samples_recorded(), 5u);
  ASSERT_NE(ls.series("a"), nullptr);
  EXPECT_EQ(ls.series("a")->samples().size(), 2u);
  EXPECT_EQ(ls.series("a")->samples()[1].value, 5.0);
  ASSERT_NE(ls.series("manual"), nullptr);
  EXPECT_EQ(ls.series("manual")->samples()[0].value, 42.0);
  EXPECT_EQ(ls.series("missing"), nullptr);

  const std::string expected =
      "series,time_ms,value\n"
      "a,100,1\n"
      "b,100,2\n"
      "manual,150,42\n"
      "a,200,5\n"
      "b,200,10\n";
  // The streamed rows and the replayed csv() are the same bytes.
  EXPECT_EQ(sink.str(), expected);
  EXPECT_EQ(ls.csv(), expected);
}

// ------------------------------------------------------------ Exporters

TEST(Export, SpanJsonGolden) {
  Tracer t;
  StringSpanSink sink;
  t.set_sink(&sink);
  const auto id = t.begin(12, Phase::kDiscovery, sim::SimTime::millis(100));
  // Annotated out of order: keys must come out sorted.
  t.annotate(id, "latency_ms", 42.5);
  t.annotate(id, "hops", 6);
  t.end(id, sim::SimTime::millis(100), SpanStatus::kFail, "discovery");
  t.finish(12);
  EXPECT_EQ(sink.str(),
            "{\"attrs\":{\"hops\":6,\"latency_ms\":42.5},"
            "\"begin_ms\":100,\"cause\":\"discovery\",\"end_ms\":100,"
            "\"phase\":\"discovery\",\"request\":12,\"status\":\"fail\"}\n");
}

TEST(Export, TraceJsonlOneLinePerSpan) {
  Tracer t;
  StringSpanSink sink;
  t.set_sink(&sink);
  t.instant(1, Phase::kTeardown, sim::SimTime::millis(5), SpanStatus::kOk);
  t.instant(2, Phase::kTeardown, sim::SimTime::millis(6), SpanStatus::kOk);
  t.finish_all();
  EXPECT_EQ(std::count(sink.str().begin(), sink.str().end(), '\n'), 2);
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
  StringSpanSink sink;
  t.set_sink(&sink);
  t.instant(1, Phase::kAdmission, sim::SimTime::millis(0), SpanStatus::kFail,
            "bad\"cause\nwith\tcontrol");
  t.finish(1);
  EXPECT_NE(sink.str().find("\"cause\":\"bad\\\"cause\\nwith\\tcontrol\""),
            std::string::npos);
  // Still exactly one line: the newline inside the cause was escaped.
  EXPECT_EQ(std::count(sink.str().begin(), sink.str().end(), '\n'), 1);
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
  c.sample_period = sim::SimTime::minutes(2);
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
  StringSpanSink sink;
  grid.set_span_sink(&sink);
  GridRun out;
  out.result = grid.run();
  out.trace = sink.str();
  if (grid.tracer() != nullptr) {
    out.emitted = grid.tracer()->emitted_spans();
    out.sampled = grid.tracer()->sampled_requests();
    out.peak_live = grid.tracer()->peak_live_spans();
  }
  return out;
}

// The acceptance identity: every GridResult failure counter must be
// reconstructible from the span stream — per cause, terminal kFail span
// count == the counter.
TEST(GridTracing, SpanFailuresMatchResultCounters) {
  harness::GridSimulation grid(churn_config());
  const auto r = grid.run();
  ASSERT_NE(grid.tracer(), nullptr);
  const Tracer& t = *grid.tracer();

  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(t.open_spans(), 0u);  // every span closed by run()
  EXPECT_EQ(t.live_spans(), 0u);  // every chain drained by run()
  EXPECT_EQ(t.failures("discovery"), r.failures_discovery);
  EXPECT_EQ(t.failures("composition"), r.failures_composition);
  EXPECT_EQ(t.failures("selection"), r.failures_selection);
  EXPECT_EQ(t.failures("admission"), r.failures_admission);
  EXPECT_EQ(t.failures("departure"), r.failures_departure);
  // Successful requests close their running span kOk (completion or
  // horizon).
  EXPECT_EQ(t.count(Phase::kRunning, SpanStatus::kOk), r.successes);
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
  StringSpanSink sink;
  grid.set_span_sink(&sink);
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
  StringMetricSink rows;
  grid.set_series_sink(&rows);
  grid.run();
  ASSERT_NE(grid.live_series(), nullptr);
  const LiveSeries& ls = *grid.live_series();
  for (const char* name : {"psi.window", "sim.queue_depth", "session.active",
                           "obs.live_spans"}) {
    ASSERT_NE(ls.series(name), nullptr) << name;
    EXPECT_GT(ls.series(name)->samples().size(), 3u) << name;
  }
  // 20-minute horizon, 2-minute window: polled series tick ~10 times.
  EXPECT_LE(ls.series("sim.queue_depth")->samples().size(), 11u);
  // The streamed rows match the replayed export.
  EXPECT_EQ(rows.str(), ls.csv());
  // Without the flag there is no recorder and no window event at all.
  harness::GridSimulation off(churn_config());
  EXPECT_EQ(off.live_series(), nullptr);
}

TEST(GridTracing, MetricsRegistryMatchesResult) {
  harness::GridSimulation grid(churn_config());
  StringSpanSink sink;  // spans_emitted only counts spans a sink received
  grid.set_span_sink(&sink);
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

// Exported artifacts must be byte-identical regardless of how many
// ExperimentRunner threads computed them — with the whole pipeline on:
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
    EXPECT_FALSE(one[i].trace_jsonl.empty());
    EXPECT_FALSE(one[i].series_csv.empty());
    EXPECT_FALSE(one[i].flight_jsonl.empty());
    EXPECT_EQ(one[i].metrics_json, many[i].metrics_json) << one[i].label;
    EXPECT_EQ(one[i].trace_jsonl, many[i].trace_jsonl) << one[i].label;
    EXPECT_EQ(one[i].series_csv, many[i].series_csv) << one[i].label;
    EXPECT_EQ(one[i].flight_jsonl, many[i].flight_jsonl) << one[i].label;
  }
}

}  // namespace
}  // namespace qsa::obs
