// Streaming, bounded-memory tracer.
//
// The previous tracer buffered every span of every request for the whole
// run, so observability memory grew O(total requests) and large runs OOMed
// in the measurement layer before the simulator broke a sweat. This one
// keeps only the spans of *in-flight* requests: span nodes live in a slab
// with a free list (the EventQueue idiom), chained per request, and when the
// harness declares a request finished the whole chain is routed and its
// nodes recycled. Resident memory is O(active requests); a peak-live
// counter (`peak_live_spans`) makes the bound observable.
//
// Routing on finish:
//   * failed or recovered requests -> the FlightRecorder (complete chains,
//     fixed-capacity ring per cause) when one is configured;
//   * head-sampled requests -> the JsonlSpanSink, using
//     derive_seed(seed, "obs", request_id) so the keep/drop decision is a
//     pure function of (seed, request id) — bit-identical across runs and
//     ExperimentRunner thread counts.
// The tracer keeps no tallies of its own: the trace itself is the record,
// and GridResult and the request.* counts are exact at any sampling rate.
//
// Cost model: the Tracer is only ever reached through a nullable pointer;
// with no tracer attached instrumentation is one pointer test. Attribute
// keys and cause strings are string_views into static storage — the tracer
// never copies or owns name strings. Steady state allocates nothing: nodes,
// chains and the flight scratch buffer are all recycled.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "qsa/obs/flight_recorder.hpp"
#include "qsa/obs/trace_span.hpp"
#include "qsa/sim/time.hpp"
#include "qsa/util/dense_map.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/util/small_vec.hpp"

namespace qsa::obs {

class JsonlSpanSink;

namespace detail {

inline constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};

/// A slab node holding one live span (namespace-level so DenseMap can see a
/// complete type while Tracer is still being defined).
struct TraceNode {
  Span span;
  std::uint32_t next = kNilSlot;  ///< next span of the same request
  std::uint32_t gen = 0;          ///< bumped on recycle; half of the SpanId
};

/// Per-request chain of live spans plus the request's running verdict.
struct TraceChain {
  std::uint32_t head = kNilSlot;
  std::uint32_t tail = kNilSlot;
  util::SmallVec<std::uint32_t, 4> open;  ///< open-span stack (slots)
  std::string_view fail_cause;  ///< terminal failure cause, if any
  bool recovered = false;       ///< a recovery span succeeded
};

}  // namespace detail

struct TraceConfig {
  std::uint64_t seed = 0;
  /// Keep 1-in-K finished request traces on the sink; 0 or 1 = keep all.
  std::uint32_t sample_every = 1;
  /// Failed/recovered chains retained per cause; 0 = no flight recorder.
  std::uint32_t flight_capacity = 0;
};

class Tracer {
 public:
  /// Generation-tagged handle: (generation << 32) | slab slot. A handle to
  /// a recycled node fails its generation check, so end()/annotate() after
  /// the owning request finished are safe no-ops.
  using SpanId = std::uint64_t;
  static constexpr SpanId kNoSpan = ~SpanId{0};

  Tracer() : Tracer(TraceConfig{}) {}
  explicit Tracer(const TraceConfig& config);

  /// Attaches the streaming span destination (not owned). Without one,
  /// only the flight recorder sees finished chains.
  void set_sink(JsonlSpanSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] JsonlSpanSink* sink() const noexcept { return sink_; }

  /// The flight recorder, or nullptr when flight_capacity was 0.
  [[nodiscard]] FlightRecorder* flight() noexcept { return flight_.get(); }
  [[nodiscard]] const FlightRecorder* flight() const noexcept {
    return flight_.get();
  }

  /// Head-based sampling decision for `request` — a pure function of
  /// (seed, request), never of execution order.
  [[nodiscard]] bool sampled(std::uint64_t request) const noexcept {
    return config_.sample_every <= 1 ||
           util::derive_seed(config_.seed, "obs", request) %
                   config_.sample_every ==
               0;
  }

  /// Opens a span for `request` at sim time `now`.
  SpanId begin(std::uint64_t request, Phase phase, sim::SimTime now);

  /// Attaches a numeric annotation to an open span. `key` must outlive the
  /// tracer (string literal).
  void annotate(SpanId span, const char* key, double value);

  /// Closes a span with an outcome. `cause` must point at static storage
  /// (e.g. core::to_string(FailureCause)).
  void end(SpanId span, sim::SimTime now, SpanStatus status,
           std::string_view cause = {});

  /// Convenience: opens and immediately closes a span (setup phases execute
  /// within one simulator event, so begin == end in sim time).
  SpanId instant(std::uint64_t request, Phase phase, sim::SimTime now,
                 SpanStatus status, std::string_view cause = {});

  /// Closes every still-open span of `request`, newest first (nested spans
  /// unwind inside-out). Used at the simulation horizon and for mid-phase
  /// aborts.
  void end_open(std::uint64_t request, sim::SimTime now, SpanStatus status,
                std::string_view cause = {});

  /// Declares `request` complete: routes its chain (flight recorder for
  /// failed/recovered requests, sink when head-sampled) and recycles its
  /// span nodes. Spans still open are emitted as-is; close them first via
  /// end_open(). Safe to call for requests that never traced anything.
  void finish(std::uint64_t request);

  /// Finishes every request with live spans, in ascending request-id order
  /// (deterministic drain at end of run).
  void finish_all();

  /// Number of open spans (diagnostic; 0 after a completed run).
  [[nodiscard]] std::size_t open_spans() const noexcept;

  /// Spans currently resident (all chains not yet finished).
  [[nodiscard]] std::size_t live_spans() const noexcept { return live_; }
  /// High-water mark of live_spans() — the bounded-memory witness.
  [[nodiscard]] std::size_t peak_live_spans() const noexcept { return peak_; }
  /// Spans of the sampled requests finished so far: what the sink received,
  /// or would have received when none is attached.
  [[nodiscard]] std::uint64_t emitted_spans() const noexcept {
    return emitted_;
  }
  /// Finished requests that passed the sampling predicate.
  [[nodiscard]] std::uint64_t sampled_requests() const noexcept {
    return sampled_requests_;
  }
  /// Requests finished (with at least one span) so far.
  [[nodiscard]] std::uint64_t finished_requests() const noexcept {
    return finished_requests_;
  }

 private:
  static constexpr std::uint32_t kNil = detail::kNilSlot;
  using Node = detail::TraceNode;
  using Chain = detail::TraceChain;

  [[nodiscard]] Span* resolve(SpanId span) noexcept;

  std::uint32_t alloc_node();
  void release_chain(Chain& chain);

  TraceConfig config_;
  JsonlSpanSink* sink_ = nullptr;
  std::unique_ptr<FlightRecorder> flight_;

  std::vector<Node> slab_;
  std::vector<std::uint32_t> free_;
  util::DenseMap<std::uint64_t, Chain> chains_;
  std::vector<Span> flight_scratch_;  ///< reused chain copy for the recorder

  std::size_t live_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t sampled_requests_ = 0;
  std::uint64_t finished_requests_ = 0;
};

}  // namespace qsa::obs
