// Span data model shared by the tracer, the sinks, the flight recorder and
// the exporters. Every request a grid simulation handles is decomposed into
// the paper's setup phases (discovery -> composition -> selection ->
// admission) followed by the session lifetime (running, with optional
// recovery spans, then teardown). Each span records begin/end in *sim time*
// plus an outcome and optional numeric annotations, so a churn run can be
// replayed as a timeline and every GridResult failure counter is
// reconstructible from the span stream.
#pragma once

#include <cstdint>
#include <string_view>

#include "qsa/sim/time.hpp"
#include "qsa/util/small_vec.hpp"

namespace qsa::obs {

/// Request lifecycle phases, in causal order.
enum class Phase : std::uint8_t {
  kDiscovery,    ///< P2P lookup of candidate instances
  kComposition,  ///< QoS-consistent service path construction
  kSelection,    ///< hop-by-hop dynamic peer selection
  kAdmission,    ///< all-or-nothing resource reservation
  kRunning,      ///< admitted session lifetime
  kRecovery,     ///< mid-session departure repair attempt
  kTeardown,     ///< reservation release at normal completion
};

[[nodiscard]] std::string_view to_string(Phase phase);

enum class SpanStatus : std::uint8_t {
  kOpen,   ///< begun, not yet ended
  kOk,     ///< phase succeeded
  kFail,   ///< phase failed — the request's terminal failure
  kRetry,  ///< phase failed but the request retried (not terminal)
  kAbort,  ///< closed without a verdict (e.g. horizon reached mid-phase)
};

[[nodiscard]] std::string_view to_string(SpanStatus status);

/// A numeric annotation. Keys must point at static storage.
struct SpanAttr {
  const char* key = nullptr;
  double value = 0;
};

struct Span {
  std::uint64_t request = 0;  ///< 1-based request id within the run
  Phase phase = Phase::kDiscovery;
  SpanStatus status = SpanStatus::kOpen;
  std::string_view cause;  ///< failure cause name; empty when none
  sim::SimTime begin;
  sim::SimTime end;
  util::SmallVec<SpanAttr, 6> attrs;
};

}  // namespace qsa::obs
