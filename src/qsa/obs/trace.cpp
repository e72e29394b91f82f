#include "qsa/obs/trace.hpp"

#include <algorithm>

#include "qsa/obs/sink.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::obs {

std::string_view to_string(Phase phase) {
  switch (phase) {
    case Phase::kDiscovery:
      return "discovery";
    case Phase::kComposition:
      return "composition";
    case Phase::kSelection:
      return "selection";
    case Phase::kAdmission:
      return "admission";
    case Phase::kRunning:
      return "running";
    case Phase::kRecovery:
      return "recovery";
    case Phase::kTeardown:
      return "teardown";
  }
  return "?";
}

std::string_view to_string(SpanStatus status) {
  switch (status) {
    case SpanStatus::kOpen:
      return "open";
    case SpanStatus::kOk:
      return "ok";
    case SpanStatus::kFail:
      return "fail";
    case SpanStatus::kRetry:
      return "retry";
    case SpanStatus::kAbort:
      return "abort";
  }
  return "?";
}

Tracer::Tracer(const TraceConfig& config) : config_(config) {
  if (config.flight_capacity > 0) {
    flight_ = std::make_unique<FlightRecorder>(config.flight_capacity);
  }
}

Span* Tracer::resolve(SpanId span) noexcept {
  const auto slot = static_cast<std::uint32_t>(span & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(span >> 32);
  if (slot >= slab_.size() || slab_[slot].gen != gen) return nullptr;
  return &slab_[slot].span;
}

std::uint32_t Tracer::alloc_node() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slab_.size());
  slab_.emplace_back();
  return slot;
}

Tracer::SpanId Tracer::begin(std::uint64_t request, Phase phase,
                             sim::SimTime now) {
  const std::uint32_t slot = alloc_node();
  Node& node = slab_[slot];
  node.span = Span{};
  node.span.request = request;
  node.span.phase = phase;
  node.span.begin = node.span.end = now;
  node.next = kNil;

  Chain& chain = chains_[request];
  if (chain.tail == kNil) {
    chain.head = chain.tail = slot;
  } else {
    slab_[chain.tail].next = slot;
    chain.tail = slot;
  }
  chain.open.push_back(slot);

  ++live_;
  peak_ = std::max(peak_, live_);
  return (static_cast<SpanId>(node.gen) << 32) | slot;
}

void Tracer::annotate(SpanId span, const char* key, double value) {
  Span* s = resolve(span);
  if (s == nullptr) return;  // owning request already finished
  if (s->attrs.size() < s->attrs.capacity()) {
    s->attrs.push_back(SpanAttr{key, value});
  }
}

void Tracer::end(SpanId span, sim::SimTime now, SpanStatus status,
                 std::string_view cause) {
  QSA_EXPECTS(status != SpanStatus::kOpen);
  Span* s = resolve(span);
  if (s == nullptr) return;              // owning request already finished
  if (s->status != SpanStatus::kOpen) return;  // already closed
  s->end = now;
  s->status = status;
  s->cause = cause;

  auto it = chains_.find(s->request);
  QSA_EXPECTS(it != chains_.end());
  Chain& chain = it->second;
  const auto slot = static_cast<std::uint32_t>(span & 0xffffffffu);
  auto& stack = chain.open;
  for (std::size_t i = stack.size(); i-- > 0;) {
    if (stack[i] == slot) {
      // Preserve stack order below the removed entry.
      for (std::size_t j = i + 1; j < stack.size(); ++j) {
        stack[j - 1] = stack[j];
      }
      stack.pop_back();
      break;
    }
  }

  if (s->phase == Phase::kRecovery) {
    if (status == SpanStatus::kOk) chain.recovered = true;
    return;  // a failed repair attempt is not a request outcome
  }
  if (status == SpanStatus::kFail) chain.fail_cause = cause;
}

Tracer::SpanId Tracer::instant(std::uint64_t request, Phase phase,
                               sim::SimTime now, SpanStatus status,
                               std::string_view cause) {
  const SpanId id = begin(request, phase, now);
  end(id, now, status, cause);
  return id;
}

void Tracer::end_open(std::uint64_t request, sim::SimTime now,
                      SpanStatus status, std::string_view cause) {
  auto it = chains_.find(request);
  if (it == chains_.end()) return;
  // end() mutates the stack; drain from a copy, newest first.
  const auto stack = it->second.open;
  for (std::size_t i = stack.size(); i-- > 0;) {
    const std::uint32_t slot = stack[i];
    end((static_cast<SpanId>(slab_[slot].gen) << 32) | slot, now, status,
        cause);
  }
}

void Tracer::release_chain(Chain& chain) {
  for (std::uint32_t slot = chain.head; slot != kNil;) {
    Node& node = slab_[slot];
    const std::uint32_t next = node.next;
    ++node.gen;  // invalidate outstanding handles
    node.span = Span{};
    node.next = kNil;
    free_.push_back(slot);
    --live_;
    slot = next;
  }
}

void Tracer::finish(std::uint64_t request) {
  auto it = chains_.find(request);
  if (it == chains_.end()) return;
  Chain& chain = it->second;
  ++finished_requests_;

  if (flight_ && (!chain.fail_cause.empty() || chain.recovered)) {
    flight_scratch_.clear();
    for (std::uint32_t slot = chain.head; slot != kNil;
         slot = slab_[slot].next) {
      flight_scratch_.push_back(slab_[slot].span);
    }
    flight_->record(request,
                    chain.fail_cause.empty() ? std::string_view{"recovered"}
                                             : chain.fail_cause,
                    flight_scratch_);
  }

  if (sampled(request)) {
    ++sampled_requests_;
    for (std::uint32_t slot = chain.head; slot != kNil;
         slot = slab_[slot].next) {
      if (sink_ != nullptr) sink_->on_span(slab_[slot].span);
      ++emitted_;
    }
  }

  release_chain(chain);
  chains_.erase(request);
}

void Tracer::finish_all() {
  std::vector<std::uint64_t> requests;
  requests.reserve(chains_.size());
  for (const auto& [request, chain] : chains_) requests.push_back(request);
  std::sort(requests.begin(), requests.end());
  for (std::uint64_t request : requests) finish(request);
}

std::size_t Tracer::open_spans() const noexcept {
  std::size_t n = 0;
  for (const auto& [request, chain] : chains_) n += chain.open.size();
  return n;
}

}  // namespace qsa::obs
