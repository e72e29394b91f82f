// Failure flight recorder: a fixed-capacity ring buffer of complete span
// chains, kept per failure cause, for the last K failed (or recovered)
// requests. Sampling may drop most success traces from the stream, but the
// forensic record of what went wrong — every span of the request that
// failed, in order — is always retained, bounded at
// O(causes * capacity * chain length).
//
// Chains are handed over by the Tracer when a request finishes; the recorder
// copy-assigns them into ring slots so steady-state recording reuses slot
// capacity instead of allocating.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qsa/obs/trace_span.hpp"

namespace qsa::obs {

class FlightRecorder {
 public:
  /// A retained request: its routing cause and full span chain in
  /// span-creation order. `cause` points at static storage (failure cause
  /// names / "recovered").
  struct Chain {
    std::uint64_t request = 0;
    std::string_view cause;
    std::vector<Span> spans;
  };

  /// `capacity` = chains retained per distinct cause (>= 1).
  explicit FlightRecorder(std::uint32_t capacity);

  /// Retains `spans` as the newest chain for `cause`, evicting the oldest
  /// chain of that cause once the ring is full.
  void record(std::uint64_t request, std::string_view cause,
              const std::vector<Span>& spans);

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  /// Total chains ever recorded (including evicted ones).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Chains currently retained across all causes.
  [[nodiscard]] std::size_t size() const noexcept;
  /// Chains currently retained for `cause`, oldest first.
  [[nodiscard]] std::vector<const Chain*> chains(std::string_view cause) const;
  /// Distinct causes seen so far, lexicographically sorted.
  [[nodiscard]] std::vector<std::string_view> causes() const;

  /// JSONL export: one `{"cause":...,"request":N,"spans":[...]}` object per
  /// retained chain — causes lexicographically, chains oldest first within a
  /// cause. Deterministic for a given run.
  [[nodiscard]] std::string jsonl() const;

 private:
  struct Ring {
    std::string_view cause;
    std::vector<Chain> slots;  ///< grows to `capacity_`, then recycles
    std::size_t next = 0;      ///< slot the next record lands in
    std::uint64_t total = 0;   ///< chains ever recorded for this cause
  };

  Ring& ring_for(std::string_view cause);

  std::uint32_t capacity_;
  std::uint64_t recorded_ = 0;
  /// Few distinct causes (static names); linear scan beats hashing here.
  std::vector<Ring> rings_;
};

}  // namespace qsa::obs
