// Order-preserving key encoding for the attribute index (DESIGN.md §15).
//
// Each (attribute, service) pair owns one *arc* of the 64-bit overlay key
// space: a contiguous 2^54-key span whose base is seed-derived (so arcs
// spread uniformly over the ring and never collide in practice), divided
// into kBuckets equal strides. A registered value is quantized into a
// bucket by a monotone bucket function, so
//
//     value_a <= value_b  =>  bucket(value_a) <= bucket(value_b)
//
// and a range predicate "attribute >= x" becomes the contiguous bucket
// span [bucket(x), kBuckets-1] — adjacent buckets are adjacent keys, so a
// range scan routes once to the span's first owner (O(log N) hops) and
// then walks on-arc (an arc covers ~N/2^10 of the ring, so only a handful
// of owner transitions — the "span" term). Quantization makes the scan a
// conservative superset: everything in bucket(x) with value < x is a false
// positive the client filters exactly; nothing with value >= x is missed.
//
// Postings are (instance, provider) pairs packed into the overlay's 64-bit
// value type.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "qsa/net/peer.hpp"
#include "qsa/overlay/lookup.hpp"
#include "qsa/registry/service.hpp"
#include "qsa/sim/time.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::index {

/// The indexed QoS attributes: exactly the two predicates tier-1a discovery
/// pushes down. kUptime describes the *provider* (connected time at
/// publish); kLevel describes the *instance* (the guaranteed floor of its
/// Qout quality level) — the predicate the request's end-to-end requirement
/// puts on the sink hop. Host capacity is not indexed: it is an
/// availability question that probing answers from live state.
enum class Attribute : std::uint8_t { kUptime = 0, kLevel };

inline constexpr int kAttributeCount = 2;
inline constexpr int kBuckets = 64;

/// Arc width as a power of two: 2^54 keys per (attribute, service) arc,
/// i.e. 1/1024 of the key space — wide enough that bucket keys of one arc
/// land on a short contiguous run of nodes, narrow enough that thousands of
/// arcs spread without overlap mattering (keys only need distinctness, and
/// bucket keys of overlapping arcs still differ with overwhelming
/// probability).
inline constexpr int kArcBits = 54;
inline constexpr overlay::Key kBucketStride = overlay::Key{1}
                                              << (kArcBits - 6);  // 64 buckets

/// Base key of the (attribute, service) arc. The seed tags are fixed at 2
/// (uptime) and 3 (level), not the enum values: every key, and so every
/// owner, route and hop count of a dht run, derives from them.
[[nodiscard]] constexpr overlay::Key arc_base(std::uint64_t seed, Attribute a,
                                              registry::ServiceId service) noexcept {
  const std::uint64_t tag = static_cast<std::uint64_t>(a) + 2;
  return util::derive_seed(seed, "index-arc",
                           (tag << 32) | static_cast<std::uint64_t>(service));
}

/// The overlay key of one bucket: base + bucket * stride (mod 2^64). Within
/// an arc, consecutive buckets are consecutive keys.
[[nodiscard]] constexpr overlay::Key index_key(std::uint64_t seed, Attribute a,
                                               registry::ServiceId service,
                                               int bucket) noexcept {
  return arc_base(seed, a, service) +
         static_cast<overlay::Key>(bucket) * kBucketStride;
}

// --- monotone bucket functions, one per attribute ---

/// Uptime, log2-scale minute classes (class 6 ~ 1 hour, 13 ~ 1 week):
/// coarse at the long tail, fine where session durations live.
[[nodiscard]] inline int uptime_bucket(sim::SimTime uptime) noexcept {
  const double minutes = std::max(0.0, uptime.as_minutes());
  return std::clamp(static_cast<int>(std::log2(1.0 + minutes)), 0,
                    kBuckets - 1);
}

/// Quality-level floor in [0, 100]: linear buckets, 100/64 wide.
[[nodiscard]] inline int level_bucket(double level) noexcept {
  return std::clamp(static_cast<int>(level * (kBuckets / 100.0)), 0,
                    kBuckets - 1);
}

// --- postings ---

/// A posting indexes one (instance, provider) registration.
using Posting = std::uint64_t;

[[nodiscard]] constexpr Posting pack_posting(registry::InstanceId instance,
                                             net::PeerId provider) noexcept {
  return (static_cast<Posting>(instance) << 32) |
         static_cast<Posting>(provider);
}

[[nodiscard]] constexpr registry::InstanceId posting_instance(Posting p) noexcept {
  return static_cast<registry::InstanceId>(p >> 32);
}

[[nodiscard]] constexpr net::PeerId posting_provider(Posting p) noexcept {
  return static_cast<net::PeerId>(p & 0xffff'ffffULL);
}

}  // namespace qsa::index
