// Deterministic random number generation for the simulator.
//
// Requirements that std::mt19937 + std::uniform_*_distribution do not meet:
//  * cross-platform bit-for-bit reproducibility (libstdc++ distributions are
//    implementation-defined);
//  * cheap hierarchical seeding: every entity (peer, service instance,
//    request) derives its own independent stream from
//    (global seed, kind, id, purpose), so simulation results do not depend on
//    the order in which entities happen to draw.
//
// The generator is xoshiro256**, seeded via SplitMix64 as its authors
// recommend; `mix64` is the SplitMix64 finalizer used as a hash.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace qsa::util {

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Combines hash values (order-sensitive).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2)));
}

/// FNV-1a over a string, for turning purpose tags into seed material.
[[nodiscard]] constexpr std::uint64_t hash_str(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform index in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n) noexcept;

  /// True with probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given mean (> 0). Used for Poisson inter-arrivals.
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Picks one element of a non-empty span uniformly.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) noexcept {
    return items[index(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Builds a seed for an entity-scoped stream: the same
/// (root, kind, id, purpose) always yields the same stream, independent of
/// draw order elsewhere in the simulation.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t root,
                                                  std::string_view kind,
                                                  std::uint64_t id,
                                                  std::uint64_t purpose = 0) noexcept {
  return mix64(hash_combine(hash_combine(root, hash_str(kind)),
                            hash_combine(id, purpose)));
}

}  // namespace qsa::util
