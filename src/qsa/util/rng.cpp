#include "qsa/util/rng.hpp"

#include <cmath>

#include "qsa/util/expects.hpp"

namespace qsa::util {

void Rng::reseed(std::uint64_t seed) noexcept {
  // SplitMix64 expansion, as recommended by the xoshiro authors.
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x += 0x9E3779B97F4A7C15ull;
    s = mix64(x);
  }
  // xoshiro must not start from the all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  QSA_EXPECTS(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>(index(span));
}

std::size_t Rng::index(std::size_t n) noexcept {
  QSA_EXPECTS(n > 0);
  // Lemire's nearly-divisionless bounded draw with rejection, keeping the
  // result exactly uniform (important for reproducible statistics).
  const std::uint64_t bound = n;
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::size_t>(m >> 64);
}

double Rng::exponential(double mean) noexcept {
  QSA_EXPECTS(mean > 0);
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

}  // namespace qsa::util
