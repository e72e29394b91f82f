// Shared plumbing for the evaluation driver (paper.cpp) and the perf
// benches: the common flags, the scaled paper configuration, and the
// standard experiment header block.
//
// Every bench accepts:
//   --scale=F     population scale factor (default 0.1; 1 = paper scale;
//                 also via env QSA_SCALE). Peer count, request rate and
//                 churn rate scale together, preserving the figures' shape.
//   --seed=N      root seed (default 42)
//   --threads=N   experiment-runner threads (default: hardware)
#pragma once

#include <cstdio>

#include "qsa/harness/experiment.hpp"
#include "qsa/util/flags.hpp"

namespace qsa::bench {

struct BenchOptions {
  double scale = 0.1;
  std::uint64_t seed = 42;
  std::size_t threads = 0;
};

/// Reads the shared options off the caller's Flags instance. Benches pass
/// their one Flags object here and to their own get*() calls, so the
/// unknown-flag check (util::reject_unknown_flags, called after the last
/// lookup) sees the full vocabulary.
inline BenchOptions parse_options(util::Flags& flags) {
  BenchOptions opt;
  opt.scale = flags.get_double("scale", harness::GridConfig::env_scale(0.1));
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  opt.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  return opt;
}

inline void print_header(const char* experiment, const char* paper_setup,
                         const BenchOptions& opt,
                         const harness::GridConfig& cfg) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper setup : %s\n", paper_setup);
  std::printf("this run    : scale=%.3g -> %zu peers, seed=%llu\n", opt.scale,
              cfg.peers, static_cast<unsigned long long>(opt.seed));
  std::printf("\n");
}

/// The paper's base experimental configuration at the requested scale.
inline harness::GridConfig paper_config(const BenchOptions& opt) {
  harness::GridConfig cfg;
  cfg.seed = opt.seed;
  cfg.scale(opt.scale);
  return cfg;
}

}  // namespace qsa::bench
