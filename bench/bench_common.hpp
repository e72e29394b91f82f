// Shared plumbing for the evaluation driver (paper.cpp) and the perf
// benches: the common flags, the scaled paper configuration, and the
// standard experiment header block.
//
// Every bench accepts:
//   --scale=F     population scale factor (default 0.1; --scale=1 = paper
//                 scale), > 0 and small enough that the scaled population
//                 fits a PeerId (at most 2^32-1 peers); a value that is not
//                 wholly a finite number exits 2. Peer count, request rate
//                 and churn rate scale together, preserving the figures'
//                 shape.
//   --seed=N      root seed (default 42)
//   --threads=N   experiment-runner threads, 0..1024 (default 0: hardware)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

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
/// lookup) sees the full vocabulary. A scale outside (0, kMaxPeers / the
/// paper's population] or a thread count outside 0..1024 prints the range
/// to stderr and exits 2, before any thread starts.
inline BenchOptions parse_options(util::Flags& flags,
                                  std::string_view program) {
  BenchOptions opt;
  opt.scale = flags.get_double("scale", 0.1);
  // GridConfig::scale's precondition: the scaled population fits a PeerId.
  const auto paper_peers = static_cast<double>(harness::GridConfig{}.peers);
  const auto max_peers = static_cast<double>(harness::kMaxPeers);
  if (opt.scale <= 0 || opt.scale * paper_peers > max_peers) {
    std::fprintf(stderr,
                 "%.*s: --scale=%s is out of range\nusage: --scale=<number "
                 "> 0 and <= %.10g>\n",
                 static_cast<int>(program.size()), program.data(),
                 flags.get("scale", "").c_str(), max_peers / paper_peers);
    std::exit(2);
  }
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  opt.threads = static_cast<std::size_t>(
      util::get_int_in(flags, "threads", 0, 0, 1024, program));
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
