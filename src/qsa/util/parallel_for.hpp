// The one place that starts threads. Its two callers are coarse — the
// experiment harness (one iteration per independent simulation cell) and
// the Chord ring's bootstrap finger rebuild on big rings
// (ChordRing::stabilize_all, one iteration per ring-index block) — so each
// call starts its own helpers and joins them before it returns; no thread
// outlives the call.
//
// Individual simulations stay deterministic under any thread count because
// parallelism is only ever applied to index-pure work: results are stored by
// index, never by completion order. A nested call (a cell's bootstrap inside
// a harness iteration) starts helpers of its own, so it never waits on a
// busy thread.
#pragma once

#include <cstddef>
#include <functional>

namespace qsa::util {

/// Runs fn(i) for every i in [0, n) on min(n, threads) threads: the caller
/// and min(n, threads) - 1 helpers started for this call, all claiming
/// indices from one shared counter. Returns once every iteration has
/// finished and every helper is joined. `threads` = 0 means one per
/// hardware thread (at least one). An exception escaping fn on a helper
/// terminates (simulation tasks must not throw).
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace qsa::util
