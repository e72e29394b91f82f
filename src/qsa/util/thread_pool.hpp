// The process's one worker pool. Two subsystems share it — the experiment
// harness (independent simulation cells) and the Chord ring's bootstrap
// finger rebuild on big rings (ChordRing::stabilize_all, one run per
// ring-index block) — so there is exactly one place that owns threads (see
// shared_pool()).
//
// Individual simulations stay deterministic under any worker count because
// parallelism is only ever applied to index-pure work: results are stored by
// index, never by completion order.
//
// parallel_for() is nested-safe and caller-participating: the calling thread
// drives iterations itself while workers help, so a parallel_for issued from
// *inside* a pool task (e.g. a simulation cell parallelizing its bootstrap
// on the same pool) always makes progress even when every worker is busy —
// there is no "wait for a free worker" deadlock by construction. Iterations
// are handed out by an atomic counter, not queued per-index, so an n-element
// loop costs O(workers) queue traffic, not O(n).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qsa::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool *and* the calling thread,
  /// returning when every iteration has finished. Safe to call from inside a
  /// pool task. Exceptions escaping fn terminate (simulation tasks must not
  /// throw).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// One parallel_for call's shared state, on its caller's stack.
  struct ForLoop;

  void worker_loop();

  std::vector<std::thread> workers_;
  /// Queued driver tasks, one entry per worker a parallel_for asked to help.
  std::deque<ForLoop*> queue_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable driver_done_;
  bool stop_ = false;
};

/// The process-wide shared pool (one worker per hardware thread), created on
/// first use. ExperimentRunner and ChordRing::stabilize_all both draw from
/// this single pool rather than spawning their own threads.
[[nodiscard]] ThreadPool& shared_pool();

}  // namespace qsa::util
