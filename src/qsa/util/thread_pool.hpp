// The process's one worker pool. Three subsystems share it — the experiment
// harness (independent simulation cells), the serving loop's per-shard
// request threads, and the Chord ring's bootstrap finger rebuild on big
// rings (ChordRing::stabilize_all, one run per ring-index block) — so there
// is exactly one place that owns threads (see shared_pool()).
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

  /// Enqueues a task. Must not be called after wait() has begun draining on
  /// another thread unless externally synchronized.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Do not call from inside
  /// a pool task (it would wait on itself); nested code uses parallel_for.
  void wait();

  /// Runs fn(i) for i in [0, n) across the pool *and* the calling thread,
  /// returning when every iteration has finished. Safe to call from inside a
  /// pool task. Exceptions escaping fn terminate (simulation tasks must not
  /// throw).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// A queue entry. `tag` identifies the parallel_for batch a driver task
  /// belongs to (null for plain submits) so an impatient caller can cancel
  /// drivers that never got picked up; a cancelled entry has a null fn and
  /// is skipped by workers.
  struct Task {
    std::function<void()> fn;
    const void* tag = nullptr;
  };

  /// Pops-from-the-front vector FIFO: once drained it rewinds to index 0,
  /// so steady-state submit/run cycles reuse capacity instead of allocating
  /// (the serving benchmark gates zero allocations on this path).
  void compact_locked();
  void worker_loop();

  std::vector<std::thread> workers_;
  std::vector<Task> fifo_;
  std::size_t fifo_head_ = 0;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// The process-wide shared pool (one worker per hardware thread), created on
/// first use. ExperimentRunner, engine::serve_parallel, and
/// ChordRing::stabilize_all all draw from this single pool rather than
/// spawning their own threads.
[[nodiscard]] ThreadPool& shared_pool();

}  // namespace qsa::util
