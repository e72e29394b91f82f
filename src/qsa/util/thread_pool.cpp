#include "qsa/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace qsa::util {

struct ThreadPool::ForLoop {
  std::atomic<std::size_t> next{0};
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  /// Queued or running driver tasks that still point here; guarded by the
  /// pool mutex.
  std::size_t drivers_left = 0;

  void drive() {
    for (std::size_t i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      (*fn)(i);
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Iterations are claimed from an atomic counter by up to min(n, workers)
  // queued "driver" tasks plus the calling thread itself. The caller always
  // participates, so the loop completes even when every worker is pinned by
  // an outer task — the property that makes nested parallel_for safe.
  ForLoop loop;
  loop.n = n;
  loop.fn = &fn;
  const std::size_t drivers = std::min(n, workers_.size());
  if (drivers > 0) {
    {
      std::lock_guard lock(mu_);
      queue_.insert(queue_.end(), drivers, &loop);
      loop.drivers_left = drivers;
    }
    task_ready_.notify_all();
  }
  loop.drive();
  // Every iteration is claimed; drop drivers still sitting in the queue
  // (they would only discover next >= n anyway, and behind a long-running
  // outer task that discovery could be arbitrarily late), then wait out the
  // ones a worker is actually executing.
  std::unique_lock lock(mu_);
  loop.drivers_left -= std::erase(queue_, &loop);
  driver_done_.wait(lock, [&loop] { return loop.drivers_left == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    ForLoop* loop = nullptr;
    {
      std::unique_lock lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      loop = queue_.front();
      queue_.pop_front();
    }
    loop->drive();
    {
      std::lock_guard lock(mu_);
      --loop->drivers_left;
    }
    // The caller may return (and free `loop`) as soon as the count it waits
    // on reaches zero; only pool members are touched from here on.
    driver_done_.notify_all();
  }
}

ThreadPool& shared_pool() {
  // Constructed on first use, joined at static destruction. A function-local
  // static (not a global) so the mutexes it needs are alive by construction.
  static ThreadPool pool(0);
  return pool;
}

}  // namespace qsa::util
