#include "qsa/util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace qsa::util {

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  std::atomic<std::size_t> next{0};
  const auto drive = [&] {
    for (std::size_t i; (i = next++) < n;) fn(i);
  };
  // Declared after everything `drive` reads, so the helpers are joined
  // (when the vector is destroyed) before those go, on every path out.
  std::vector<std::jthread> helpers;
  for (std::size_t t = 1; t < std::min(n, threads); ++t) {
    helpers.emplace_back(drive);
  }
  drive();
}

}  // namespace qsa::util
