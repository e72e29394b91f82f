// Time series of sampled metric values (the success-ratio fluctuation plots
// of Figures 6 and 8 sample psi every 2 minutes).
#pragma once

#include <cstddef>
#include <vector>

#include "qsa/sim/time.hpp"

namespace qsa::metrics {

struct Sample {
  sim::SimTime time;
  double value = 0;
};

class TimeSeries {
 public:
  void record(sim::SimTime time, double value) {
    samples_.push_back(Sample{time, value});
  }

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

 private:
  std::vector<Sample> samples_;
};

}  // namespace qsa::metrics
