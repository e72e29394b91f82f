#include "qsa/cache/compose_cache.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qsa/qos/satisfy.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::cache {
namespace {

constexpr double kUnsetCost = std::numeric_limits<double>::quiet_NaN();

}  // namespace

void CompatMemo::grow(std::size_t need) {
  // Geometric growth keeps re-layouts rare when a catalog gains instances
  // after the memo warmed up (churn arrivals never add instances, so in
  // practice this runs once, sized to the generated catalog).
  std::size_t next = std::max<std::size_t>(16, dim_ * 2);
  while (next < need) next *= 2;
  std::vector<Verdict> grown(next * next, Verdict::kUnknown);
  for (std::size_t p = 0; p < dim_; ++p) {
    std::copy_n(pairs_.begin() + static_cast<std::ptrdiff_t>(p * dim_), dim_,
                grown.begin() + static_cast<std::ptrdiff_t>(p * next));
  }
  pairs_ = std::move(grown);
  dim_ = next;
}

CompatMemo::Verdict& CompatMemo::pair_cell(registry::InstanceId producer,
                                           registry::InstanceId consumer) {
  const std::size_t need =
      static_cast<std::size_t>(std::max(producer, consumer)) + 1;
  if (need > dim_) grow(need);
  return pairs_[static_cast<std::size_t>(producer) * dim_ + consumer];
}

bool CompatMemo::pair_miss(registry::InstanceId producer,
                           const qos::QosVector& qout,
                           registry::InstanceId consumer,
                           const qos::QosVector& qin) {
  Verdict& v = pair_cell(producer, consumer);
  if (v == Verdict::kUnknown) {
    if (misses_ != nullptr) misses_->add();
    v = qos::satisfies(qout, qin) ? Verdict::kYes : Verdict::kNo;
  } else if (hits_ != nullptr) {
    hits_->add();  // unreachable today; kept so the count stays honest
  }
  return v == Verdict::kYes;
}

std::vector<CompatMemo::Verdict>& CompatMemo::sink_cells(
    const qos::QosVector& requirement) {
  for (RequirementMemo& memo : sinks_) {
    if (memo.requirement == requirement) return memo.verdicts;
  }
  if (sinks_.size() < kMaxRequirementMemos) {
    sinks_.push_back(RequirementMemo{requirement, {}});
    return sinks_.back().verdicts;
  }
  RequirementMemo& victim = sinks_[sink_evict_next_];
  sink_evict_next_ = (sink_evict_next_ + 1) % sinks_.size();
  victim.requirement = requirement;
  victim.verdicts.assign(victim.verdicts.size(), Verdict::kUnknown);
  return victim.verdicts;
}

bool CompatMemo::sink(registry::InstanceId instance, const qos::QosVector& qout,
                      const qos::QosVector& requirement) {
  std::vector<Verdict>& cells = sink_cells(requirement);
  if (instance >= cells.size()) cells.resize(instance + 1, Verdict::kUnknown);
  Verdict& v = cells[instance];
  if (v == Verdict::kUnknown) {
    if (misses_ != nullptr) misses_->add();
    v = qos::satisfies(qout, requirement) ? Verdict::kYes : Verdict::kNo;
  } else if (hits_ != nullptr) {
    hits_->add();
  }
  return v == Verdict::kYes;
}

double CostTable::fill(registry::InstanceId instance,
                       const qos::ResourceVector& resources,
                       double bandwidth_kbps, const qos::TupleWeights& weights,
                       const qos::ResourceSchema& schema) {
  if (instance >= costs_.size()) costs_.resize(instance + 1, kUnsetCost);
  double& c = costs_[instance];
  if (std::isnan(c)) {
    c = qos::scalarize(qos::ResourceTuple{resources, bandwidth_kbps}, weights,
                       schema);
  }
  return c;
}

void ComposeCache::set_metrics(obs::MetricsRegistry* metrics) {
  QSA_EXPECTS(metrics != nullptr);
  compat.set_metrics(&metrics->counter("cache.compat.hits"),
                     &metrics->counter("cache.compat.misses"));
}

}  // namespace qsa::cache
