// Aggregation fast-path memo tables (the composition half of qsa::cache).
//
// Every quantity memoized here is fixed once the catalog is generated:
// satisfies(Qout_B, Qin_A) depends only on the two instances' QoS vectors,
// satisfies(Qout, requirement) only on the instance and the user's
// requirement, and the scalarized cost sigma(R, b) only on the (catalog,
// weights, schema) triple. The composer re-derived all three for every
// (producer, consumer) candidate pair of every request; the memos compute
// each exactly once and replay the stored value after that, so results are
// bit-for-bit identical to the uncached computation.
//
// One ComposeCache serves exactly one composer (one catalog + weight/schema
// pair); the grid harness owns one per simulation and hands it to the
// algorithm under test. Single-threaded by design, like the simulation that
// drives it.
#pragma once

#include <cstdint>
#include <vector>

#include "qsa/obs/registry.hpp"
#include "qsa/qos/tuple_compare.hpp"
#include "qsa/qos/vector.hpp"
#include "qsa/registry/service.hpp"

namespace qsa::cache {

/// Lazily-filled pairwise memo for the eq. 1 satisfy relation, keyed by
/// instance id: a flat tri-state matrix for (producer, consumer) pairs plus
/// a small per-requirement table for the sink-layer checks (workloads draw
/// requirements from a handful of QoS levels, so a bounded set of
/// requirement memos covers them; overflow evicts round-robin).
class CompatMemo {
 public:
  /// Memoized `qos::satisfies(qout, qin)` for the producer -> consumer edge.
  /// The hit path is inline — one bounds check plus one matrix load — since
  /// the composer consults it once per candidate pair of every layer.
  [[nodiscard]] bool pair(registry::InstanceId producer,
                          const qos::QosVector& qout,
                          registry::InstanceId consumer,
                          const qos::QosVector& qin) {
    const std::size_t p = producer;
    const std::size_t c = consumer;
    if (p < dim_ && c < dim_) {
      const Verdict v = pairs_[p * dim_ + c];
      if (v != Verdict::kUnknown) {
        if (hits_ != nullptr) hits_->add();
        return v == Verdict::kYes;
      }
    }
    return pair_miss(producer, qout, consumer, qin);
  }

  /// Memoized `qos::satisfies(qout, requirement)` for the sink-layer check
  /// of `instance` against one user requirement.
  [[nodiscard]] bool sink(registry::InstanceId instance,
                          const qos::QosVector& qout,
                          const qos::QosVector& requirement);

  /// Attaches hit/miss counters (null detaches; both or neither).
  void set_metrics(obs::Counter* hits, obs::Counter* misses) noexcept {
    hits_ = hits;
    misses_ = misses;
  }

 private:
  enum class Verdict : std::uint8_t { kUnknown = 0, kNo, kYes };

  /// Requirement memos kept before round-robin eviction kicks in.
  static constexpr std::size_t kMaxRequirementMemos = 8;

  /// Cold path: grows the matrix if needed, evaluates the relation once,
  /// stores the verdict, counts the miss.
  [[nodiscard]] bool pair_miss(registry::InstanceId producer,
                               const qos::QosVector& qout,
                               registry::InstanceId consumer,
                               const qos::QosVector& qin);
  [[nodiscard]] Verdict& pair_cell(registry::InstanceId producer,
                                   registry::InstanceId consumer);
  /// Grows the pair matrix so ids < `need` are addressable.
  void grow(std::size_t need);
  [[nodiscard]] std::vector<Verdict>& sink_cells(
      const qos::QosVector& requirement);

  std::size_t dim_ = 0;         ///< pair matrix is dim_ x dim_
  std::vector<Verdict> pairs_;  ///< row-major [producer * dim_ + consumer]

  struct RequirementMemo {
    qos::QosVector requirement;
    std::vector<Verdict> verdicts;  ///< indexed by instance id
  };
  std::vector<RequirementMemo> sinks_;
  std::size_t sink_evict_next_ = 0;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
};

/// The scalarized-cost table: sigma(R_i, b_i) per instance, computed on
/// first use and an array load after that.
class CostTable {
 public:
  [[nodiscard]] double cost(registry::InstanceId instance,
                            const qos::ResourceVector& resources,
                            double bandwidth_kbps,
                            const qos::TupleWeights& weights,
                            const qos::ResourceSchema& schema) {
    if (instance < costs_.size()) {
      const double c = costs_[instance];
      if (c == c) return c;  // non-NaN: already scalarized
    }
    return fill(instance, resources, bandwidth_kbps, weights, schema);
  }

 private:
  /// Cold path: resizes the table and scalarizes the tuple once.
  double fill(registry::InstanceId instance,
              const qos::ResourceVector& resources, double bandwidth_kbps,
              const qos::TupleWeights& weights,
              const qos::ResourceSchema& schema);

  std::vector<double> costs_;  ///< NaN = not computed yet
};

/// The bundle a composer consults: compatibility memo + cost table.
struct ComposeCache {
  CompatMemo compat;
  CostTable costs;

  /// Resolves the `cache.compat.{hits,misses}` counters (`metrics`
  /// non-null).
  void set_metrics(obs::MetricsRegistry* metrics);
};

}  // namespace qsa::cache
