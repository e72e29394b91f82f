// QoS-to-resource translation (Section 3.1, assumption 2): maps a service
// instance's application-level QoS specification (Qin, Qout) to its
// end-system resource requirements R = f(Qin, Qout) and the network
// bandwidth its output edge needs. The paper cites analytical translation
// and offline profiling; we provide the analytical form with configurable
// coefficients.
#pragma once

#include "qsa/qos/resources.hpp"
#include "qsa/qos/vector.hpp"

namespace qsa::qos {

/// Linear analytic translator: each resource kind costs
///   base_i + in_slope_i * level(Qin) + out_slope_i * level(Qout)
/// and bandwidth costs base_bw + bw_slope * level(Qout), where level(Q) is
/// the representative value of the designated quality-level parameter
/// (0 when the vector lacks it). Higher quality => more resources, which is
/// what makes the QCS "shortest" objective meaningful.
class AnalyticTranslator {
 public:
  struct Coefficients {
    ResourceVector base;       ///< per-kind constant cost
    ResourceVector in_slope;   ///< per-kind cost per input level unit
    ResourceVector out_slope;  ///< per-kind cost per output level unit
    double base_bw_kbps = 0;
    double bw_slope_kbps = 0;  ///< bandwidth per output level unit
  };

  AnalyticTranslator(ParamId level_param, Coefficients coeff);

  /// End-system resources needed to consume `qin` and produce `qout`.
  [[nodiscard]] ResourceVector resources(const QosVector& qin,
                                         const QosVector& qout) const;

  /// Bandwidth (kbps) required on the edge carrying `qout` downstream.
  [[nodiscard]] double bandwidth_kbps(const QosVector& qout) const;

  /// Coefficients sized for the paper's 2-kind schema (CPU, memory) that put
  /// a median-quality instance around 45 CPU units.
  [[nodiscard]] static Coefficients paper_coefficients();

 private:
  [[nodiscard]] double level_of(const QosVector& q) const;

  ParamId level_param_;
  Coefficients coeff_;
};

}  // namespace qsa::qos
