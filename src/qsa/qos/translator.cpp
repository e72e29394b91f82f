#include "qsa/qos/translator.hpp"

#include "qsa/util/expects.hpp"

namespace qsa::qos {

AnalyticTranslator::AnalyticTranslator(ParamId level_param, Coefficients coeff)
    : level_param_(level_param), coeff_(coeff) {
  QSA_EXPECTS(coeff_.base.size() == coeff_.in_slope.size());
  QSA_EXPECTS(coeff_.base.size() == coeff_.out_slope.size());
  QSA_EXPECTS(coeff_.base.nonnegative());
  QSA_EXPECTS(coeff_.base_bw_kbps >= 0);
}

double AnalyticTranslator::level_of(const QosVector& q) const {
  if (auto v = q.get(level_param_)) return v->representative();
  return 0;
}

ResourceVector AnalyticTranslator::resources(const QosVector& qin,
                                             const QosVector& qout) const {
  const double lin = level_of(qin);
  const double lout = level_of(qout);
  ResourceVector r = coeff_.base;
  r += coeff_.in_slope * lin;
  r += coeff_.out_slope * lout;
  return r;
}

double AnalyticTranslator::bandwidth_kbps(const QosVector& qout) const {
  return coeff_.base_bw_kbps + coeff_.bw_slope_kbps * level_of(qout);
}

AnalyticTranslator::Coefficients AnalyticTranslator::paper_coefficients() {
  // Calibrated against the paper's Section 4.1 universe (peer capacity
  // 100..1000 units, link bottlenecks 56..10000 kbps, 10^4 peers, request
  // rates up to 1000/min):
  //   * a level-50 ("average") instance needs ~`scale` CPU/memory units, so
  //     end-system saturation — the effect Figure 5 sweeps — sets in at a
  //     few hundred requests/minute;
  //   * edge bandwidth stays in the 22..55 kbps range, below the smallest
  //     (56 kbps) bottleneck level: any uncontended link can carry any
  //     single flow, and bandwidth only fails under contention. This keeps
  //     the cost-blind baselines viable at low load, as in the paper.
  constexpr double scale = 45.0;
  Coefficients c;
  c.base = ResourceVector{scale * 0.4, scale * 0.4};
  c.in_slope = ResourceVector{scale * 0.004, scale * 0.002};
  c.out_slope = ResourceVector{scale * 0.008, scale * 0.010};
  c.base_bw_kbps = 20.0;
  c.bw_slope_kbps = 0.35;
  return c;
}

}  // namespace qsa::qos
