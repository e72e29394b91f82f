#include "qsa/obs/series.hpp"

#include "qsa/obs/sink.hpp"

namespace qsa::obs {

void LiveSeries::track(std::string_view name, Probe probe) {
  tracked_.push_back(Tracked{name, std::move(probe)});
}

void LiveSeries::push(std::string_view name, sim::SimTime now, double value) {
  if (sink_ != nullptr) sink_->on_sample(name, now, value);
}

void LiveSeries::sample(sim::SimTime now) {
  for (Tracked& t : tracked_) push(t.name, now, t.probe());
}

}  // namespace qsa::obs
