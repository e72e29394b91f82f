// In-memory capture of an observability stream for tests: the real writer
// (qsa/obs/sink.hpp) over a std::ostringstream.
#pragma once

#include <sstream>
#include <string>

#include "qsa/obs/sink.hpp"

namespace qsa::test {

template <typename Sink>
struct Capture {
  std::ostringstream os;
  Sink sink{os};

  /// Everything written so far.
  std::string str() {
    sink.flush();
    return os.str();
  }
};

using SpanCapture = Capture<obs::JsonlSpanSink>;
using SeriesCapture = Capture<obs::CsvMetricSink>;

}  // namespace qsa::test
