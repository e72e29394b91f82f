// An admitted application session: the service path instantiated on
// concrete peers, together with the exact reservations it holds so they can
// be released precisely at teardown or abort.
#pragma once

#include <cstdint>
#include <vector>

#include "qsa/core/aggregate.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/qos/resources.hpp"
#include "qsa/sim/event_queue.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::session {

using SessionId = std::uint64_t;

struct HostReservation {
  net::PeerId peer = net::kNoPeer;
  qos::ResourceVector resources;
};

struct LinkReservation {
  net::PeerId from = net::kNoPeer;
  net::PeerId to = net::kNoPeer;
  double kbps = 0;
};

struct Session {
  SessionId id = 0;
  net::PeerId requester = net::kNoPeer;
  std::vector<registry::InstanceId> instances;  ///< source .. sink
  std::vector<net::PeerId> hosts;               ///< aligned with instances
  sim::SimTime start;
  sim::SimTime end;  ///< scheduled completion time

  std::vector<HostReservation> host_reservations;
  std::vector<LinkReservation> link_reservations;
  sim::EventHandle end_event;

  /// The originating request's number (ServiceRequest::trace_id; 0 = none)
  /// and, when a tracer is attached, the open `running` span the manager
  /// keeps for it (a generation-tagged obs::Tracer::SpanId).
  std::uint64_t trace_id = 0;
  std::uint64_t trace_span = 0;
};

}  // namespace qsa::session
