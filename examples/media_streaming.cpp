// Media streaming: the paper's motivating scenario — a video-on-demand
// delivery composed from four application services
//
//   video server -> transcoder -> caption translator -> video player
//
// built directly against the library's low-level API (no generated
// catalog): we hand-author service instances with concrete formats and
// quality windows, then watch QCS negotiate a QoS-consistent path for a
// high-quality and a low-quality user and the peer selector place it.
#include <cstdio>
#include <string>

#include "qsa/core/compose.hpp"
#include "qsa/core/select.hpp"
#include "qsa/registry/spec.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/probe/neighbor_table.hpp"
#include "qsa/qos/satisfy.hpp"
#include "qsa/util/flags.hpp"
#include "qsa/util/interner.hpp"
#include "qsa/util/rng.hpp"

using namespace qsa;

namespace {

struct Universe {
  util::Interner interner;
  qos::ParamId format = interner.intern("format");
  qos::ParamId level = interner.intern("level");
  qos::Symbol mpeg = interner.intern("MPEG");
  qos::Symbol h261 = interner.intern("H261");
};

registry::InstanceId add_instance(registry::ServiceCatalog& cat, Universe& u,
                                  registry::ServiceId svc,
                                  const char* description,
                                  std::optional<qos::Symbol> in_format,
                                  double in_lo, double in_hi,
                                  qos::Symbol out_format, double out_lo,
                                  double out_hi, double cpu, double mem,
                                  double bw) {
  registry::ServiceInstance inst;
  inst.service = svc;
  if (in_hi >= in_lo) {
    inst.qin.set(u.level, qos::QosValue::range(in_lo, in_hi));
    if (in_format) inst.qin.set(u.format, qos::QosValue::symbol(*in_format));
  }
  inst.qout.set(u.level, qos::QosValue::range(out_lo, out_hi));
  inst.qout.set(u.format, qos::QosValue::symbol(out_format));
  inst.resources = qos::ResourceVector{cpu, mem};
  inst.bandwidth_kbps = bw;
  const auto id = cat.add_instance(inst);
  std::printf("  registered %-28s (instance %u) out=%s level=[%g,%g]\n",
              description, id,
              std::string(
                  cat.instance(id).qout.get(u.format)->sym() == u.mpeg
                      ? "MPEG"
                      : "H261")
                  .c_str(),
              out_lo, out_hi);
  return id;
}

}  // namespace

int main(int argc, char** argv) {
  // The scenario takes no flags; a flag or argument is a typo.
  const util::Flags flags(argc, argv);
  util::reject_unknown_flags(flags, "media_streaming");

  Universe u;
  registry::ServiceCatalog catalog;

  std::printf("-- service universe --\n");
  const auto server = catalog.add_service("video-server");
  const auto transcoder = catalog.add_service("transcoder");
  const auto translator = catalog.add_service("caption-translator");
  const auto player = catalog.add_service("video-player");

  // Video servers (sources: no input).
  const auto srv_hq = add_instance(catalog, u, server, "archive server (HQ MPEG)",
                                   {}, 1, 0, u.mpeg, 80, 85, 40, 60, 900);
  add_instance(catalog, u, server, "mirror server (LQ H261)", {}, 1, 0, u.h261,
               30, 35, 15, 20, 120);

  // Transcoders.
  add_instance(catalog, u, transcoder, "mpeg passthrough", u.mpeg, 60, 100,
               u.mpeg, 75, 80, 20, 20, 800);
  const auto trans_down = add_instance(catalog, u, transcoder,
                                       "mpeg->h261 downscaler", u.mpeg, 50,
                                       100, u.h261, 45, 50, 80, 40, 300);
  add_instance(catalog, u, transcoder, "h261 passthrough", u.h261, 10, 60,
               u.h261, 28, 33, 10, 10, 110);

  // Caption translators (Chinese -> English, per the paper's example).
  add_instance(catalog, u, translator, "subtitle engine (MPEG)", u.mpeg, 60,
               100, u.mpeg, 70, 78, 60, 80, 780);
  const auto subs_lq = add_instance(catalog, u, translator,
                                    "subtitle engine (H261)", u.h261, 20, 60,
                                    u.h261, 40, 48, 30, 40, 280);

  // Players (the sink service).
  add_instance(catalog, u, player, "desktop player", u.mpeg, 60, 100, u.mpeg,
               65, 75, 50, 90, 760);
  const auto player_lite = add_instance(catalog, u, player, "handheld player",
                                        u.h261, 30, 60, u.h261, 35, 45, 15,
                                        25, 260);

  core::QcsComposer composer(catalog, qos::TupleWeights::uniform(2),
                             qos::ResourceSchema::paper());

  // The user states the abstract service path textually, exactly as the
  // paper's example does ("video server -> translator -> ... -> player").
  const auto parsed_path = registry::parse_abstract_path(
      "video-server -> transcoder -> caption-translator -> video-player",
      catalog);
  if (!parsed_path.ok()) {
    std::printf("path parse error: %s\n", parsed_path.error.c_str());
    return 1;
  }
  (void)server;
  (void)transcoder;
  (void)translator;
  (void)player;
  core::CompositionRequest request;
  for (auto svc : parsed_path.value) {
    const auto span = catalog.instances_of(svc);
    request.candidates.emplace_back(span.begin(), span.end());
  }

  auto run_user = [&](const char* who, const char* requirement_text) {
    std::printf("\n-- %s user requires \"%s\" --\n", who, requirement_text);
    const auto parsed = registry::parse_requirement(requirement_text,
                                                    u.interner, u.interner);
    if (!parsed.ok()) {
      std::printf("  requirement parse error: %s\n", parsed.error.c_str());
      return core::CompositionResult{};
    }
    request.requirement = parsed.value;
    const auto result = composer.compose(request);
    if (!result.success) {
      std::printf("  no QoS-consistent path exists\n");
      return result;
    }
    std::printf("  QCS path (aggregated cost %.4f):\n", result.cost);
    for (const auto id : result.instances) {
      const auto& inst = catalog.instance(id);
      std::printf("    %-20s instance %-3u R=%s b=%.0f kbps\n",
                  catalog.service(inst.service).name.c_str(), id,
                  inst.resources.to_string().c_str(), inst.bandwidth_kbps);
    }
    return result;
  };

  const auto hq = run_user("high-quality", "level in [60, 100]");
  const auto lq = run_user("handheld", "level in [35, 100]");

  // The two users get genuinely different pipelines.
  if (hq.success && lq.success) {
    std::printf("\nHQ pipeline keeps MPEG end to end; the handheld pipeline "
                "routes through %s and %s down to instance %u.\n",
                catalog.service(catalog.instance(trans_down).service)
                    .name.c_str(),
                catalog.service(catalog.instance(subs_lq).service)
                    .name.c_str(),
                player_lite);
    (void)srv_hq;
  }

  // Now place the handheld pipeline on peers with the dynamic peer
  // selector: 8 candidate hosts per instance with mixed load and uptime.
  std::printf("\n-- dynamic peer selection for the handheld pipeline --\n");
  net::PeerTable peers(qos::ResourceSchema::paper(),
                       net::ProbeClock(sim::SimTime::seconds(30)));
  net::NetworkModel net(7, net::ProbeClock(sim::SimTime::seconds(30)));
  probe::NeighborResolution neighbors(100, sim::SimTime::minutes(60));
  core::PeerSelector selector(qos::TupleWeights::uniform(2),
                              qos::ResourceSchema::paper());
  util::Rng rng(3);

  const auto user_host =
      peers.add_peer(qos::ResourceVector{300, 300}, sim::SimTime::minutes(-45));
  std::vector<std::vector<net::PeerId>> hop_candidates;  // sink -> source
  for (std::size_t i = lq.instances.size(); i-- > 0;) {
    std::vector<net::PeerId> cands;
    for (int c = 0; c < 8; ++c) {
      const double cap = rng.uniform(120, 1000);
      cands.push_back(peers.add_peer(qos::ResourceVector{cap, cap},
                                     sim::SimTime::minutes(-rng.uniform(1, 240))));
    }
    hop_candidates.push_back(std::move(cands));
  }
  neighbors.register_path(user_host, hop_candidates, sim::SimTime::zero());

  net::PeerId current = user_host;
  for (std::size_t hop = 1; hop <= lq.instances.size(); ++hop) {
    const auto& inst =
        catalog.instance(lq.instances[lq.instances.size() - hop]);
    const auto& cands = hop_candidates[hop - 1];
    neighbors.prepare_selection(current, cands, static_cast<std::uint8_t>(hop),
                                current == user_host, sim::SimTime::zero());
    const auto sel = selector.select_hop(
        peers, net, neighbors.table(current), current, inst, cands,
        sim::SimTime::minutes(20), sim::SimTime::zero(), rng);
    if (!sel.ok()) {
      std::printf("  hop %zu: no acceptable peer\n", hop);
      return 1;
    }
    std::printf("  hop %zu: %-20s -> peer %-4u (capacity %s, uptime %.0f min)\n",
                hop, catalog.service(inst.service).name.c_str(), sel.peer,
                peers.peer(sel.peer).capacity().to_string().c_str(),
                peers.peer(sel.peer).uptime(sim::SimTime::zero()).as_minutes());
    current = sel.peer;
  }
  std::printf("\ndelivery starts by backtracking the selected peer path.\n");
  return 0;
}
