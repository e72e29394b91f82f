#include "qsa/net/network.hpp"

#include <algorithm>
#include <cmath>

#include "qsa/util/expects.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::net {
namespace {

// kCoords latency quantization: quantiles of the distance between two
// uniform points in the unit square (exact closed-form CDF, bisected at
// 0.2/0.4/0.6/0.8), so each of the five latency levels gets a ~20% pair
// marginal — the paper's level-set distribution, now with geometric
// structure. Distances below the first threshold are the closest fifth of
// all pairs and map to 1 ms, the farthest fifth to 200 ms.
constexpr double kDistQuantile[] = {0.2877359663, 0.4401475369, 0.5851348671,
                                    0.7496696790};
constexpr std::int64_t kCoordLatencyMs[] = {1, 20, 80, 150, 200};

// kCoords access-tier CDF: P(tier <= k) = sqrt((k+1)/4). A pair's capacity
// is the worse endpoint tier, so P(pair level <= k) = CDF^2 = (k+1)/4 —
// exactly uniform over the paper's four bandwidth levels.
constexpr double kTierCdf[] = {0.5, 0.70710678118654752, 0.86602540378443865};

// Ledger entries at or below this are "settled": genuine reservations are
// whole kbps, so anything this small is float residue the release snap
// already treats as zero (see release()); evicting it heals, not loses,
// up to 1e-6 kbps of phantom reservation.
constexpr double kEvictResidueKbps = 1e-6;

}  // namespace

std::string_view to_string(NetModelKind kind) noexcept {
  switch (kind) {
    case NetModelKind::kPaper:
      return "paper";
    case NetModelKind::kCoords:
      return "coords";
  }
  return "?";
}

NetworkModel::NetworkModel(std::uint64_t seed, ProbeClock clock,
                           NetModelKind kind)
    : seed_(seed), clock_(clock), kind_(kind) {}

std::uint64_t NetworkModel::pair_key(PeerId a, PeerId b) noexcept {
  // The packing is collision-free only while a PeerId fits in the low half
  // of the 64-bit key; a wider PeerId would silently alias distinct pairs
  // (lo's shifted bits colliding with hi's high bits) and corrupt the
  // reservation ledger. Fail the build instead.
  static_assert(sizeof(PeerId) * 8 <= 32,
                "pair_key packs two PeerIds into 64 bits; widen the key "
                "before widening PeerId");
  const PeerId lo = std::min(a, b);
  const PeerId hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

std::uint64_t NetworkModel::pair_hash(PeerId a, PeerId b,
                                      std::uint64_t purpose) const noexcept {
  return util::mix64(util::hash_combine(seed_ ^ purpose, pair_key(a, b)));
}

std::uint64_t NetworkModel::peer_hash(PeerId p,
                                      std::uint64_t purpose) const noexcept {
  return util::mix64(util::hash_combine(seed_ ^ purpose, p));
}

std::pair<double, double> NetworkModel::coordinate(PeerId p) const noexcept {
  const std::uint64_t h = peer_hash(p, util::hash_str("coord"));
  // Two uniforms in [0, 1) from the hash halves. 0x1p-32 keeps the mapping
  // exact (no rounding ambiguity), hence bit-reproducible everywhere.
  const double x = static_cast<double>(h >> 32) * 0x1p-32;
  const double y = static_cast<double>(h & 0xffffffffu) * 0x1p-32;
  return {x, y};
}

int NetworkModel::access_tier(PeerId p) const noexcept {
  const std::uint64_t h = peer_hash(p, util::hash_str("tier"));
  const double u = static_cast<double>(h >> 11) * 0x1p-53;
  for (int k = 0; k < 3; ++k) {
    if (u < kTierCdf[k]) return k;
  }
  return 3;
}

double NetworkModel::capacity_kbps(PeerId a, PeerId b) const {
  if (a == b) return kLoopbackKbps;  // loopback: effectively unconstrained
  if (kind_ == NetModelKind::kCoords) {
    // The bottleneck is the worse of the two access links.
    return kBandwidthLevelsKbps[std::max(access_tier(a), access_tier(b))];
  }
  constexpr std::size_t n = std::size(kBandwidthLevelsKbps);
  return kBandwidthLevelsKbps[pair_hash(a, b, util::hash_str("bw")) % n];
}

sim::SimTime NetworkModel::latency(PeerId a, PeerId b) const {
  if (a == b) return sim::SimTime::zero();
  if (kind_ == NetModelKind::kCoords) {
    const auto [xa, ya] = coordinate(a);
    const auto [xb, yb] = coordinate(b);
    const double dx = xa - xb;
    const double dy = ya - yb;
    // sqrt, not hypot: correctly rounded per IEEE-754, so the quantized
    // level is identical on every libm.
    const double d = std::sqrt(dx * dx + dy * dy);
    std::size_t bucket = std::size(kDistQuantile);
    for (std::size_t k = 0; k < std::size(kDistQuantile); ++k) {
      if (d < kDistQuantile[k]) {
        bucket = k;
        break;
      }
    }
    return sim::SimTime::millis(kCoordLatencyMs[bucket]);
  }
  constexpr std::size_t n = std::size(kLatencyLevelsMs);
  return sim::SimTime::millis(
      kLatencyLevelsMs[pair_hash(a, b, util::hash_str("lat")) % n]);
}

double NetworkModel::available_kbps(PeerId a, PeerId b) const {
  if (a == b) return kLoopbackKbps;  // never constrained, never ledgered
  const auto it = links_.find(pair_key(a, b));
  const double reserved = it == links_.end() ? 0.0 : it->second.live();
  return capacity_kbps(a, b) - reserved;
}

double NetworkModel::probed_available_kbps(PeerId a, PeerId b,
                                           sim::SimTime now) const {
  if (a == b) return kLoopbackKbps;
  const auto it = links_.find(pair_key(a, b));
  const double reserved =
      it == links_.end() ? 0.0 : it->second.probed(clock_.epoch(now));
  return capacity_kbps(a, b) - reserved;
}

void NetworkModel::note_self_touch(PeerId p) {
  if (p >= self_touched_.size()) self_touched_.resize(p + 1, false);
  if (!self_touched_[p]) {
    self_touched_[p] = true;
    ++self_touched_count_;
  }
}

void NetworkModel::maybe_sweep(std::int64_t epoch) {
  if (epoch <= last_sweep_epoch_) return;
  last_sweep_epoch_ = epoch;
  if (links_.size() <= evict_floor_) return;
  // Two passes: DenseMap's backward-shift erase relocates entries, so
  // collect the settled keys first, then drop them. Settled: reservation
  // back at (residue-of) zero and the snapshot older than the current
  // epoch, so probed() and live() both read as unreserved — erasing the
  // entry is invisible to every query.
  std::vector<std::uint64_t> settled;
  for (const auto& [key, link] : links_) {
    if (link.live() <= kEvictResidueKbps && link.snapshot_epoch() < epoch) {
      settled.push_back(key);
    }
  }
  for (std::uint64_t key : settled) links_.erase(key);
}

bool NetworkModel::try_reserve(PeerId a, PeerId b, double kbps,
                               sim::SimTime now) {
  QSA_EXPECTS(kbps >= 0);
  if (a == b) {
    // Loopback short-circuit: a peer streaming to itself never contends
    // for WAN bandwidth. Admitting without a ledger entry also keeps the
    // 1e9-kbps magnitudes out of the float cancel/snap path below (the
    // source of PR 7's drift bug). The touch is still counted so the
    // monotone touched_pairs() accounting matches the historical ledger.
    if (kbps > kLoopbackKbps) return false;
    note_self_touch(a);
    return true;
  }
  const std::int64_t epoch = clock_.epoch(now);
  maybe_sweep(epoch);
  if (kbps > available_kbps(a, b)) return false;
  const auto [it, inserted] =
      links_.emplace(pair_key(a, b), Snapshotted<double>{});
  if (inserted) ++touched_pairs_;
  it->second.mutate(epoch, [&](double& r) { r += kbps; });
  return true;
}

void NetworkModel::release(PeerId a, PeerId b, double kbps, sim::SimTime now) {
  QSA_EXPECTS(kbps >= 0);
  if (a == b) return;  // loopback reservations are never ledgered
  const std::int64_t epoch = clock_.epoch(now);
  maybe_sweep(epoch);
  auto it = links_.find(pair_key(a, b));
  QSA_EXPECTS(it != links_.end());
  it->second.mutate(epoch, [&](double& r) {
    const double before = r;
    r -= kbps;
    // Snap float residue to exactly zero. The tolerance scales with the
    // magnitudes cancelled: relative to double's 1e-16 precision, 1e-12 per
    // unit magnitude is ~4 orders of headroom yet snaps only genuine
    // residue, never a real remaining reservation. Positive residue is left
    // untouched: it is indistinguishable from live concurrent reservations
    // here, and decays the same way on their release (or is healed by the
    // settled-entry sweep).
    const double tol = std::max(1e-9, 1e-12 * std::max(kbps, before));
    if (r < 0 && r >= -tol) r = 0;
  });
  QSA_ENSURES(it->second.live() > -1e-9);
  // The entry is kept for now even at zero reservation — its epoch snapshot
  // must stay visible until the next epoch. maybe_sweep() evicts it on the
  // first mutating call of a later epoch (once the ledger is above the
  // eviction floor), so the map tracks concurrent sessions, not distinct
  // pairs ever reserved.
}

}  // namespace qsa::net
