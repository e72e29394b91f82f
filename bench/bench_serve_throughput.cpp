// Serving-mode throughput of the sim-free qsa::engine facade (DESIGN.md
// §13): the compose+select hot path driven at request-loop speed instead of
// simulated time, across 1/2/4 shard threads. Feeds
// tools/check_serve_throughput.py, which gates CI on:
//
//   * a (loose) QPS floor on every thread count — the facade must sustain
//     serving-class throughput, not just pass the simulator's workload;
//   * zero steady-state hot-path allocations — after warmup, a
//     frozen-clock shard serves entirely out of grow-only scratch, the
//     discovery cache, and the neighbor tables. The whole binary's
//     operator new is replaced with a counting hook; the counter is
//     snapshotted at the warmup/measured barrier and must not move.
//
// The world (peers, WAN, ring, catalog, placement) is built once by
// GridSimulation — construct only, never run() — and shared read-only by
// every shard. Each shard owns the per-requester soft state: a directory
// view (its discovery cache), neighbor tables, a ManualClock, and the
// engine (algorithm + scratch). The shard directory's seed MUST be the
// grid's directory label — derive_seed(seed, "directory", 0) — so its keys
// match what bootstrap published into the ring.
//
// Flags (besides the bench_common set): --requests=N (counted per shard,
// default 20000), --pool=N (distinct pregenerated requests per shard,
// default 512), --warmup=N (default 2x pool: every pooled request is
// served at least twice before measuring), --batch=N (requests per clock
// tick, default 64), --tick-ms=N (clock advance per batch, default 0 =
// frozen clock, the zero-allocation configuration), --probe-budget=M
// (neighbor-table budget, default 4096 — large enough that steady-state
// refreshes never evict), --json-out=FILE.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "qsa/engine/engine.hpp"
#include "qsa/engine/serve.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/obs/histogram.hpp"
#include "qsa/probe/resolution.hpp"
#include "qsa/registry/directory.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/workload/apps.hpp"

// --- global allocation counter ------------------------------------------
// Replacing operator new/delete for the whole bench binary: every heap
// allocation on any thread bumps the counter, so the steady-state window
// (snapshotted at the warmup barrier) measures the true hot path.
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace qsa;

/// The per-shard request pool, mirroring the simulator workload's fire()
/// recipe (app, QoS level, requester, duration) on an independent stream.
std::vector<core::ServiceRequest> make_pool(harness::GridSimulation& grid,
                                            std::uint64_t seed,
                                            std::size_t shard,
                                            std::size_t count) {
  util::Rng rng(util::derive_seed(seed, "serve-requests", shard));
  const auto& alive = grid.peers().alive_ids();
  const auto apps = grid.apps().apps();
  std::vector<core::ServiceRequest> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const workload::Application& app = apps[rng.index(apps.size())];
    const auto level = static_cast<workload::QosLevel>(rng.index(3));
    core::ServiceRequest req;
    req.requester = alive[rng.index(alive.size())];
    req.abstract_path = app.path;
    req.requirement = workload::requirement_for(level, grid.universe());
    req.session_duration = sim::SimTime::minutes(rng.uniform(1.0, 60.0));
    pool.push_back(std::move(req));
  }
  return pool;
}

/// One shard's serving state: the per-requester soft-state pieces the
/// engine needs exclusively, over the grid's shared immutable world.
struct Shard {
  Shard(harness::GridSimulation& grid, std::uint64_t seed, std::size_t index,
        std::size_t probe_budget, std::size_t pool_size)
      : directory(util::derive_seed(seed, "directory", 0), grid.ring(),
                  grid.catalog()),
        neighbors(probe_budget, grid.config().neighbor_ttl),
        pool(make_pool(grid, seed, index, pool_size)) {
    engine::EngineConfig ec;
    ec.seed = util::derive_seed(seed, "serve-shard", index);
    ec.algorithm = engine::AlgorithmKind::kQsa;
    // Frozen clock => every cached discovery stays fresh for the whole
    // measured phase; any positive TTL behaves identically.
    ec.discovery_cache_ttl = sim::SimTime::minutes(10);
    engine::EngineDeps deps;
    deps.catalog = &grid.catalog();
    deps.placement = &grid.placement();
    deps.directory = &directory;
    deps.peers = &grid.peers();
    deps.net = &grid.network();
    deps.neighbors = &neighbors;
    deps.clock = &clock;
    engine = std::make_unique<engine::ServingEngine>(ec, deps);
  }

  registry::ServiceDirectory directory;
  probe::NeighborResolution neighbors;
  engine::ManualClock clock;
  std::vector<core::ServiceRequest> pool;
  std::unique_ptr<engine::ServingEngine> engine;
  obs::Histogram latency_us;
};

struct CellResult {
  std::size_t threads = 0;
  engine::ServeStats stats;
  double wall_ms = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t steady_allocs = 0;
};

CellResult run_cell(harness::GridSimulation& grid, std::uint64_t seed,
                    std::size_t threads, std::uint64_t requests,
                    std::uint64_t warmup, std::size_t pool_size,
                    std::size_t batch, sim::SimTime tick,
                    std::size_t probe_budget) {
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<engine::ShardLoop> loops;
  shards.reserve(threads);
  loops.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    shards.push_back(
        std::make_unique<Shard>(grid, seed, i, probe_budget, pool_size));
    engine::ShardLoop loop;
    loop.engine = shards.back()->engine.get();
    loop.clock = &shards.back()->clock;
    loop.pool = shards.back()->pool;
    loop.warmup = warmup;
    loop.requests = requests;
    loop.batch = batch;
    loop.tick = tick;
    loop.latency_us = &shards.back()->latency_us;
    loops.push_back(loop);
  }

  std::uint64_t allocs_at_steady = 0;
  std::chrono::steady_clock::time_point t0;
  const engine::ServeStats stats =
      engine::serve_parallel(loops, [&]() noexcept {
        allocs_at_steady = g_news.load(std::memory_order_relaxed);
        t0 = std::chrono::steady_clock::now();
      });
  const std::uint64_t allocs_after = g_news.load(std::memory_order_relaxed);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  obs::Histogram merged;
  for (const auto& s : shards) merged.merge(s->latency_us);

  CellResult cell;
  cell.threads = threads;
  cell.stats = stats;
  cell.wall_ms = wall_ms;
  cell.qps = wall_ms > 0 ? static_cast<double>(stats.requests) * 1000.0 /
                               wall_ms
                         : 0;
  cell.p50_us = merged.p50();
  cell.p99_us = merged.p99();
  cell.steady_allocs = allocs_after - allocs_at_steady;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  const auto requests =
      static_cast<std::uint64_t>(flags.get_int("requests", 20'000));
  const auto pool_size = static_cast<std::size_t>(flags.get_int("pool", 512));
  const auto warmup = static_cast<std::uint64_t>(
      flags.get_int("warmup", static_cast<std::int64_t>(2 * pool_size)));
  const auto batch = static_cast<std::size_t>(flags.get_int("batch", 64));
  const sim::SimTime tick = sim::SimTime::millis(flags.get_int("tick-ms", 0));
  const auto probe_budget = static_cast<std::size_t>(
      util::get_int_in(flags, "probe-budget", 4096, 1,
                       probe::kMaxNeighborBudget, "bench_serve_throughput"));
  const std::string json_out = flags.get("json-out", "");
  util::reject_unknown_flags(flags, "bench_serve_throughput");

  auto cfg = bench::paper_config(opt);
  bench::print_header(
      "Serving throughput: qsa::engine compose+select at request-loop speed",
      "shared immutable world, thread-per-shard engines, frozen clock, "
      "batched request pool",
      opt, cfg);

  // World construction only — run() is never called; the serving loops
  // replace the discrete-event workload.
  harness::GridSimulation grid(cfg);

  const std::size_t thread_counts[] = {1, 2, 4};
  std::vector<CellResult> cells;
  for (std::size_t threads : thread_counts) {
    cells.push_back(run_cell(grid, opt.seed, threads, requests, warmup,
                             pool_size, batch, tick, probe_budget));
  }

  std::printf("%8s %12s %10s %10s %10s %10s %12s\n", "threads", "QPS",
              "wall ms", "psi", "p50 us", "p99 us", "steady allocs");
  for (const CellResult& c : cells) {
    std::printf("%8zu %12.0f %10.1f %10.4f %10.2f %10.2f %12llu\n", c.threads,
                c.qps, c.wall_ms, c.stats.success_ratio(), c.p50_us, c.p99_us,
                static_cast<unsigned long long>(c.steady_allocs));
  }

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "cannot open --json-out file %s\n",
                   json_out.c_str());
      return 1;
    }
    os << "{\"bench\":\"bench_serve_throughput\""
       << ",\"scale\":" << opt.scale << ",\"seed\":" << opt.seed
       << ",\"requests_per_thread\":" << requests << ",\"pool\":" << pool_size
       << ",\"warmup\":" << warmup << ",\"batch\":" << batch
       << ",\"tick_ms\":" << tick.as_millis()
       << ",\"probe_budget\":" << probe_budget << ",\"cells\":[";
    bool first = true;
    for (const CellResult& c : cells) {
      if (!first) os << ',';
      first = false;
      os << "{\"threads\":" << c.threads << ",\"qps\":" << c.qps
         << ",\"wall_ms\":" << c.wall_ms
         << ",\"requests\":" << c.stats.requests << ",\"ok\":" << c.stats.ok
         << ",\"success_ratio\":" << c.stats.success_ratio()
         << ",\"fail_discovery\":" << c.stats.fail_discovery
         << ",\"fail_composition\":" << c.stats.fail_composition
         << ",\"fail_selection\":" << c.stats.fail_selection
         << ",\"lookup_hops\":" << c.stats.lookup_hops
         << ",\"random_fallback_hops\":" << c.stats.random_fallback_hops
         << ",\"p50_us\":" << c.p50_us << ",\"p99_us\":" << c.p99_us
         << ",\"steady_allocs\":" << c.steady_allocs << '}';
    }
    os << "]}\n";
    std::printf("json report -> %s\n", json_out.c_str());
  }
  return 0;
}
