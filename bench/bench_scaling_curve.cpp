// Scaling curve (DESIGN.md §14): one grid cell per population size N, each
// run in its own forked child so peak RSS is a per-cell measurement rather
// than the max over the whole sweep. Per-peer load is held constant —
// request and churn rates scale with N/10^4 — so the curve isolates how the
// *infrastructure* (bootstrap, peer table, reservation ledger, obs export)
// grows with population, which is what the million-peer work optimizes.
//
// Reported per cell: bootstrap/run wall ms (GridConfig::profile), peak RSS
// (VmHWM), psi, requests, the reservation ledger's live footprint
// (active_pairs) vs its monotone touched-pair counter, and the peer table's
// resident slot count. tools/check_scaling.py gates CI on the wall ceiling
// and on RSS growing no faster than the population does.
//
// Flags: see print_usage(). Every cell's configuration is checked against
// GridConfig::validate() before the first fork, so a bad knob (or a --ns
// entry that is not an integer in 1..2^32-1) prints the rule and the usage
// and exits 2 instead of aborting every child.
//
// The banner and the JSON header record hw_threads (the host's hardware
// threads): the Chord finger rebuild in bootstrap runs on one thread per
// hardware thread on rings of 2048+ nodes, so boot_overlay_ms depends on it.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "qsa/harness/grid.hpp"
#include "qsa/metrics/table.hpp"
#include "qsa/util/flags.hpp"

namespace {

using namespace qsa;

struct CellResult {
  unsigned long long peers = 0;
  double bootstrap_ms = 0;
  double boot_peers_ms = 0;    ///< peer creation + deferred joins
  double boot_overlay_ms = 0;  ///< stabilize_all (parallel on big rings)
  double run_ms = 0;
  unsigned long long rss_kb = 0;  ///< peak resident set (VmHWM)
  double psi = 0;
  unsigned long long requests = 0;
  unsigned long long active_pairs = 0;   ///< live ledger entries at horizon
  unsigned long long touched_pairs = 0;  ///< monotone distinct-pair counter
  unsigned long long resident_slots = 0; ///< peer-table slots still resident
};

/// Peak resident set of this process in kB: VmHWM from /proc/self/status,
/// falling back to getrusage (also kB on Linux).
unsigned long long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kb) == 1) return kb;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<unsigned long long>(ru.ru_maxrss);
}

harness::GridConfig make_config(std::size_t n, double minutes,
                                double base_rate, double base_churn,
                                net::NetModelKind model, std::uint64_t seed) {
  harness::GridConfig cfg;
  cfg.seed = seed;
  cfg.peers = n;
  cfg.net_model = model;
  const double factor = static_cast<double>(n) / 1e4;
  cfg.requests.rate_per_min = base_rate * factor;
  cfg.churn.events_per_min = base_churn * factor;
  cfg.horizon = sim::SimTime::minutes(minutes);
  cfg.profile = true;
  return cfg;
}

/// Runs one cell in the calling (child) process and writes the measurement
/// line to `fd`.
void run_cell_child(const harness::GridConfig& cfg, int fd) {
  harness::GridSimulation grid(cfg);
  const auto r = grid.run();
  const auto& prof = grid.profile_report();
  dprintf(fd, "%llu %.3f %.3f %.3f %.3f %llu %.6f %llu %llu %llu %llu\n",
          static_cast<unsigned long long>(cfg.peers), prof.bootstrap_ms,
          prof.bootstrap_peers_ms, prof.bootstrap_overlay_ms,
          prof.run_ms, peak_rss_kb(), r.success_ratio(),
          static_cast<unsigned long long>(r.requests),
          static_cast<unsigned long long>(grid.network().active_pairs()),
          static_cast<unsigned long long>(grid.network().touched_pairs()),
          static_cast<unsigned long long>(grid.peers().resident_slots()));
}

bool run_cell(const harness::GridConfig& cfg, CellResult& out) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    run_cell_child(cfg, fds[1]);
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  FILE* in = fdopen(fds[0], "r");
  const int parsed =
      in == nullptr
          ? 0
          : std::fscanf(in, "%llu %lf %lf %lf %lf %llu %lf %llu %llu %llu %llu",
                        &out.peers, &out.bootstrap_ms, &out.boot_peers_ms,
                        &out.boot_overlay_ms, &out.run_ms,
                        &out.rss_kb, &out.psi, &out.requests,
                        &out.active_pairs, &out.touched_pairs,
                        &out.resident_slots);
  if (in != nullptr) std::fclose(in);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "cell N=%zu: child failed (status %d)\n", cfg.peers,
                 status);
    return false;
  }
  return parsed == 11;
}

void print_usage() {
  std::printf(
      "bench_scaling_curve — one grid cell per population, each in a forked\n"
      "child (wall, peak RSS and footprints vs N)\n\n"
      "  --ns=N1,N2,...   populations, each an integer in 1..4294967295\n"
      "                   (default 10000,100000,1000000)\n"
      "  --minutes=M      horizon per cell (default 10)\n"
      "  --rate=R         requests/min at N=10^4; scaled by N/10^4\n"
      "                   (default 100)\n"
      "  --churn=C        churn events/min at N=10^4; scaled by N/10^4\n"
      "                   (default 10)\n"
      "  --net-model=K    paper | coords (default coords: O(N) state)\n"
      "  --seed=S         root seed (default 42)\n"
      "  --json-out=FILE  also write the cells as JSON\n"
      "  --csv            also print the table as CSV\n");
}

/// Splits `list` on commas into populations. Returns the first entry that
/// is not an integer in 1..2^32-1 (PeerIds are 32-bit), or nullopt.
std::optional<std::string> parse_ns(const std::string& list,
                                    std::vector<std::size_t>& ns) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t next = list.find(',', pos);
    if (next == std::string::npos) next = list.size();
    const std::string tok = list.substr(pos, next - pos);
    std::uint64_t n = 0;
    const char* end = tok.data() + tok.size();
    const auto [stop, ec] = std::from_chars(tok.data(), end, n);
    if (ec != std::errc{} || stop != end || n < 1 || n > kMax) return tok;
    ns.push_back(static_cast<std::size_t>(n));
    pos = next + 1;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (flags.help()) {
    print_usage();
    return 0;
  }
  std::vector<std::size_t> ns;
  const auto bad_n = parse_ns(flags.get("ns", "10000,100000,1000000"), ns);
  const double minutes =
      util::get_double_in(flags, "minutes", 10, -util::kMaxFlagMinutes,
                          util::kMaxFlagMinutes, "bench_scaling_curve");
  const double base_rate = flags.get_double("rate", 100);
  const double base_churn = flags.get_double("churn", 10);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::string json_out = flags.get("json-out", "");
  const bool csv = flags.get_bool("csv", false);
  static constexpr util::Choice<net::NetModelKind> kNetModels[] = {
      {"paper", net::NetModelKind::kPaper},
      {"coords", net::NetModelKind::kCoords},
  };
  const net::NetModelKind model =
      util::get_choice(flags, "net-model", kNetModels,
                       net::NetModelKind::kCoords, "bench_scaling_curve");
  const std::string model_name(net::to_string(model));
  util::reject_unknown_flags(flags, "bench_scaling_curve");
  if (bad_n) {
    std::printf("bad --ns entry '%s': need an integer in 1..4294967295\n\n",
                bad_n->c_str());
    print_usage();
    return 2;
  }
  std::vector<harness::GridConfig> configs;
  for (const std::size_t n : ns) {
    configs.push_back(
        make_config(n, minutes, base_rate, base_churn, model, seed));
    if (const std::string_view rule = configs.back().validate();
        !rule.empty()) {
      std::printf("out-of-range knob for N=%zu: need %.*s\n\n", n,
                  static_cast<int>(rule.size()), rule.data());
      print_usage();
      return 2;
    }
  }

  std::printf("=== Scaling curve: wall/RSS/footprints vs population ===\n");
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("net model %s, %.4g min horizon, %.4g req/min and %.4g "
              "churn/min per 10^4 peers, %u hw threads, seed %llu\n\n",
              model_name.c_str(), minutes, base_rate, base_churn, hw_threads,
              static_cast<unsigned long long>(seed));

  std::vector<CellResult> cells;
  for (const auto& cfg : configs) {
    CellResult cell;
    if (!run_cell(cfg, cell)) return 1;
    std::printf("N=%-9llu bootstrap %9.1f ms (joins %8.1f, overlay %8.1f)  "
                "run %9.1f ms  rss %8llu kB  psi %.3f\n",
                cell.peers, cell.bootstrap_ms, cell.boot_peers_ms,
                cell.boot_overlay_ms, cell.run_ms, cell.rss_kb, cell.psi);
    cells.push_back(cell);
  }
  std::printf("\n");

  metrics::Table table({"peers", "bootstrap_ms", "boot_peers_ms",
                        "boot_overlay_ms", "run_ms", "rss_kb", "psi",
                        "requests", "active_pairs", "touched_pairs",
                        "resident_slots"});
  for (const auto& c : cells) {
    table.add_row({metrics::Table::num(static_cast<double>(c.peers), 0),
                   metrics::Table::num(c.bootstrap_ms, 1),
                   metrics::Table::num(c.boot_peers_ms, 1),
                   metrics::Table::num(c.boot_overlay_ms, 1),
                   metrics::Table::num(c.run_ms, 1),
                   metrics::Table::num(static_cast<double>(c.rss_kb), 0),
                   metrics::Table::num(c.psi, 3),
                   metrics::Table::num(static_cast<double>(c.requests), 0),
                   metrics::Table::num(static_cast<double>(c.active_pairs), 0),
                   metrics::Table::num(static_cast<double>(c.touched_pairs), 0),
                   metrics::Table::num(static_cast<double>(c.resident_slots),
                                       0)});
  }
  table.print(std::cout);
  if (csv) {
    std::printf("\n--- CSV ---\n");
    table.print_csv(std::cout);
  }

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "cannot open --json-out file %s\n",
                   json_out.c_str());
      return 1;
    }
    os << "{\"bench\":\"bench_scaling_curve\",\"net_model\":\"" << model_name
       << "\",\"minutes\":" << minutes << ",\"seed\":" << seed
       << ",\"hw_threads\":" << hw_threads << ",\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      if (i > 0) os << ',';
      os << "{\"peers\":" << c.peers << ",\"bootstrap_ms\":" << c.bootstrap_ms
         << ",\"boot_peers_ms\":" << c.boot_peers_ms
         << ",\"boot_overlay_ms\":" << c.boot_overlay_ms
         << ",\"run_ms\":" << c.run_ms << ",\"rss_kb\":" << c.rss_kb
         << ",\"psi\":" << c.psi << ",\"requests\":" << c.requests
         << ",\"active_pairs\":" << c.active_pairs
         << ",\"touched_pairs\":" << c.touched_pairs
         << ",\"resident_slots\":" << c.resident_slots << '}';
    }
    os << "]}\n";
    os.close();
    if (!os) {
      std::fprintf(stderr, "cannot write --json-out file %s\n",
                   json_out.c_str());
      return 1;
    }
    std::printf("\njson report -> %s\n", json_out.c_str());
  }
  return 0;
}
