// Minimal command-line flag parsing for the bench and example binaries:
// `--name=value` or `--name value` arguments, falling back to a default. The
// command line is a program's only input: no flag is read from the
// environment. No program takes a positional argument, so any other
// argument is a stray one that unknown() reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qsa::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// Raw string lookup: the command line's first `--name` value, else none.
  /// A bare `--name` has no value to read: it prints the flag to stderr and
  /// exits 2 (every lookup but get_bool reads through here).
  [[nodiscard]] std::optional<std::string> raw(std::string_view name) const;

  [[nodiscard]] std::string get(std::string_view name,
                                std::string_view def) const;
  /// Numeric lookups. A value that is not wholly a number of the type (text
  /// after the digits, overflow, or for get_double a non-finite value)
  /// prints the flag and its value to stderr and exits with status 2.
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t def) const;
  [[nodiscard]] double get_double(std::string_view name, double def) const;
  /// Boolean lookup: exactly 1/true/yes/on or 0/false/no/off, or a bare
  /// `--flag`, which is true. Any other value exits 2 like a bad number.
  [[nodiscard]] bool get_bool(std::string_view name, bool def) const;

  /// True if --help was passed.
  [[nodiscard]] bool help() const { return help_; }

  /// Command-line arguments no raw()/get*() lookup has consulted so far —
  /// typos that would otherwise silently run the wrong experiment: the
  /// unconsulted `--flags` by name (first-occurrence order, deduplicated),
  /// then every argument that is not a `--flag` (`-seed=3`, `extra`) as
  /// typed. Call after the last lookup.
  [[nodiscard]] std::vector<std::string> unknown() const;

  /// Every flag name the program has consulted (its vocabulary), sorted.
  [[nodiscard]] std::vector<std::string> known() const;

 private:
  friend void reject_unknown_flags(const Flags& flags,
                                   std::string_view program);

  /// The first command-line entry for `name`, marked consulted; null when
  /// the command line lacks it. A bare `--name` holds no value.
  [[nodiscard]] const std::optional<std::string>* cli(
      std::string_view name) const;

  std::vector<std::pair<std::string, std::optional<std::string>>> kv_;
  std::vector<std::string> strays_;  ///< arguments that are not --flags
  // Names consulted via raw(); mutable because lookups are logically const.
  mutable std::vector<std::string> queried_;
  bool help_ = false;
};

/// Standard end of flag parsing for the CLI binaries, called after the last
/// get*() lookup. With `--help`, print the usage line and the recognized
/// vocabulary to stdout and exit 0, so a program runs nothing when asked
/// for help. Otherwise, if `flags` holds a `--flag` the program never
/// consulted or a stray argument, print the offenders and the vocabulary to
/// stderr and exit with status 2.
void reject_unknown_flags(const Flags& flags, std::string_view program);

/// Integer flag lookup bounded to [lo, hi]: `--name=<int>`; absent uses
/// `def`. A value outside the range, or one that is not wholly an integer,
/// prints the range to stderr and exits 2, like an inadmissible get_choice()
/// value — it never wraps or clamps into a different experiment.
[[nodiscard]] std::int64_t get_int_in(const Flags& flags,
                                      std::string_view name, std::int64_t def,
                                      std::int64_t lo, std::int64_t hi,
                                      std::string_view program);

/// Bounds of a time-valued flag: at most 10^9 minutes (6·10^13 ms, about
/// 1900 years) either side of zero. Every simulated time a run derives from
/// such a knob then stays far inside the neighbor tables' |deadline| < 2^53
/// ms precondition (~9·10^15 ms), and converting it to sim::SimTime is
/// defined. The sign is left to each program's own rules
/// (GridConfig::validate()).
inline constexpr double kMaxFlagMinutes = 1e9;
inline constexpr double kMaxFlagSeconds = 60 * kMaxFlagMinutes;

/// Floating-point flag lookup bounded to [lo, hi]: `--name=<number>`;
/// absent uses `def`. A value outside the range prints the flag and the
/// range to stderr and exits 2, like get_int_in(); one that is not wholly a
/// finite number exits 2 as get_double() does.
[[nodiscard]] double get_double_in(const Flags& flags, std::string_view name,
                                   double def, double lo, double hi,
                                   std::string_view program);

/// One admissible value of an enum-valued flag.
template <typename T>
struct Choice {
  std::string_view name;
  T value;
};

/// Shared teeth behind get_choice(): report `value` as inadmissible for
/// `--name`, list the choices, and exit with status 2 (the unknown-flag
/// status — a value typo is as fatal as a flag typo).
[[noreturn]] void reject_unknown_choice(std::string_view program,
                                        std::string_view name,
                                        std::string_view value,
                                        const std::string_view* choices,
                                        std::size_t count);

/// Enum-valued flag lookup: `--name=<choice>` matched against `choices` by
/// exact name; absent uses `def`. An inadmissible value prints the choice
/// list to stderr and exits 2 — it never falls back to the default, so a
/// typo cannot silently run the wrong experiment.
template <typename T, std::size_t N>
[[nodiscard]] T get_choice(const Flags& flags, std::string_view name,
                           const Choice<T> (&choices)[N], T def,
                           std::string_view program) {
  const auto v = flags.raw(name);
  if (!v) return def;
  for (const Choice<T>& c : choices) {
    if (*v == c.name) return c.value;
  }
  std::string_view names[N];
  for (std::size_t i = 0; i < N; ++i) names[i] = choices[i].name;
  reject_unknown_choice(program, name, *v, names, N);
}

}  // namespace qsa::util
