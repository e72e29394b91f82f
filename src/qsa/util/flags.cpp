#include "qsa/util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

namespace qsa::util {
namespace {

/// Parses all of `text` as a T; false on trailing text or overflow.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// A numeric or boolean flag whose value is not wholly a `kind` prints the
/// flag and value and exits 2, like get_int_in() and get_choice(): it never
/// runs the prefix it could parse, zero, or false.
[[noreturn]] void reject_value(std::string_view name, const std::string& value,
                                const char* kind) {
  std::fprintf(stderr, "--%.*s=%s is not %s\n",
               static_cast<int>(name.size()), name.data(), value.c_str(),
               kind);
  std::exit(2);
}

/// The usage line and the flags the program consulted (its vocabulary).
void print_usage(std::FILE* out, const Flags& flags, std::string_view program) {
  std::fprintf(out, "usage: %.*s [--flag=value ...]\nrecognized flags:",
               static_cast<int>(program.size()), program.data());
  for (const auto& f : flags.known()) std::fprintf(out, " --%s", f.c_str());
  std::fprintf(out, "\n");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.starts_with("--")) {
      arg.remove_prefix(2);
      if (auto eq = arg.find('='); eq != std::string_view::npos) {
        kv_.emplace_back(std::string(arg.substr(0, eq)),
                         std::string(arg.substr(eq + 1)));
      } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        kv_.emplace_back(std::string(arg), std::string(argv[++i]));
      } else {
        kv_.emplace_back(std::string(arg), std::nullopt);
      }
    } else {
      strays_.emplace_back(arg);
    }
  }
}

const std::optional<std::string>* Flags::cli(std::string_view name) const {
  if (std::find(queried_.begin(), queried_.end(), name) == queried_.end()) {
    queried_.emplace_back(name);
  }
  for (const auto& [k, v] : kv_) {
    if (k == name) return &v;
  }
  return nullptr;
}

std::optional<std::string> Flags::raw(std::string_view name) const {
  if (const std::optional<std::string>* v = cli(name)) {
    if (*v) return *v;
    // A bare flag is a boolean, read by get_bool() alone: a file name, a
    // number or a choice needs its value spelled out.
    std::fprintf(stderr, "--%.*s needs a value: --%.*s=<value>\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<int>(name.size()), name.data());
    std::exit(2);
  }
  return std::nullopt;
}

std::vector<std::string> Flags::unknown() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (std::find(queried_.begin(), queried_.end(), k) != queried_.end()) {
      continue;
    }
    if (std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
  }
  out.insert(out.end(), strays_.begin(), strays_.end());
  return out;
}

std::vector<std::string> Flags::known() const {
  std::vector<std::string> out = queried_;
  std::sort(out.begin(), out.end());
  return out;
}

void reject_unknown_flags(const Flags& flags, std::string_view program) {
  if (flags.help()) {
    print_usage(stdout, flags, program);
    std::exit(0);
  }
  const std::vector<std::string> bad = flags.unknown();
  if (bad.empty()) return;
  std::fprintf(stderr, "%.*s: unknown flag", static_cast<int>(program.size()),
               program.data());
  // unknown() lists the unconsulted flags by name, then the strays as typed.
  const std::size_t first_stray = bad.size() - flags.strays_.size();
  for (std::size_t i = 0; i < bad.size(); ++i) {
    std::fprintf(stderr, i < first_stray ? " --%s" : " %s", bad[i].c_str());
  }
  std::fprintf(stderr, "\n");
  print_usage(stderr, flags, program);
  std::fprintf(stderr, "(see --help)\n");
  std::exit(2);
}

void reject_unknown_choice(std::string_view program, std::string_view name,
                           std::string_view value,
                           const std::string_view* choices,
                           std::size_t count) {
  std::fprintf(stderr, "%.*s: unknown value '%.*s' for --%.*s\nusage: --%.*s=",
               static_cast<int>(program.size()), program.data(),
               static_cast<int>(value.size()), value.data(),
               static_cast<int>(name.size()), name.data(),
               static_cast<int>(name.size()), name.data());
  for (std::size_t i = 0; i < count; ++i) {
    std::fprintf(stderr, "%s%.*s", i == 0 ? "" : "|",
                 static_cast<int>(choices[i].size()), choices[i].data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::int64_t get_int_in(const Flags& flags, std::string_view name,
                        std::int64_t def, std::int64_t lo, std::int64_t hi,
                        std::string_view program) {
  const std::optional<std::string> value = flags.raw(name);
  std::int64_t v = def;
  if ((!value || parse_whole(*value, v)) && v >= lo && v <= hi) return v;
  const std::string text = value.value_or(std::to_string(v));
  std::fprintf(stderr,
               "%.*s: --%.*s=%s is out of range\n"
               "usage: --%.*s=<%lld..%lld>\n",
               static_cast<int>(program.size()), program.data(),
               static_cast<int>(name.size()), name.data(), text.c_str(),
               static_cast<int>(name.size()), name.data(),
               static_cast<long long>(lo), static_cast<long long>(hi));
  std::exit(2);
}

double get_double_in(const Flags& flags, std::string_view name, double def,
                     double lo, double hi, std::string_view program) {
  const double v = flags.get_double(name, def);
  if (v >= lo && v <= hi) return v;
  const std::string text = flags.raw(name).value_or(std::to_string(v));
  std::fprintf(stderr,
               "%.*s: --%.*s=%s is out of range\n"
               "usage: --%.*s=<%g..%g>\n",
               static_cast<int>(program.size()), program.data(),
               static_cast<int>(name.size()), name.data(), text.c_str(),
               static_cast<int>(name.size()), name.data(), lo, hi);
  std::exit(2);
}

std::string Flags::get(std::string_view name, std::string_view def) const {
  auto v = raw(name);
  return v ? *v : std::string(def);
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t def) const {
  auto v = raw(name);
  if (!v) return def;
  std::int64_t out = 0;
  if (!parse_whole(*v, out)) reject_value(name, *v, "a 64-bit integer");
  return out;
}

double Flags::get_double(std::string_view name, double def) const {
  auto v = raw(name);
  if (!v) return def;
  double out = 0;
  if (!parse_whole(*v, out) || !std::isfinite(out)) {
    reject_value(name, *v, "a finite number");
  }
  return out;
}

bool Flags::get_bool(std::string_view name, bool def) const {
  if (const std::optional<std::string>* entry = cli(name); entry && !*entry) {
    return true;  // a bare --flag
  }
  auto v = raw(name);
  if (!v) return def;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  reject_value(name, *v, "a boolean");
}

}  // namespace qsa::util
