// Strict `--flag value` parsing shared by the command-line tools.
//
// Each tool names the flags it accepts. Anything else is a usage error
// that prints one line naming the offending argument and exits with
// status 2: an unknown flag, a flag with no value after it, a word that
// is not a flag, or a value that does not parse completely as what the
// flag needs. A script that passes a flag the tool no longer has stops
// there instead of running another configuration.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"

namespace dmatch::tools {

class Args {
 public:
  /// Parse argv[first..argc) as `--flag value` pairs; `flags` lists the
  /// accepted flags without their leading dashes.
  Args(const char* tool, int argc, char** argv, int first,
       std::initializer_list<std::string_view> flags)
      : tool_(tool) {
    for (int i = first; i < argc; i += 2) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) usage("unexpected argument '" + arg + "'");
      const std::string key = arg.substr(2);
      if (std::find(flags.begin(), flags.end(), key) == flags.end()) {
        usage("unknown flag " + arg);
      }
      if (i + 1 >= argc) usage(arg + " needs a value");
      values_[key] = argv[i + 1];
    }
  }

  [[nodiscard]] bool has(const std::string& flag) const {
    return values_.count(flag) != 0;
  }
  [[nodiscard]] std::string get(const std::string& flag,
                                const std::string& fallback = "") const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback : it->second;
  }
  /// The flag's value as a number of type T, or `fallback` if absent.
  template <typename T>
  [[nodiscard]] T num(const std::string& flag, T fallback) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback : parse<T>("--" + flag, it->second);
  }

  /// `text` as a number of type T; `what` names it in the usage error
  /// raised when the text is not exactly one such number.
  template <typename T>
  [[nodiscard]] T parse(const std::string& what,
                        const std::string& text) const {
    T value{};
    const char* const end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || stop != end) {
      usage(what + ": '" + text + "' is not a valid value");
    }
    return value;
  }

  /// Print "<tool>: <what>" on stderr and exit with status 2.
  [[noreturn]] void usage(const std::string& what) const {
    std::fprintf(stderr, "%s: %s\n", tool_, what.c_str());
    std::exit(2);
  }

 private:
  const char* tool_;
  std::map<std::string, std::string> values_;
};

/// The instance a `--gen` spec names: gnp:N,P | bip:NX,NY,P | cycle:N |
/// tree:N | ba:N,M, drawn with `seed`.
inline Graph generate(const Args& args, const std::string& spec,
                      std::uint64_t seed) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  std::vector<double> p;
  if (colon != std::string::npos) {
    std::stringstream ss(spec.substr(colon + 1));
    for (std::string item; std::getline(ss, item, ',');) {
      p.push_back(args.parse<double>("--gen " + spec, item));
    }
  }
  const auto node = [](double x) { return static_cast<NodeId>(x); };
  const std::size_t want = kind == "gnp" || kind == "ba" ? 2
                           : kind == "bip"               ? 3
                                                         : 1;
  if (p.size() != want) args.usage("--gen: bad spec '" + spec + "'");
  if (kind == "gnp") return gen::gnp(node(p[0]), p[1], seed);
  if (kind == "bip") {
    return gen::bipartite_gnp(node(p[0]), node(p[1]), p[2], seed);
  }
  if (kind == "cycle") return gen::cycle(node(p[0]));
  if (kind == "tree") return gen::random_tree(node(p[0]), seed);
  if (kind == "ba") {
    return gen::barabasi_albert(node(p[0]), static_cast<int>(p[1]), seed);
  }
  args.usage("--gen: unknown generator '" + kind + "'");
}

}  // namespace dmatch::tools
