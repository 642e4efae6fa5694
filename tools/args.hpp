// Strict `--flag value` parsing shared by the command-line tools.
//
// Each tool names the flags it accepts. Anything else is a usage error
// that prints one line naming the offending argument and exits with
// status 2: an unknown flag, a flag with no value after it, a word that
// is not a flag, or a value that does not parse completely as what the
// flag needs. A script that passes a flag the tool no longer has stops
// there instead of running another configuration. A value the library
// would reject (a radius of 0, a probability above 1) is a usage error
// too: the tools check each such flag's range here, before a library
// precondition can turn it into a runtime error or an abort. So is a
// file a flag names that cannot be opened: the tools open every input
// and output file before any run.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
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

  /// num(), and a usage error unless `ok(value)`; `range` says what `ok`
  /// accepts, for the message ("--hops: '0' must be >= 1").
  template <typename T, typename Pred>
  [[nodiscard]] T num(const std::string& flag, T fallback, Pred ok,
                      const char* range) const {
    const T value = num(flag, fallback);
    if (!ok(value)) {
      usage("--" + flag + ": '" + get(flag) + "' must be " + range);
    }
    return value;
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

  /// The file `path` that `flag` names, opened for reading or writing.
  /// The tools open every file before any run, so a path that cannot
  /// be opened is a usage error naming the flag, not a failure after
  /// the run.
  [[nodiscard]] std::ifstream read_file(const std::string& flag,
                                        const std::string& path) const {
    std::ifstream in(path);
    // A directory opens as a stream but yields no bytes.
    std::error_code ec;
    if (!in || std::filesystem::is_directory(path, ec)) {
      usage(flag + ": cannot read '" + path + "'");
    }
    return in;
  }
  [[nodiscard]] std::ofstream write_file(const std::string& flag,
                                         const std::string& path) const {
    std::ofstream out(path);
    if (!out) usage(flag + ": cannot write '" + path + "'");
    return out;
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

/// Largest `--threads` value a tool accepts. Every worker above the first
/// is an OS thread the scheduler starts before any round runs, so the
/// bound is a usage error checked here, independent of the machine.
inline constexpr unsigned kMaxThreads = 256;

/// The `--threads` value (default 1; 0 = hardware concurrency).
[[nodiscard]] inline unsigned threads(const Args& args) {
  return args.num(
      "threads", 1u, [](unsigned t) { return t <= kMaxThreads; },
      "in 0..256");
}

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
  const std::size_t want = kind == "gnp" || kind == "ba" ? 2
                           : kind == "bip"               ? 3
                                                         : 1;
  if (p.size() != want) args.usage("--gen: bad spec '" + spec + "'");
  // A count must be a whole number in [lo, 2^31 - 1]; a probability
  // lies in [0, 1]. Checked before the cast, which a fraction, a NaN or
  // an out-of-range count would make meaningless.
  const auto count = [&](double x, int lo) {
    if (!(x >= lo && x <= 2147483647.0 && x == std::floor(x))) {
      args.usage("--gen " + spec + ": counts must be whole numbers >= " +
                 std::to_string(lo));
    }
    return static_cast<NodeId>(x);
  };
  const auto prob = [&](double x) {
    if (!(x >= 0.0 && x <= 1.0)) {
      args.usage("--gen " + spec + ": the probability must be in [0, 1]");
    }
    return x;
  };
  if (kind == "gnp") return gen::gnp(count(p[0], 1), prob(p[1]), seed);
  if (kind == "bip") {
    return gen::bipartite_gnp(count(p[0], 1), count(p[1], 1), prob(p[2]),
                              seed);
  }
  if (kind == "cycle") return gen::cycle(count(p[0], 3));
  if (kind == "tree") return gen::random_tree(count(p[0], 1), seed);
  if (kind == "ba") {
    const NodeId n = count(p[0], 2);
    const NodeId m = count(p[1], 1);
    if (n <= m) args.usage("--gen " + spec + ": ba needs N > M");
    return gen::barabasi_albert(n, static_cast<int>(m), seed);
  }
  args.usage("--gen: unknown generator '" + kind + "'");
}

}  // namespace dmatch::tools
