// Shared helpers for the experiment binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace dmatch::bench {

/// Standard experiment banner: ties a binary to its EXPERIMENTS.md entry.
inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "### " << id << ": " << claim << "\n\n";
}

inline void footer(const std::string& reading) {
  std::cout << "\n" << reading << "\n\n";
}

/// First line of `cmd`'s stdout, "" on any failure.
inline std::string shell_line(const std::string& cmd) {
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  char buf[256] = {};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// JSON object describing the machine a bench ran on. Every BENCH_*.json
/// embeds one as its "machine" key so a result file is interpretable
/// without knowing which box produced it (timing numbers from a 1-core CI
/// container and a 32-core workstation are not comparable; the
/// determinism columns are).
inline std::string machine_context_json() {
  std::ostringstream o;
  o << "{\"hardware_concurrency\":" << std::thread::hardware_concurrency()
    << "}";
  return o.str();
}

/// Warm-up + min-of-N timing: run `body` `warmup` times untimed (faults in
/// mailboxes, page tables, thread pools), then `reps` measured repetitions
/// and return the minimum wall-clock seconds. The minimum is the standard
/// robust estimator for "how fast can this go" — it rejects one-sided OS
/// scheduling noise that inflates means and medians on shared machines.
template <typename F>
double min_seconds(F&& body, int reps = 5, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) body();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (s < best) best = s;
  }
  return best;
}

/// Machine-readable result file: collects one JSON object per measured
/// cell and writes `BENCH_<name>.json` at the repo root (where
/// tools/regen_experiments.py picks it up), schema
/// `{"bench": ..., "commit": ..., "cells": [...]}`. The commit is read
/// from git at run time, suffixed `-dirty` when tracked files other than
/// the BENCH_*.json results differ from it; if the binary runs outside
/// the work tree the file lands in the current directory with an empty
/// commit instead.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// Add one cell; `json_object` must be a complete JSON object
  /// (typically the same text the bench prints as a JSON line).
  void cell(const std::string& json_object) { cells_.push_back(json_object); }

  /// Write the file; returns the path written ("" on failure).
  std::string write() const {
    const std::string root = shell_line("git rev-parse --show-toplevel 2>/dev/null");
    std::string commit = shell_line("git rev-parse --short HEAD 2>/dev/null");
    const std::string changed = shell_line(
        "git -C '" + root + "' status --porcelain --untracked-files=no -- " +
        "':(exclude)BENCH_*.json' 2>/dev/null");
    if (!commit.empty() && !changed.empty()) commit += "-dirty";
    const std::string path =
        (root.empty() ? std::string{} : root + "/") + "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out.good()) return "";
    out << "{\"bench\": \"" << name_ << "\", \"commit\": \"" << commit
        << "\",\n \"machine\": " << machine_context_json()
        << ",\n \"cells\": [\n";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      out << "  " << cells_[i] << (i + 1 < cells_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return out.good() ? path : "";
  }

 private:
  std::string name_;
  std::vector<std::string> cells_;
};

}  // namespace dmatch::bench
