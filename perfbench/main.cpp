// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke 1] [--spans-out FILE]
//
// Runs one seeded workload for a fixed number of ops (a function of S),
// checks every output, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics of a second,
// traced pass over the same ops. The metric tables below must equal
// BENCHMARK.json (perfbench/test_perfbench.py checks it). Exit code 0
// only when every check passed.
#include <charconv>
#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},  {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},     {"congest_rounds", "rounds"},
    {"ratio", "ratio"},
};

// Units `count` and `frac` mark values that repeat exactly for a given
// seed and op count; every other per-layer value is measured.
constexpr MetricDef kPerLayer[] = {
    {"graph.oracle_s", "s"},
    {"congest.net_build_s", "s"},
    {"congest.run_s", "s"},
    {"congest.shard_busy_s", "s"},
    {"congest.sched_wait_s", "s"},
    {"congest.factory_s", "s"},
    {"congest.procs_created", "count"},
    {"congest.extract_s", "s"},
    {"congest.messages", "count"},
    {"congest.total_bits", "count"},
    {"congest.msgs_per_s", "1/s"},
    {"support.allocs_per_msg", "frac"},
    {"support.alloc_bytes_per_op", "count"},
    {"proc.minor_faults_per_op", "faults"},
    {"proc.ctx_switches_per_op", "switches"},
    {"core.l1.iterations", "count"},
    {"core.l3.iterations", "count"},
    {"core.l5.iterations", "count"},
    {"core.l1.phase_s", "s"},
    {"core.l3.phase_s", "s"},
    {"core.l5.phase_s", "s"},
    {"dyn.append_s", "s"},
    {"dyn.apply_epoch_ms.rebuilt", "ms"},
    {"dyn.apply_epoch_ms.escalated", "ms"},
    {"dyn.apply_epoch_ms.plain", "ms"},
    {"dyn.alloc_bytes_per_epoch", "count"},
    {"dyn.allocs_per_epoch", "count"},
    {"proc.minor_faults_per_epoch", "faults"},
    {"dyn.active_share", "frac"},
    {"dyn.dirty_nodes", "count"},
    {"dyn.frozen_nodes", "count"},
    {"dyn.rebuild_frac", "frac"},
    {"dyn.escalated_frac", "frac"},
    {"dyn.augment_iterations", "count"},
    {"dyn.full_frac", "frac"},
    {"dyn.repair_rounds", "count"},
    {"dyn.repair_messages", "count"},
    {"dyn.certify_s", "s"},
    {"mp.engine_build_s", "s"},
    {"mp.recv_wait_s", "s"},
    {"mp.send_s", "s"},
    {"mp.frames", "count"},
    {"mp.frame_bytes", "count"},
    {"mp.compute_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_s.bench", "s"},
    {"trace.self_s.graph", "s"},
    {"trace.self_s.congest", "s"},
    {"trace.self_s.core", "s"},
    {"trace.self_s.dyn", "s"},
    {"trace.self_s.mp", "s"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke 1] [--spans-out FILE]\n"
               "workloads: static_alg3_20k serve_flap_k2_20k "
               "serve_uniform_k1_20k mp_ii_2rank_20k\n");
}

bool parse(int argc, char** argv, perfbench::RunConfig& cfg) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        cfg.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (key == "--trace") {
        cfg.trace = val == "1";
      } else if (key == "--smoke") {
        cfg.smoke = val == "1";
      } else if (key == "--spans-out") {
        cfg.spans_out = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && cfg.seconds > 0;
}

std::string number(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";  // NaN / inf
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  if (!parse(argc, argv, cfg)) {
    usage();
    return 2;
  }
  perfbench::Outcome out;
  try {
    if (cfg.workload == "static_alg3_20k") {
      out = perfbench::run_static_alg3(cfg);
    } else if (cfg.workload == "serve_flap_k2_20k") {
      out = perfbench::run_serve(cfg, true);
    } else if (cfg.workload == "serve_uniform_k1_20k") {
      out = perfbench::run_serve(cfg, false);
    } else if (cfg.workload == "mp_ii_2rank_20k") {
      out = perfbench::run_mp_ii(cfg);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed outside any op: %s\n",
                 cfg.workload.c_str(), e.what());
    return 1;
  }

  std::string metrics;
  const auto emit = [&](const MetricDef& m, bool required) {
    const auto it = out.values.find(m.name);
    if (it == out.values.end() && required) {
      out.problem(std::string("metric not measured: ") + m.name);
    }
    const double v = it == out.values.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
    std::fprintf(stderr, "  %-30s %16s %s\n", m.name, number(v).c_str(),
                 m.unit);
  };
  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d ops=%llu\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.trace ? 1 : 0,
               static_cast<unsigned long long>(out.attempted));
  // Per-layer metrics of a layer a workload does not go through read 0.
  if (cfg.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, true);
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = out.problems.empty() && out.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
