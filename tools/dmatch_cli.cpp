// Command-line front end: run any of the library's matchers on an
// edge-list file or a generated instance.
//
// Usage:
//   dmatch_cli <command> [--key value ...]
//
// Commands:
//   maximal        Israeli-Itai maximal matching (1/2-MCM baseline)
//   mcm-bipartite  Theorem 3.10 (requires a bipartite input)
//   mcm-general    Theorem 3.15
//   mwm            Theorem 4.5 ((1/2 - eps)-MWM)
//   mwm-local      Section 4 remark ((1 - eps)-MWM, LOCAL model)
//   exact          centralized optimum (Hopcroft-Karp / Blossom / Hungarian)
//   generate       emit a generated instance as an edge list
//
// Options:
//   --input FILE     read the graph from FILE ("-" = stdin)
//   --gen SPEC       generate instead: gnp:N,P | bip:NX,NY,P | cycle:N |
//                    tree:N | ba:N,M  (combine with --weights LO,HI)
//   --weights LO,HI  overlay uniform random weights
//   --seed S         randomness seed (default 1)
//   --k K            approximation parameter for mcm-* (default 5 / 3)
//   --epsilon E      approximation parameter for mwm* (default 0.1)
//   --dot FILE       also write a Graphviz rendering with the matching
//   --threads N      worker count for the simulated networks (0 =
//                    hardware concurrency, default 1, at most 256;
//                    results are bit-identical for any value)
//
// Fault injection (maximal, mcm-bipartite, mcm-general, mwm):
//   --fault-drop P     per-message drop probability
//   --fault-dup P      per-message duplication probability
//   --fault-delay P    per-message delay probability
//   --fault-reorder P  per-round inbox reordering probability
//   --fault-crash P    per-node crash probability
//   --fault-restart P  probability a crashed node restarts
//   --fault-seed S     seed of the fault stream (default 1)
//   --delay-model M    distribution of delay magnitudes: uniform | pareto
//                      (heavy-tailed; default uniform)
//   --max-delay D      largest extra delay in rounds (default 3)
//   --pareto-alpha A   Pareto shape for --delay-model pareto (default 1.1;
//                      smaller = heavier tail)
// With any fault option the run degrades gracefully and a JSON
// degradation report line is printed after the matching.
//
// Observability (maximal, mcm-bipartite, mcm-general, mwm):
//   --trace-out FILE    write a Chrome trace_event JSON to FILE and a
//                       structured event log to FILE.jsonl
//   --metrics-out FILE  write the merged metrics registry as JSON
//   --trace-cap N       bounded-memory tracing: keep only the newest N
//                       events across the sink (0 = unbounded; retained
//                       set identical for every thread count)
//   --profile-links K   print the top-K hot links + per-round curves as
//                       a JSON congestion report on stdout
//   --profile-sketch W  bounded-memory link profiling: count-min sketch
//                       of width W per shard instead of exact per-slot
//                       totals (0 = exact, default)
//   --arq-window W      resilient-layer ARQ window (1..16; fault mode)
//   --fec-group K       XOR-parity FEC over the oldest K in-flight frames
//                       (0 = off, default; 1..16; fault mode)
//   --spec-retx M       speculative retransmit mode: 0 off (default),
//                       1 SACK-hole early retransmit, 2 also eager tail
//                       resend on idle rounds (fault mode)
//   --rto-var-mult K    RTO deviation multiplier (srtt + K*rttvar);
//                       default 2, or 4 when --delay-model pareto (the
//                       re-derived heavy-tail value)
//
// Exit code: 0 on success, 1 on a runtime error, 2 on usage errors (an
// unknown command or flag, a flag without a value, a malformed value, no
// --input or --gen, a file that cannot be opened, exact on a weighted
// non-bipartite graph). Every file is opened before any run.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

#include "args.hpp"
#include "core/api.hpp"
#include "graph/blossom.hpp"
#include "graph/hopcroft_karp.hpp"
#include "graph/hungarian.hpp"
#include "graph/io.hpp"

using namespace dmatch;

namespace {

using tools::Args;

constexpr std::string_view kCommands[] = {"maximal", "mcm-bipartite",
                                          "mcm-general", "mwm", "mwm-local",
                                          "exact", "generate"};

/// Print the one usage line on stderr and exit with status 2.
[[noreturn]] void usage() {
  std::cerr << "usage: dmatch_cli <maximal|mcm-bipartite|mcm-general|mwm|"
               "mwm-local|exact|generate> (--input FILE | --gen SPEC) "
               "[--flag value ...] (see tools/dmatch_cli.cpp)\n";
  std::exit(2);
}

/// The files the flags name, all opened before any run (see
/// Args::read_file). `input` stays closed for --gen and for --input -
/// (stdin); the outputs stay closed unless their flag is given.
struct Files {
  std::ifstream input;
  std::ofstream dot, trace, trace_jsonl, metrics;

  Files(const Args& args, bool outputs) {
    if (!args.has("gen")) {
      const std::string path = args.get("input");
      if (path.empty()) usage();
      if (path != "-") input = args.read_file("--input", path);
    }
    if (!outputs) return;
    if (const std::string path = args.get("dot"); !path.empty()) {
      dot = args.write_file("--dot", path);
    }
    if (const std::string path = args.get("trace-out"); !path.empty()) {
      trace = args.write_file("--trace-out", path);
      trace_jsonl = args.write_file("--trace-out", path + ".jsonl");
    }
    if (const std::string path = args.get("metrics-out"); !path.empty()) {
      metrics = args.write_file("--metrics-out", path);
    }
  }
};

Graph load_graph(const Args& args, Files& files) {
  const auto seed = args.num<std::uint64_t>("seed", 1);
  Graph g;
  if (args.has("gen")) {
    g = tools::generate(args, args.get("gen"), seed);
  } else if (files.input.is_open()) {
    g = read_edge_list(files.input);
  } else {
    g = read_edge_list(std::cin);
  }
  if (const std::string w = args.get("weights"); !w.empty()) {
    const auto comma = w.find(',');
    if (comma == std::string::npos) args.usage("--weights: expected LO,HI");
    g = gen::with_uniform_weights(
        g, args.parse<double>("--weights", w.substr(0, comma)),
        args.parse<double>("--weights", w.substr(comma + 1)), seed + 1);
  }
  return g;
}

congest::FaultPlan parse_fault_plan(const Args& args) {
  congest::FaultPlan plan;
  plan.drop_prob = args.num("fault-drop", 0.0);
  plan.duplicate_prob = args.num("fault-dup", 0.0);
  plan.delay_prob = args.num("fault-delay", 0.0);
  plan.reorder_prob = args.num("fault-reorder", 0.0);
  plan.crash_prob = args.num("fault-crash", 0.0);
  plan.restart_prob = args.num("fault-restart", 0.0);
  plan.seed = args.num<std::uint64_t>("fault-seed", 1);
  plan.max_delay = args.num("max-delay", 3);
  plan.pareto_alpha = args.num("pareto-alpha", 1.1);
  const std::string model = args.get("delay-model", "uniform");
  if (model == "pareto") {
    plan.delay_model = congest::DelayModel::kPareto;
  } else if (model != "uniform") {
    args.usage("--delay-model: expected uniform | pareto");
  }
  return plan;
}

void report_degradation(const congest::DegradationReport& d) {
  std::cout << "degradation: {\"degraded\": " << (d.degraded() ? "true" : "false")
            << ", \"budget_exhausted\": "
            << (d.budget_exhausted ? "true" : "false")
            << ", \"contract_tripped\": "
            << (d.contract_tripped ? "true" : "false")
            << ", \"crashed_nodes\": " << d.crashed_nodes
            << ", \"torn_registers_healed\": " << d.torn_registers_healed
            << ", \"dead_registers_healed\": " << d.dead_registers_healed
            << "}\n";
}

void report(const Graph& g, const Matching& m, const congest::RunStats* stats,
            const Args& args, Files& files) {
  std::cout << "graph: n=" << g.node_count() << " m=" << g.edge_count()
            << "\nmatching: size=" << m.size() << " weight=" << m.weight(g)
            << "\n";
  if (stats != nullptr) {
    std::cout << "cost: rounds=" << stats->rounds
              << " messages=" << stats->messages
              << " total_bits=" << stats->total_bits
              << " max_message_bits=" << stats->max_message_bits << "\n";
  }
  std::cout << "edges:";
  for (EdgeId e : m.edges(g)) {
    std::cout << ' ' << g.edge(e).u << '-' << g.edge(e).v;
  }
  std::cout << "\n";
  if (files.dot.is_open()) {
    files.dot << to_dot(g, &m);
    std::cout << "wrote " << args.get("dot") << "\n";
  }
}

int run(const std::string& command, const Args& args) {
  const auto seed = args.num<std::uint64_t>("seed", 1);
  // Checked before any Network (and its scheduler's threads) exists.
  const unsigned num_threads = tools::threads(args);
  Files files(args, command != "generate");

  if (command == "generate") {
    const Graph g = load_graph(args, files);
    write_edge_list(std::cout, g);
    return 0;
  }

  const Graph g = load_graph(args, files);
  const congest::FaultPlan fault = parse_fault_plan(args);
  if (fault.any() &&
      (command == "mwm-local" || command == "exact")) {
    std::cerr << "fault injection is not supported for " << command
              << "\n";
    return 2;
  }
  // Observability sinks (shared across every network the run creates).
  const std::string trace_out = args.get("trace-out");
  const std::string metrics_out = args.get("metrics-out");
  const auto profile_links = args.num<std::size_t>("profile-links", 0);
  std::unique_ptr<obs::Observer> observer;
  if (!trace_out.empty() || !metrics_out.empty() || profile_links > 0) {
    obs::ObsConfig cfg;
    cfg.trace = !trace_out.empty();
    cfg.metrics = true;
    cfg.profile_links = true;
    if (profile_links > 0) cfg.top_k = profile_links;
    cfg.trace_capacity = args.num<std::size_t>("trace-cap", 0);
    cfg.profile_sketch = args.num<std::size_t>("profile-sketch", 0);
    observer = std::make_unique<obs::Observer>(cfg);
  }

  congest::ResilientOptions arq;
  arq.window = args.num(
      "arq-window", arq.window, [](int w) { return w >= 1; }, ">= 1");
  arq.fec_group = args.num(
      "fec-group", 0, [](int f) { return f >= 0 && f <= 16; }, "in 0..16");
  arq.spec_retx = args.num(
      "spec-retx", 0, [](int r) { return r >= 0 && r <= 2; }, "in 0..2");
  // The heavy-tailed delay model gets the re-derived RTO deviation
  // multiplier by default (see ResilientOptions::rto_var_mult);
  // --rto-var-mult overrides either way.
  const int default_mult =
      fault.delay_model == congest::DelayModel::kPareto ? 4
                                                        : arq.rto_var_mult;
  arq.rto_var_mult = args.num(
      "rto-var-mult", default_mult, [](int v) { return v >= 1; }, ">= 1");

  congest::Network::Options net_options;
  net_options.num_threads = num_threads;
  net_options.fault = fault;
  net_options.observer = observer.get();
  if (command == "maximal") {
    IsraeliItaiOptions options;
    options.arq = arq;
    const auto result = maximal_matching(g, seed, 48, net_options, options);
    report(g, result.matching, &result.stats, args, files);
    if (fault.any()) report_degradation(result.degradation);
  } else if (command == "mcm-bipartite") {
    BipartiteMcmOptions options;
    options.k = args.num("k", 5, [](int k) { return k >= 1; }, ">= 1");
    options.phase.arq = arq;
    const auto result = approx_mcm_bipartite(g, seed, options, 48, net_options);
    report(g, result.matching, &result.stats, args, files);
    if (fault.any()) report_degradation(result.degradation);
  } else if (command == "mcm-general") {
    GeneralMcmOptions options;
    // The paper's iteration budget overflows an int beyond k = 12.
    options.k = args.num(
        "k", 3, [](int k) { return k >= 2 && k <= 12; }, "in 2..12");
    options.seed = seed;
    options.num_threads = num_threads;
    options.fault = fault;
    options.arq = arq;
    options.observer = observer.get();
    const auto result = approx_mcm_general(g, options);
    report(g, result.matching, &result.stats, args, files);
    if (fault.any()) report_degradation(result.degradation);
  } else if (command == "mwm") {
    HalfMwmOptions options;
    options.epsilon = args.num(
        "epsilon", 0.1, [](double e) { return e > 0 && e < 0.5; },
        "in (0, 0.5)");
    options.seed = seed;
    options.num_threads = num_threads;
    options.fault = fault;
    options.arq = arq;
    options.observer = observer.get();
    const auto result = approx_mwm(g, options);
    report(g, result.matching, &result.stats, args, files);
    if (fault.any()) report_degradation(result.degradation);
  } else if (command == "mwm-local") {
    LocalMwmOptions options;
    options.epsilon = args.num(
        "epsilon", 0.34, [](double e) { return e > 0 && e <= 1; },
        "in (0, 1]");
    options.seed = seed;
    const auto result = local_one_minus_eps_mwm(g, options);
    report(g, result.matching, &result.stats, args, files);
  } else if (command == "exact") {
    const auto side = g.bipartition();
    bool weighted = false;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      weighted = weighted || g.weight(e) != 1.0;
    }
    Matching m;
    if (side.has_value() && weighted) {
      m = hungarian_mwm(g, *side);
    } else if (side.has_value()) {
      m = hopcroft_karp(g, *side);
    } else {
      // Exact general MWM is not provided.
      if (weighted) {
        args.usage(std::string(args.has("weights") ? "--weights" : "--input") +
                   ": exact on weighted edges needs a bipartite graph");
      }
      m = blossom_mcm(g);
    }
    report(g, m, nullptr, args, files);
  }

  if (observer != nullptr) {
    if (!trace_out.empty()) {
      observer->trace_sink().write_chrome_json(files.trace);
      observer->trace_sink().write_jsonl(files.trace_jsonl);
      std::cout << "wrote " << trace_out << " and " << trace_out << ".jsonl ("
                << observer->trace_sink().event_count() << " events)\n";
    }
    if (!metrics_out.empty()) {
      observer->metrics().write_json(files.metrics);
      std::cout << "wrote " << metrics_out << "\n";
    }
    if (profile_links > 0) {
      std::cout << "congestion: ";
      observer->profiler().write_json(std::cout, profile_links);
      std::cout << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::find(std::begin(kCommands), std::end(kCommands),
                            std::string_view(argv[1])) == std::end(kCommands)) {
    usage();  // also `--help`
  }
  const Args args(
      "dmatch_cli", argc, argv, 2,
      {"input",         "gen",           "weights",      "seed",
       "k",             "epsilon",       "dot",          "threads",
       "fault-drop",    "fault-dup",     "fault-delay",  "fault-reorder",
       "fault-crash",   "fault-restart", "fault-seed",   "delay-model",
       "max-delay",     "pareto-alpha",  "trace-out",    "metrics-out",
       "trace-cap",     "profile-links", "profile-sketch", "arq-window",
       "fec-group",     "spec-retx",     "rto-var-mult"});
  try {
    return run(argv[1], args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
