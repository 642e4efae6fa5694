// static_alg3_20k: Algorithm 3 (Theorem 3.10), k = 3, on a bipartite
// G(n = 2e4, average degree 4), solved by a 2-worker round engine.
//
// One op builds a Network, runs bipartite_mcm (which extracts the
// matching) and drops the Network. The round engine dominates this
// workload, so it is where a faster message path or barrier shows.
#include <cstdio>
#include <memory>
#include <optional>

#include "core/bipartite_mcm.hpp"
#include "core/verify.hpp"
#include "graph/augmenting.hpp"
#include "graph/generators.hpp"
#include "graph/hopcroft_karp.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using dmatch::Graph;
using dmatch::Matching;
using dmatch::NodeId;
using dmatch::congest::Network;
using dmatch::congest::RunStats;

constexpr int kK = 3;
// Two workers put the dispatch barrier on the measured path. On the
// shared host they also cut the run-to-run spread of a one-worker
// engine by more than half: its single thread takes the full slowdown
// of the CPU it runs on while another tenant loads that core.
constexpr unsigned kThreads = 2;
constexpr double kAverageDegree = 4.0;
// An op takes 0.15-0.2 s. After one untimed warm-up solve, an untraced
// run makes kReplays passes over its ops: the host slows solves by up
// to 1.7x for stretches of a second or more, and an op's median run
// keeps such stretches out of the result.
constexpr double kOpsPerSecond = 5.0 / 3;
constexpr int kReplays = 3;
constexpr int kSetupReps = 31;
constexpr const char* kPhaseSpan[] = {"core.phase.l1", "core.phase.l3",
                                      "core.phase.l5"};

struct Input {
  Graph g;
  std::vector<std::uint8_t> side;
};

Input build_input(NodeId n, std::uint64_t seed) {
  const NodeId nx = n / 2;
  const NodeId ny = n - nx;
  Input in;
  in.g = dmatch::gen::bipartite_gnp(nx, ny, kAverageDegree / ny, seed);
  in.side.assign(static_cast<std::size_t>(n), 0);
  for (NodeId v = nx; v < n; ++v) in.side[static_cast<std::size_t>(v)] = 1;
  return in;
}

Network::Options engine_options(bool profile) {
  Network::Options o;
  o.num_threads = kThreads;
  o.sched.profile = profile;
  return o;
}

struct Solved {
  Matching matching;
  RunStats stats;
  int iterations = 0;
};

Solved solve(const Input& in, std::uint64_t seed) {
  Network net(in.g, dmatch::congest::Model::kCongest, seed, 48,
              engine_options(false));
  dmatch::BipartiteMcmOptions bo;
  bo.k = kK;
  dmatch::BipartiteMcmResult r = dmatch::bipartite_mcm(net, in.side, bo);
  return {std::move(r.matching), std::move(r.stats), r.iterations};
}

/// What the traced solve measures besides its spans.
struct Layers {
  double shard_busy_s = 0;
  std::uint64_t procs_created = 0;
  std::uint64_t iterations[kK] = {};
};

/// bipartite_mcm's fault-free adaptive phase loop composed from its
/// public pieces, with a span around every call into a layer.
Solved solve_traced(const Input& in, std::uint64_t seed, Tracer& tr,
                    Layers& layers) {
  const Graph& g = in.g;
  const auto n = static_cast<std::size_t>(g.node_count());
  Solved out;
  std::unique_ptr<Network> net;
  {
    const Span s(tr, "congest.net_build");
    net = std::make_unique<Network>(g, dmatch::congest::Model::kCongest, seed,
                                    48, engine_options(true));
  }
  for (int phase = 0; phase < kK; ++phase) {
    const int ell = 2 * phase + 1;
    const Span ps(tr, kPhaseSpan[phase]);
    for (std::size_t i = 0; i < n + 2; ++i) {
      Matching m;
      {
        const Span s(tr, "congest.extract");
        m = net->extract_matching();
      }
      std::optional<int> shortest;
      {
        const Span s(tr, "graph.oracle");
        shortest =
            dmatch::bipartite_shortest_augmenting_path_length(g, in.side, m);
      }
      if (!shortest.has_value() || *shortest > ell) break;
      {
        const Span s(tr, "congest.run");
        FactoryProbe probe;
        out.stats.merge(net->run(
            probed(dmatch::augment_iteration_factory(in.side, ell), probe, n),
            3 * ell + 4));
        tr.record("congest.factory", probe.first_ns, probe.last_ns);
        layers.procs_created += probe.created;
      }
      for (const std::uint64_t ns : net->scheduler().task_service_ns()) {
        layers.shard_busy_s += static_cast<double>(ns) * 1e-9;
      }
      ++out.iterations;
      ++layers.iterations[phase];
    }
  }
  {
    const Span s(tr, "congest.extract");
    out.matching = net->extract_matching();
  }
  {
    const Span s(tr, "congest.net_free");
    net.reset();
  }
  return out;
}

/// Empty when `s` is a valid matching at or above the 1 - 1/k floor.
std::string check(const Input& in, const Solved& s, std::size_t optimum) {
  const dmatch::MatchingInvariantReport rep =
      dmatch::verify_matching_invariants(in.g, s.matching);
  if (!rep.ok()) return "invalid matching: " + rep.summary();
  if (s.matching.size() * kK < optimum * (kK - 1)) {
    return "matching below the 1 - 1/k floor";
  }
  if (!s.stats.completed) return "a run exhausted its round budget";
  return {};
}

}  // namespace

Outcome run_static_alg3(const RunConfig& cfg) {
  Outcome out;
  const NodeId n = cfg.smoke ? 2000 : 20000;
  const std::size_t ops = op_count(cfg, kOpsPerSecond, 3);
  out.attempted = ops;

  Input in;
  const std::uint64_t graph_seed = derive_seed(cfg.seed, 1);
  const double setup_s =
      median_seconds(kSetupReps, [&] { in = build_input(n, graph_seed); });
  const std::size_t optimum = dmatch::hopcroft_karp(in.g, in.side).size();

  // Warm-up: the first solve of a process grows the heap.
  try {
    (void)solve(in, derive_seed(cfg.seed, 5));
  } catch (const std::exception& e) {
    out.problem(std::string("warm-up solve threw: ") + e.what());
  }
  // Untraced passes; the traced mode needs one, for reference outputs.
  std::vector<std::optional<Solved>> ref(ops);
  const std::vector<double> lat_s = replayed_latencies(
      ops, cfg.trace ? 1 : kReplays, [&](std::size_t i, int pass) -> double {
        const std::string op = "op " + std::to_string(i);
        std::optional<Solved> s;
        const std::int64_t t0 = now_ns();
        try {
          s = solve(in, derive_seed(cfg.seed, 2, i));
        } catch (const std::exception& e) {
          const std::string why = op + " threw: " + e.what();
          pass == 0 ? out.fail_op(why) : out.problem(why);
          return -1;
        }
        const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
        std::fprintf(stderr, "  %s pass %d: %.1f ms, %llu rounds\n",
                     op.c_str(), pass, secs * 1e3,
                     static_cast<unsigned long long>(s->stats.rounds));
        if (pass == 0) {
          const std::string bad = check(in, *s, optimum);
          if (!bad.empty()) out.fail_op(op + ": " + bad);
          ref[i] = std::move(s);
        } else if (!ref[i] || !(s->matching == ref[i]->matching) ||
                   !same_run_stats(s->stats, ref[i]->stats)) {
          out.problem(op + " did not repeat its first pass");
        }
        return secs;
      });

  double rounds = 0, ratio = 0, solved = 0;
  for (const auto& s : ref) {
    if (!s) continue;
    rounds += static_cast<double>(s->stats.rounds);
    ratio += static_cast<double>(s->matching.size()) /
             static_cast<double>(std::max<std::size_t>(1, optimum));
    solved += 1;
  }
  solved = std::max(1.0, solved);

  if (!cfg.trace) {
    out.set("setup_s", setup_s);
    out.set("latency_p50_ms", median(lat_s) * 1e3);
    out.set("latency_tail_ms", tail(lat_s) * 1e3);
    out.set("ops_per_s", static_cast<double>(lat_s.size()) / sum(lat_s));
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("congest_rounds", rounds / solved);
    out.set("ratio", ratio / solved);
    return out;
  }

  // Traced pass over the same ops: per-layer numbers, and the outputs
  // must equal the untraced pass exactly.
  enable_alloc_counting();
  Tracer tr;
  Layers layers;
  CounterDelta counters;
  std::uint64_t messages = 0, bits = 0;
  std::vector<double> traced_s;
  for (std::size_t i = 0; i < ops; ++i) {
    if (!ref[i]) continue;
    set_current_op(static_cast<std::uint32_t>(i + 1));
    const CounterSample before = sample_counters();
    const std::int64_t t0 = now_ns();
    std::optional<Solved> s;
    try {
      const Span op(tr, "bench.op");
      s = solve_traced(in, derive_seed(cfg.seed, 2, i), tr, layers);
    } catch (const std::exception& e) {
      out.fail_op("traced op " + std::to_string(i) + " threw: " + e.what());
      continue;
    }
    traced_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    counters.add(before, sample_counters());
    messages += s->stats.messages;
    bits += s->stats.total_bits;
    if (!(s->matching == ref[i]->matching) ||
        !same_run_stats(s->stats, ref[i]->stats) ||
        s->iterations != ref[i]->iterations) {
      out.fail_op("traced op " + std::to_string(i) +
                  " differs from the untraced run");
    }
  }
  set_current_op(0);

  const auto k = static_cast<double>(std::max<std::size_t>(1, traced_s.size()));
  const std::vector<SpanRecord> spans = tr.spans();
  std::map<std::string, double> secs = seconds_by_name(spans);
  const double run_s = secs["congest.run"] / k;
  const double factory_s = secs["congest.factory"] / k;
  const double busy_s = layers.shard_busy_s / k;
  out.set("graph.oracle_s", secs["graph.oracle"] / k);
  out.set("congest.net_build_s", secs["congest.net_build"] / k);
  out.set("congest.run_s", run_s);
  out.set("congest.shard_busy_s", busy_s);
  out.set("congest.sched_wait_s", kThreads * run_s - busy_s - factory_s);
  out.set("congest.factory_s", factory_s);
  out.set("congest.procs_created",
          static_cast<double>(layers.procs_created) / k);
  out.set("congest.extract_s", secs["congest.extract"] / k);
  out.set("congest.messages", static_cast<double>(messages) / k);
  out.set("congest.total_bits", static_cast<double>(bits) / k);
  out.set("congest.msgs_per_s",
          run_s > 0 ? static_cast<double>(messages) / k / run_s : 0.0);
  out.set("support.allocs_per_msg",
          messages > 0 ? static_cast<double>(counters.allocs) /
                             static_cast<double>(messages)
                       : 0.0);
  out.set("support.alloc_bytes_per_op",
          static_cast<double>(counters.alloc_bytes) / k);
  out.set("proc.minor_faults_per_op",
          static_cast<double>(counters.minor_faults) / k);
  out.set("proc.ctx_switches_per_op",
          static_cast<double>(counters.ctx_switches) / k);
  for (int phase = 0; phase < kK; ++phase) {
    const std::string l = "core.l" + std::to_string(2 * phase + 1);
    out.set(l + ".iterations", static_cast<double>(layers.iterations[phase]) / k);
    out.set(l + ".phase_s", secs[kPhaseSpan[phase]] / k);
  }
  finish_trace(out, cfg, spans, traced_s.size(), median(lat_s),
               median(traced_s));
  return out;
}

}  // namespace perfbench
