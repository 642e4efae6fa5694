// mp_ii_2rank_20k: Israeli–Itai through the multi-process engine, two
// ranks of one thread each over the in-process loopback transport, on a
// bipartite G(n = 2e4, average degree 8).
//
// The benchmark interleaves the two sides in node-id order, so each
// rank's contiguous node range holds half of each side and about half
// the edges cross the rank boundary (unsplit sides would make every edge
// cross). One op constructs both engines, runs them and extracts the
// matching on rank 0: the only workload through src/mp's frame codec,
// per-peer batching and counting quiescence.
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "core/israeli_itai.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/hopcroft_karp.hpp"
#include "harness.hpp"
#include "mp/engine.hpp"

namespace perfbench {
namespace {

using dmatch::Graph;
using dmatch::NodeId;
using dmatch::congest::RunStats;
namespace mp = dmatch::mp;

constexpr unsigned kRanks = 2;
constexpr double kAverageDegree = 8.0;
// An op takes about 80 ms. After one untimed warm-up op, an untraced
// run makes kReplays passes over its ops: two ranks hand off every
// round, so a stall of either thread hits a burst of consecutive runs,
// and an op's median run keeps such bursts out of the result.
constexpr double kOpsPerSecond = 4.0;
constexpr int kReplays = 3;
constexpr int kSetupReps = 31;
constexpr int kMaxRounds = 1 << 20;
/// Every kReferenceEvery-th op is re-run on a single-process Network
/// and must match bit for bit.
constexpr std::size_t kReferenceEvery = 4;

struct Input {
  Graph g;
  std::vector<std::uint8_t> side;
};

/// Bipartite G(n, d/(n/2)) with side X on even and side Y on odd ids.
Input build_input(NodeId n, std::uint64_t seed) {
  const NodeId half = n / 2;
  const Graph raw =
      dmatch::gen::bipartite_gnp(half, half, kAverageDegree / half, seed);
  std::vector<dmatch::Edge> edges;
  edges.reserve(static_cast<std::size_t>(raw.edge_count()));
  for (dmatch::EdgeId e = 0; e < raw.edge_count(); ++e) {
    const dmatch::Edge& ed = raw.edge(e);
    edges.push_back({2 * ed.u, 2 * (ed.v - half) + 1, ed.w});
  }
  Input in;
  in.g = Graph::from_edges(2 * half, std::move(edges));
  in.side.resize(static_cast<std::size_t>(2 * half));
  for (std::size_t v = 0; v < in.side.size(); ++v) in.side[v] = v & 1;
  return in;
}

/// Times and counts what one rank's engine sends and waits to receive.
class TimedTransport final : public mp::Transport {
 public:
  TimedTransport(mp::Transport& inner, Tracer& tr) : inner_(inner), tr_(tr) {}

  [[nodiscard]] unsigned rank() const noexcept override {
    return inner_.rank();
  }
  [[nodiscard]] unsigned size() const noexcept override {
    return inner_.size();
  }
  bool send(unsigned peer, std::span<const std::uint8_t> frame) override {
    const Span s(tr_, "mp.send");
    ++frames;
    bytes += frame.size();
    return inner_.send(peer, frame);
  }
  mp::RecvStatus recv(unsigned peer, std::vector<std::uint8_t>& out,
                      int deadline_ms) override {
    const Span s(tr_, "mp.recv");
    return inner_.recv(peer, out, deadline_ms);
  }

  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;

 private:
  mp::Transport& inner_;
  Tracer& tr_;
};

/// Per-rank tallies of the traced pass.
struct RankTally {
  std::uint64_t frames = 0, bytes = 0, procs = 0;
};

/// Runs one rank. With a tracer, the rank's transport is decorated, its
/// factory probed, and its engine build and run sit in spans.
mp::MpResult run_rank(const Input& in, mp::Transport& endpoint,
                      std::uint64_t seed, Tracer* tr, RankTally* tally) {
  if (tr == nullptr) {
    mp::MpEngine engine(in.g, dmatch::congest::Model::kCongest, seed, 48,
                        endpoint);
    return engine.run(dmatch::israeli_itai_factory(), kMaxRounds);
  }
  const Span rank_span(*tr, "mp.rank");
  TimedTransport transport(endpoint, *tr);
  std::optional<mp::MpEngine> engine;
  {
    const Span s(*tr, "mp.engine_build");
    engine.emplace(in.g, dmatch::congest::Model::kCongest, seed, 48,
                   transport);
  }
  // The engine creates its range's processes in one sweep, between the
  // config handshake and the first round.
  const auto [lo, hi] = engine->owned_range();
  FactoryProbe probe;
  mp::MpResult r;
  {
    const Span s(*tr, "mp.run");
    r = engine->run(probed(dmatch::israeli_itai_factory(), probe,
                           static_cast<std::size_t>(hi - lo)),
                    kMaxRounds);
    tr->record("congest.factory", probe.first_ns, probe.last_ns);
  }
  tally->procs += probe.created;
  tally->frames += transport.frames;
  tally->bytes += transport.bytes;
  return r;
}

/// One op: rank 1 on a worker thread, rank 0 on the calling thread.
/// Returns rank 0's result (the aggregated stats and the matching).
mp::MpResult run_op(const Input& in, mp::LoopbackHub& hub, std::uint64_t seed,
                    Tracer* tr, RankTally* tallies) {
  std::exception_ptr worker_error;
  const std::uint32_t parent = current_span();
  const std::uint32_t op = current_op();
  std::thread worker([&] {
    try {
      std::optional<Adopt> adopt;
      if (tr != nullptr) adopt.emplace(parent, op, 1);
      (void)run_rank(in, hub.endpoint(1), seed, tr,
                     tallies != nullptr ? &tallies[1] : nullptr);
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  mp::MpResult root;
  std::exception_ptr root_error;
  try {
    root = run_rank(in, hub.endpoint(0), seed, tr,
                    tallies != nullptr ? &tallies[0] : nullptr);
  } catch (...) {
    root_error = std::current_exception();
  }
  worker.join();
  if (root_error) std::rethrow_exception(root_error);
  if (worker_error) std::rethrow_exception(worker_error);
  return root;
}

/// Empty when rank 0's matching is valid and maximal.
std::string check(const Input& in, const mp::MpResult& r) {
  const dmatch::MatchingInvariantReport rep =
      dmatch::verify_matching_invariants(in.g, r.matching);
  if (!rep.ok()) return "invalid matching: " + rep.summary();
  if (!r.matching.is_maximal(in.g)) return "matching not maximal";
  if (!r.stats.completed || r.tripped) return "run did not complete";
  return {};
}

/// Empty when a single-process Network run with the same seed produces
/// the same matching and RunStats.
std::string check_reference(const Input& in, std::uint64_t seed,
                            const mp::MpResult& r) {
  dmatch::congest::Network::Options o;
  o.num_threads = 1;
  dmatch::congest::Network net(in.g, dmatch::congest::Model::kCongest, seed,
                               48, o);
  const RunStats st = net.run(dmatch::israeli_itai_factory(), kMaxRounds);
  if (!(net.extract_matching() == r.matching)) {
    return "matching differs from the single-process run";
  }
  if (!same_run_stats(st, r.stats)) {
    return "RunStats differ from the single-process run";
  }
  return {};
}

}  // namespace

Outcome run_mp_ii(const RunConfig& cfg) {
  Outcome out;
  const NodeId n = cfg.smoke ? 2000 : 20000;
  const std::size_t ops = op_count(cfg, kOpsPerSecond, 3);
  out.attempted = ops;

  Input in;
  std::unique_ptr<mp::LoopbackHub> hub;
  const std::uint64_t graph_seed = derive_seed(cfg.seed, 1);
  const double setup_s = median_seconds(kSetupReps, [&] {
    hub.reset();
    in = build_input(n, graph_seed);
    hub = std::make_unique<mp::LoopbackHub>(kRanks);
  });
  const std::size_t optimum = dmatch::hopcroft_karp(in.g, in.side).size();

  // Warm-up: the first op of a process grows the heap.
  try {
    (void)run_op(in, *hub, derive_seed(cfg.seed, 5), nullptr, nullptr);
  } catch (const std::exception& e) {
    out.problem(std::string("warm-up op threw: ") + e.what());
  }
  // Untraced passes; the traced mode needs one, for reference outputs.
  std::vector<std::optional<mp::MpResult>> ref(ops);
  const std::vector<double> lat_s = replayed_latencies(
      ops, cfg.trace ? 1 : kReplays, [&](std::size_t i, int pass) -> double {
        const std::string op = "op " + std::to_string(i);
        const std::uint64_t seed = derive_seed(cfg.seed, 2, i);
        std::optional<mp::MpResult> r;
        const std::int64_t t0 = now_ns();
        try {
          r = run_op(in, *hub, seed, nullptr, nullptr);
        } catch (const std::exception& e) {
          const std::string why = op + " threw: " + e.what();
          pass == 0 ? out.fail_op(why) : out.problem(why);
          return -1;
        }
        const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
        std::fprintf(stderr, "  %s pass %d: %.1f ms, %llu rounds\n",
                     op.c_str(), pass, secs * 1e3,
                     static_cast<unsigned long long>(r->stats.rounds));
        if (pass == 0) {
          std::string bad = check(in, *r);
          if (bad.empty() && i % kReferenceEvery == 0) {
            bad = check_reference(in, seed, *r);
          }
          if (!bad.empty()) out.fail_op(op + ": " + bad);
          ref[i] = std::move(r);
        } else if (!ref[i] || !(r->matching == ref[i]->matching) ||
                   !same_run_stats(r->stats, ref[i]->stats)) {
          out.problem(op + " did not repeat its first pass");
        }
        return secs;
      });

  double rounds = 0, ratio = 0, done = 0;
  for (const auto& r : ref) {
    if (!r) continue;
    rounds += static_cast<double>(r->stats.rounds);
    ratio += static_cast<double>(r->matching.size()) /
             static_cast<double>(std::max<std::size_t>(1, optimum));
    done += 1;
  }
  done = std::max(1.0, done);

  if (!cfg.trace) {
    out.set("setup_s", setup_s);
    out.set("latency_p50_ms", median(lat_s) * 1e3);
    out.set("latency_tail_ms", tail(lat_s) * 1e3);
    out.set("ops_per_s", static_cast<double>(lat_s.size()) / sum(lat_s));
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("congest_rounds", rounds / done);
    out.set("ratio", ratio / done);
    return out;
  }

  enable_alloc_counting();
  Tracer tr;
  RankTally tallies[kRanks];
  CounterDelta counters;
  std::uint64_t messages = 0, bits = 0;
  std::vector<double> traced_s;
  for (std::size_t i = 0; i < ops; ++i) {
    if (!ref[i]) continue;
    set_current_op(static_cast<std::uint32_t>(i + 1));
    const CounterSample before = sample_counters();
    const std::int64_t t0 = now_ns();
    mp::MpResult r;
    try {
      const Span op(tr, "bench.op");
      r = run_op(in, *hub, derive_seed(cfg.seed, 2, i), &tr, tallies);
    } catch (const std::exception& e) {
      out.fail_op("traced op " + std::to_string(i) + " threw: " + e.what());
      continue;
    }
    traced_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    counters.add(before, sample_counters());
    messages += r.stats.messages;
    bits += r.stats.total_bits;
    if (!(r.matching == ref[i]->matching) ||
        !same_run_stats(r.stats, ref[i]->stats)) {
      out.fail_op("traced op " + std::to_string(i) +
                  " differs from the untraced run");
    }
  }
  set_current_op(0);

  const auto k = static_cast<double>(std::max<std::size_t>(1, traced_s.size()));
  const double per_rank = k * kRanks;
  const std::vector<SpanRecord> spans = tr.spans();
  std::map<std::string, double> secs = seconds_by_name(spans);
  std::uint64_t frames = 0, bytes = 0, procs = 0;
  for (const RankTally& t : tallies) {
    frames += t.frames;
    bytes += t.bytes;
    procs += t.procs;
  }
  const double run_s = secs["mp.run"] / per_rank;
  out.set("congest.factory_s", secs["congest.factory"] / per_rank);
  out.set("congest.procs_created", static_cast<double>(procs) / k);
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
  out.set("mp.engine_build_s", secs["mp.engine_build"] / per_rank);
  out.set("mp.recv_wait_s", secs["mp.recv"] / per_rank);
  out.set("mp.send_s", secs["mp.send"] / per_rank);
  out.set("mp.frames", static_cast<double>(frames) / k);
  out.set("mp.frame_bytes", static_cast<double>(bytes) / k);
  out.set("mp.compute_s",
          run_s - (secs["mp.recv"] + secs["mp.send"]) / per_rank);
  finish_trace(out, cfg, spans, traced_s.size(), median(lat_s),
               median(traced_s));
  return out;
}

}  // namespace perfbench
