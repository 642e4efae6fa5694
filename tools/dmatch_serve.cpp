// Dynamic matching service demo: replay a churn workload through the
// epoch batcher + incremental repair engine and report per-epoch repair
// latency and the matching-quality trajectory.
//
// Usage:
//   dmatch_serve [--key value ...]
//
// Options:
//   --gen SPEC        initial topology: gnp:N,P | bip:NX,NY,P | cycle:N |
//                     tree:N | ba:N,M (default gnp:2000,0.002)
//   --mode M          workload profile: uniform | hotspot | flap
//                     (default uniform)
//   --ops N           total workload ops to replay (default 2000)
//   --max-ops N       epoch op-count budget (default 16)
//   --max-latency US  epoch latency budget, virtual microseconds
//                     (default 20000)
//   --hops K          dirty-region BFS radius, >= 1 (default 2)
//   --quality-k K     quality ladder, 1..12 (default 1 = maximal only;
//                     K >= 2 runs the beyond-maximal augment stage after
//                     each repair and widens the region to
//                     max(hops, 2K-1), targeting ratio >= 1 - 1/K)
//   --fallback F      full-recompute fallback fraction (default 0.25;
//                     0 forces every epoch to a full recompute)
//   --threads N       repair engine worker count (default 1, at most
//                     256; trajectory is bit-identical for any value)
//   --seed S          seed for topology, workload, and engine (default 1)
//   --certify 0|1     certify every epoch against core/verify, including
//                     the exact optimum / approximation ratio (default 0;
//                     slow — demo scale only)
//   --quiet 0|1       suppress the per-epoch table, print summary only
//
// Crash-schedule mode (drives crash-restart through the update log):
//   --fault-crash P     per-node crash probability; turns on the mode
//   --fault-restart P   probability a crashed node restarts (default 0.8)
//   --restart-delay R   rounds until a restart (default 50)
//   --crash-bound R     crashes happen before round R (default horizon/2)
//   --horizon R         schedule horizon in rounds (default 400)
//   --us-per-round U    virtual microseconds per round (default 100)
//   --fault-seed S      seed of the crash schedule (default 1)
// The schedule's depart/return ops are merged into the workload stream
// by timestamp, so the service absorbs the same failure history a
// faulted static run would see — as ordinary churn.
//
// The summary ends with each epoch phase's median wall time (ops and
// rebuild, region expansion, repair, augment, leftover sweep, total).
//
// Exit code: 0 on success, 1 if an epoch fails certification or the run
// throws, 2 on usage errors (an unknown flag, a flag without a value, a
// malformed or out-of-range value).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "args.hpp"
#include "congest/fault.hpp"
#include "dyn/service.hpp"
#include "dyn/workload.hpp"

using namespace dmatch;

namespace {

dyn::WorkloadMode parse_mode(const tools::Args& args) {
  const std::string s = args.get("mode", "uniform");
  if (s == "uniform") return dyn::WorkloadMode::kUniform;
  if (s == "hotspot") return dyn::WorkloadMode::kHotspot;
  if (s != "flap") args.usage("--mode: expected uniform | hotspot | flap");
  return dyn::WorkloadMode::kAdversarialFlap;
}

void print_epoch(const dyn::EpochReport& r) {
  std::printf("  %5llu %5zu %6zu %6zu %6zu  %-5s %c %7llu %9llu %8.3f %6zu "
              "%10.2f",
              static_cast<unsigned long long>(r.epoch.index), r.ops,
              r.dirty_nodes, r.active_nodes, r.frozen_nodes,
              r.full_recompute ? "full" : "incr", r.rebuilt ? 'R' : ' ',
              static_cast<unsigned long long>(r.stats.rounds),
              static_cast<unsigned long long>(r.stats.messages),
              r.repair_seconds * 1e3, r.matching_size, r.matching_weight);
  if (r.certificate) {
    std::printf("  %s ratio=%.4f", r.certificate->ok() ? "OK " : "BAD",
                r.certificate->ratio);
  }
  std::printf("\n");
}

int run(const tools::Args& args) {
  const auto seed = args.num<std::uint64_t>("seed", 1);
  const Graph g =
      tools::generate(args, args.get("gen", "gnp:2000,0.002"), seed);
  // The workload draws node pairs.
  if (g.node_count() < 2) args.usage("--gen: the service needs >= 2 nodes");

  dyn::ServiceOptions so;
  so.limits.max_ops = args.num<std::size_t>("max-ops", 16);
  so.limits.max_latency_us = args.num<std::uint64_t>("max-latency", 20000);
  so.repair.dirty_hops =
      args.num("hops", 2, [](int h) { return h >= 1; }, ">= 1");
  // The paper's iteration budget overflows an int beyond k = 12.
  so.repair.quality_k = args.num(
      "quality-k", 1, [](int k) { return k >= 1 && k <= 12; }, "in 1..12");
  so.repair.fallback_fraction = args.num("fallback", 0.25);
  so.repair.num_threads = tools::threads(args);
  so.repair.seed = seed;
  const bool certify = args.num("certify", 0) != 0;
  so.repair.certify = certify;
  so.repair.certify_ratio = certify;
  const bool quiet = args.num("quiet", 0) != 0;

  // Workload stream.
  dyn::WorkloadOptions wo;
  wo.mode = parse_mode(args);
  wo.seed = seed;
  const auto total_ops = args.num<std::size_t>("ops", 2000);

  dyn::MatchingService svc(g, so);

  // Optional crash schedule, expressed as session churn and merged into
  // the workload stream by timestamp.
  std::vector<dyn::UpdateOp> crash_ops;
  if (args.has("fault-crash")) {
    congest::FaultPlan plan;
    plan.crash_prob = args.num("fault-crash", 0.0);
    plan.restart_prob = args.num("fault-restart", 0.8);
    plan.restart_delay = args.num<std::uint64_t>("restart-delay", 50);
    const auto horizon = args.num<std::uint64_t>("horizon", 400);
    plan.crash_round_bound =
        args.num<std::uint64_t>("crash-bound", horizon / 2);
    plan.seed = args.num<std::uint64_t>("fault-seed", 1);
    const auto us_per_round = args.num<std::uint64_t>("us-per-round", 100);
    crash_ops = dyn::churn_from_crash_plan(plan, g.node_count(), horizon,
                                           us_per_round);
    std::printf("crash schedule: %zu depart/return ops over %llu rounds\n",
                crash_ops.size(), static_cast<unsigned long long>(horizon));
  }

  dyn::Workload w(g, wo);
  std::size_t crash_cursor = 0;
  std::printf("dmatch_serve: n=%u m=%u mode=%s ops=%zu epoch<=%zu ops "
              "or %llu us, hops=%d quality_k=%d fallback=%.2f threads=%u "
              "seed=%llu\n",
              g.node_count(), g.edge_count(), dyn::to_string(wo.mode),
              total_ops, so.limits.max_ops,
              static_cast<unsigned long long>(so.limits.max_latency_us),
              so.repair.dirty_hops, so.repair.quality_k,
              so.repair.fallback_fraction, so.repair.num_threads,
              static_cast<unsigned long long>(seed));
  std::printf("bootstrap: size=%zu weight=%.2f rounds=%llu (%.3f ms)\n",
              svc.engine().bootstrap_report().matching_size,
              svc.engine().bootstrap_report().matching_weight,
              static_cast<unsigned long long>(
                  svc.engine().bootstrap_report().stats.rounds),
              svc.engine().bootstrap_report().repair_seconds * 1e3);
  if (!quiet) {
    std::printf("  epoch   ops  dirty active frozen  path R  rounds  "
                "messages  lat(ms)   size     weight\n");
  }

  std::size_t printed = 0;
  const auto drain_new = [&] {
    const auto& h = svc.history();
    for (; printed < h.size(); ++printed) {
      if (!quiet) print_epoch(h[printed]);
      if (h[printed].certificate && !h[printed].certificate->ok()) {
        std::fprintf(stderr, "CERTIFICATION FAILED at epoch %llu\n",
                     static_cast<unsigned long long>(
                         h[printed].epoch.index));
        std::exit(1);
      }
    }
  };

  for (std::size_t i = 0; i < total_ops; ++i) {
    const dyn::UpdateOp op = w.next(svc.mate_view());
    // Interleave any crash-schedule churn that is due before this op.
    while (crash_cursor < crash_ops.size() &&
           crash_ops[crash_cursor].at <= op.at) {
      svc.submit(crash_ops[crash_cursor++]);
      drain_new();
    }
    svc.submit(op);
    drain_new();
  }
  while (crash_cursor < crash_ops.size()) {
    svc.submit(crash_ops[crash_cursor++]);
    drain_new();
  }
  svc.flush();
  drain_new();

  // Summary.
  const auto& h = svc.history();
  std::vector<double> lat_ms;
  std::size_t incremental = 0, full = 0, rebuilds = 0;
  for (const dyn::EpochReport& r : h) {
    lat_ms.push_back(r.repair_seconds * 1e3);
    (r.full_recompute ? full : incremental) += 1;
    rebuilds += r.rebuilt ? 1 : 0;
  }
  std::printf("summary: %zu epochs (%zu incremental, %zu full, %zu "
              "rebuilds)\n",
              h.size(), incremental, full, rebuilds);
  std::printf("repair latency ms: p50=%.3f p99=%.3f max=%.3f\n",
              dyn::percentile(lat_ms, 0.50), dyn::percentile(lat_ms, 0.99),
              lat_ms.empty()
                  ? 0.0
                  : *std::max_element(lat_ms.begin(), lat_ms.end()));
  std::printf("final: size=%zu weight=%.2f live_pairs=%zu\n",
              svc.matching().size(), h.empty() ? 0.0 : h.back().matching_weight,
              w.live_pairs());
  std::printf("phase p50 ms:");
  for (std::size_t p = 0; p < dyn::kEpochPhases; ++p) {
    std::vector<double> ms;
    for (const dyn::EpochReport& r : h) ms.push_back(r.phase_ns[p] * 1e-6);
    std::printf(" %s=%.3f", dyn::kEpochPhaseNames[p],
                dyn::percentile(ms, 0.50));
  }
  std::printf("\n");
  if (certify && !h.empty() && h.back().certificate) {
    std::printf("final ratio=%.4f (certified %s)\n",
                h.back().certificate->ratio,
                h.back().certificate->ok() ? "OK" : "BAD");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(
      "dmatch_serve", argc, argv, 1,
      {"gen", "mode", "ops", "max-ops", "max-latency", "hops", "quality-k",
       "fallback", "threads", "seed", "certify", "quiet", "fault-crash",
       "fault-restart", "restart-delay", "crash-bound", "horizon",
       "us-per-round", "fault-seed"});
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
