// serve_flap_k2_20k / serve_uniform_k1_20k: the dynamic MatchingService
// on G(n = 2e4, 3/n) with 16-op epochs, one engine thread and one
// closed-loop client that generates its next op only after the previous
// submit returned.
//
// Flap (quality_k = 2) deletes currently matched edges and re-inserts
// them, so epochs revive pairs in place, run the augment stage and often
// escalate to the whole-graph leftover sweep. Uniform (quality_k = 1)
// inserts genuinely new pairs, so every epoch rebuilds the universe and
// the Network, with no augment stage. One op is one epoch-closing submit.
#include <cstdio>
#include <memory>
#include <optional>

#include "dyn/service.hpp"
#include "dyn/workload.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using dmatch::Graph;
using dmatch::NodeId;
namespace dyn = dmatch::dyn;

constexpr double kAverageDegree = 3.0;
constexpr std::size_t kEpochOps = 16;
constexpr int kSetupReps = 5;  // for the first replay; one per other
/// Untraced replays of the trajectory; per-epoch times are their median.
constexpr int kReplays = 5;
/// Epochs at which the live matching is certified (besides the final
/// state): this many, evenly spaced.
constexpr std::size_t kCertifySamples = 4;

/// Nominal epoch rate of one replay; sets the fixed epoch count.
constexpr double kEpochsPerSecond = 15.0;

struct Shape {
  int quality_k;
  dyn::WorkloadMode mode;
};

Shape shape(bool flap) {
  if (flap) return {2, dyn::WorkloadMode::kAdversarialFlap};
  return {1, dyn::WorkloadMode::kUniform};
}

dyn::ServiceOptions service_options(const Shape& sh, std::uint64_t seed) {
  dyn::ServiceOptions so;
  so.limits.max_ops = kEpochOps;
  so.limits.max_latency_us = 20'000;
  so.repair.quality_k = sh.quality_k;
  so.repair.num_threads = 1;
  so.repair.seed = seed;
  return so;
}

/// Empty when the certified snapshot is a valid maximal matching that
/// meets the quality floor (ratio >= 1 - 1/k for k >= 2).
std::string check(const dyn::RepairEngine::CertifiedSnapshot& c, int k) {
  if (!c.report.ok()) return "invalid matching: " + c.report.summary();
  if (!c.maximal) return "matching not maximal";
  if (k >= 2 && c.report.ratio + 1e-9 < 1.0 - 1.0 / k) {
    return "ratio below the 1 - 1/k floor";
  }
  return {};
}

/// The EpochReport fields that are state, not wall clock.
bool same_report(const dyn::EpochReport& a, const dyn::EpochReport& b) {
  return a.epoch.index == b.epoch.index && a.ops == b.ops &&
         a.dirty_nodes == b.dirty_nodes && a.active_nodes == b.active_nodes &&
         a.frozen_nodes == b.frozen_nodes &&
         a.full_recompute == b.full_recompute && a.rebuilt == b.rebuilt &&
         same_run_stats(a.stats, b.stats) &&
         a.matching_size == b.matching_size &&
         a.augment_iterations == b.augment_iterations &&
         a.augment_phase_iterations == b.augment_phase_iterations &&
         a.augment_gained == b.augment_gained &&
         a.augment_escalated == b.augment_escalated;
}

bool certify_due(std::size_t closed, std::size_t epochs) {
  const std::size_t every = std::max<std::size_t>(1, epochs / kCertifySamples);
  return closed % every == 0 && closed < epochs;
}

Graph build_graph(const RunConfig& cfg) {
  const NodeId n = cfg.smoke ? 2000 : 20000;
  return dmatch::gen::gnp(n, kAverageDegree / n, derive_seed(cfg.seed, 1));
}

/// One untraced closed-loop replay of the seeded trajectory.
struct Replay {
  Graph graph;
  std::vector<double> setup_s;  // input + service construction
  std::vector<double> epoch_s;  // wall time of each epoch-closing submit
  /// Wall time of all submits of each epoch, the closing one included.
  std::vector<double> epoch_submits_s;
  std::size_t submitted = 0;
  std::vector<dyn::EpochReport> history;
  dmatch::Matching matching;
};

/// Builds the input and the service (kSetupReps times for replay 0, once
/// otherwise; each a set-up sample) and replays `epochs` epochs. With
/// `out`, exceptions count as failed epochs and the live matching is
/// certified at the sampled epochs and at the end.
Replay replay(const RunConfig& cfg, const Shape& sh,
              const dyn::ServiceOptions& so, const dyn::WorkloadOptions& wo,
              std::size_t epochs, Outcome* out,
              std::vector<std::pair<std::size_t, double>>* certified,
              std::optional<dyn::RepairEngine::CertifiedSnapshot>* final_cert) {
  Replay rp;
  std::unique_ptr<dyn::MatchingService> svc;
  for (int rep = 0; rep < (out != nullptr ? kSetupReps : 1); ++rep) {
    svc.reset();
    const std::int64_t t0 = now_ns();
    rp.graph = build_graph(cfg);
    svc = std::make_unique<dyn::MatchingService>(rp.graph, so);
    rp.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  // Op generation sits outside the timed submits.
  dyn::Workload w(rp.graph, wo);
  std::size_t closed = 0;
  double open_s = 0;  // submits of the epoch still open
  while (closed < epochs) {
    const dyn::UpdateOp op = w.next(svc->mate_view());
    std::size_t applied = 0;
    const std::int64_t t0 = now_ns();
    try {
      applied = svc->submit(op);
    } catch (const std::exception& e) {
      if (out != nullptr) {
        out->fail_op("epoch " + std::to_string(closed) + " threw: " + e.what());
      }
      applied = 1;
    }
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    open_s += dt;
    ++rp.submitted;
    if (applied == 0) continue;
    rp.epoch_s.push_back(dt);
    rp.epoch_submits_s.push_back(open_s);
    open_s = 0;
    closed += applied;
    if (out != nullptr && certify_due(closed, epochs)) {
      const auto c = svc->engine().certify_now(true);
      const std::string bad = check(c, sh.quality_k);
      if (!bad.empty()) {
        out->fail_op("epoch " + std::to_string(closed) + ": " + bad);
      }
      certified->emplace_back(closed, c.report.ratio);
    }
  }
  if (final_cert != nullptr) *final_cert = svc->engine().certify_now(true);
  rp.history = svc->history();
  rp.matching = svc->matching();
  return rp;
}

bool same_history(const Replay& a, const Replay& b) {
  if (a.history.size() != b.history.size() || !(a.matching == b.matching)) {
    return false;
  }
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (!same_report(a.history[i], b.history[i])) return false;
  }
  return true;
}

}  // namespace

Outcome run_serve(const RunConfig& cfg, bool flap) {
  Outcome out;
  const Shape sh = shape(flap);
  const std::size_t epochs = op_count(cfg, kEpochsPerSecond, 40);
  out.attempted = epochs;
  const dyn::ServiceOptions so =
      service_options(sh, derive_seed(cfg.seed, 3));
  dyn::WorkloadOptions wo;
  wo.mode = sh.mode;
  wo.seed = derive_seed(cfg.seed, 4);

  // Untraced replays. Each builds its input and service afresh (the
  // set-up time) and replays the same seeded trajectory; replay 0 also
  // certifies sampled epochs and the final state, the others must
  // reproduce its history exactly.
  std::vector<Replay> replays;
  std::vector<std::pair<std::size_t, double>> certified;  // epoch, ratio
  std::optional<dyn::RepairEngine::CertifiedSnapshot> final_cert;
  // The traced mode needs one untraced replay: its reference outputs.
  for (int r = 0; r < (cfg.trace ? 1 : kReplays); ++r) {
    replays.push_back(replay(cfg, sh, so, wo, epochs, r == 0 ? &out : nullptr,
                             r == 0 ? &certified : nullptr,
                             r == 0 ? &final_cert : nullptr));
    if (r > 0) {
      if (!same_history(replays[r], replays[0])) {
        out.problem("replay " + std::to_string(r) +
                    " diverged from replay 0 (the trajectory must be "
                    "deterministic)");
      }
      // Only replay 0's outputs are used further on.
      replays[r].graph = Graph{};
      replays[r].history = {};
    }
  }
  const Replay& ref = replays[0];
  const Graph& g = ref.graph;
  const std::string bad = check(*final_cert, sh.quality_k);
  if (!bad.empty()) out.problem("final state: " + bad);

  // Per-epoch wall times are medians over the replays, so a burst of
  // interference that hits one replay's epoch does not become the tail.
  const auto per_epoch_median = [&](std::vector<double> Replay::*field) {
    std::vector<double> med((ref.*field).size());
    for (std::size_t i = 0; i < med.size(); ++i) {
      std::vector<double> xs;
      for (const Replay& rp : replays) {
        if (i < (rp.*field).size()) xs.push_back((rp.*field)[i]);
      }
      med[i] = median(xs);
    }
    return med;
  };
  const std::vector<double> epoch_s = per_epoch_median(&Replay::epoch_s);
  const double replay_s = sum(per_epoch_median(&Replay::epoch_submits_s));
  std::vector<double> setup_s;
  for (const Replay& rp : replays) {
    setup_s.insert(setup_s.end(), rp.setup_s.begin(), rp.setup_s.end());
  }

  const std::vector<dyn::EpochReport>& hist = ref.history;
  double rounds = 0;
  std::size_t n_rebuilt = 0, n_escalated = 0, n_full = 0;
  for (const dyn::EpochReport& r : hist) {
    rounds += static_cast<double>(r.stats.rounds);
    n_rebuilt += r.rebuilt ? 1 : 0;
    n_escalated += r.augment_escalated ? 1 : 0;
    n_full += r.full_recompute ? 1 : 0;
  }
  std::fprintf(stderr,
               "  %zu epochs: %zu rebuilt, %zu escalated, %zu full; "
               "%zu submits\n",
               hist.size(), n_rebuilt, n_escalated, n_full, ref.submitted);
  std::fprintf(stderr, "  epoch ms: p50 %.2f tail %.2f\n",
               median(epoch_s) * 1e3, tail(epoch_s) * 1e3);
  const double ne = static_cast<double>(std::max<std::size_t>(1, hist.size()));

  if (!cfg.trace) {
    out.set("setup_s", median(setup_s));
    out.set("latency_p50_ms", median(epoch_s) * 1e3);
    out.set("latency_tail_ms", tail(epoch_s) * 1e3);
    out.set("ops_per_s", static_cast<double>(ref.submitted) / replay_s);
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("congest_rounds", rounds / ne);
    out.set("ratio", final_cert->report.ratio);
    return out;
  }

  // Traced pass: the same replay driven through the service's two
  // layers directly, UpdateLog + RepairEngine::apply_epoch.
  enable_alloc_counting();
  Tracer tr;
  // The Network constructor the service pays at bootstrap and on every
  // rebuilt epoch, timed over the initial graph.
  dmatch::congest::Network::Options no;
  no.num_threads = so.repair.num_threads;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Span s(tr, "congest.net_build");
    const dmatch::congest::Network net(g, dmatch::congest::Model::kCongest,
                                       so.repair.seed, 48, no);
  }
  dyn::RepairEngine eng(g, so.repair);
  dyn::UpdateLog log;
  dyn::Workload tw(g, wo);
  std::vector<dyn::EpochReport> reports;
  std::vector<double> traced_s;
  CounterDelta submit_counters, apply_counters;
  double apply_ms[3] = {}, apply_n[3] = {};  // rebuilt, escalated, plain
  double append_only_s = 0;  // appends that close no epoch
  std::size_t certify_at = 0;
  while (reports.size() < epochs) {
    const dyn::UpdateOp op = tw.next(eng.mate_view());
    const CounterSample before = sample_counters();
    const std::int64_t t0 = now_ns();
    log.append(op);
    const std::int64_t t1 = now_ns();
    if (!log.epoch_ready(so.limits)) {
      submit_counters.add(before, sample_counters());
      tr.record("dyn.append", t0, t1);
      append_only_s += static_cast<double>(t1 - t0) * 1e-9;
      continue;
    }
    // An epoch-closing submit: the op span is emitted after the fact,
    // its append child and apply children nest under it.
    SpanRecord op_span;
    op_span.id = tr.next_id();
    op_span.parent = current_span();
    op_span.op = static_cast<std::uint32_t>(reports.size() + 1);
    op_span.name = "bench.op";
    op_span.start_ns = t0;
    {
      const Adopt adopt(op_span.id, op_span.op, 0);
      tr.record("dyn.append", t0, t1);
      while (log.epoch_ready(so.limits)) {
        const dyn::Epoch e = log.close_epoch(so.limits);
        const CounterSample a0 = sample_counters();
        const std::int64_t s0 = now_ns();
        try {
          const Span s(tr, "dyn.apply_epoch");
          reports.push_back(eng.apply_epoch(e, log.ops(e)));
        } catch (const std::exception& ex) {
          out.fail_op("traced epoch " + std::to_string(reports.size()) +
                      " threw: " + ex.what());
          reports.emplace_back();
          continue;
        }
        const double ms = static_cast<double>(now_ns() - s0) * 1e-6;
        apply_counters.add(a0, sample_counters());
        const dyn::EpochReport& r = reports.back();
        const int cls = r.rebuilt ? 0 : r.augment_escalated ? 1 : 2;
        apply_ms[cls] += ms;
        apply_n[cls] += 1;
      }
    }
    op_span.end_ns = now_ns();
    tr.emit(op_span);
    submit_counters.add(before, sample_counters());
    traced_s.push_back(static_cast<double>(op_span.end_ns - t0) * 1e-9);
    if (certify_at < certified.size() &&
        certified[certify_at].first == reports.size()) {
      const Span s(tr, "dyn.certify");
      const auto c = eng.certify_now(true);
      if (c.report.ratio != certified[certify_at].second) {
        out.fail_op("traced certificate differs at epoch " +
                    std::to_string(reports.size()));
      }
      ++certify_at;
    }
  }
  {
    const Span s(tr, "dyn.certify");
    const auto c = eng.certify_now(true);
    if (c.report.ratio != final_cert->report.ratio ||
        !(c.matching == final_cert->matching)) {
      out.problem("traced final state differs from the untraced run");
    }
  }
  for (std::size_t i = 0; i < reports.size() && i < hist.size(); ++i) {
    if (!same_report(reports[i], hist[i])) {
      out.fail_op("traced epoch " + std::to_string(i) +
                  " differs from the untraced run");
    }
  }
  if (reports.size() != hist.size()) {
    out.problem("traced run closed a different number of epochs");
  }

  const double k = static_cast<double>(std::max<std::size_t>(1, reports.size()));
  double active = 0, dirty = 0, frozen = 0, rebuilt = 0, escalated = 0,
         full = 0, aug_iters = 0, msgs = 0, bits = 0;
  for (const dyn::EpochReport& r : reports) {
    active += static_cast<double>(r.active_nodes);
    dirty += static_cast<double>(r.dirty_nodes);
    frozen += static_cast<double>(r.frozen_nodes);
    rebuilt += r.rebuilt ? 1 : 0;
    escalated += r.augment_escalated ? 1 : 0;
    full += r.full_recompute ? 1 : 0;
    aug_iters += r.augment_iterations;
    msgs += static_cast<double>(r.stats.messages);
    bits += static_cast<double>(r.stats.total_bits);
  }
  const std::vector<SpanRecord> spans = tr.spans();
  std::map<std::string, double> secs = seconds_by_name(spans);
  const double certifies = static_cast<double>(certified.size() + 1);
  out.set("congest.net_build_s", secs["congest.net_build"] / kSetupReps);
  out.set("congest.messages", msgs / k);
  out.set("congest.total_bits", bits / k);
  out.set("support.allocs_per_msg",
          msgs > 0 ? static_cast<double>(submit_counters.allocs) / msgs : 0.0);
  out.set("support.alloc_bytes_per_op",
          static_cast<double>(submit_counters.alloc_bytes) / k);
  out.set("proc.minor_faults_per_op",
          static_cast<double>(submit_counters.minor_faults) / k);
  out.set("proc.ctx_switches_per_op",
          static_cast<double>(submit_counters.ctx_switches) / k);
  out.set("dyn.append_s", append_only_s / k);
  out.set("dyn.apply_epoch_ms.rebuilt",
          apply_n[0] > 0 ? apply_ms[0] / apply_n[0] : 0.0);
  out.set("dyn.apply_epoch_ms.escalated",
          apply_n[1] > 0 ? apply_ms[1] / apply_n[1] : 0.0);
  out.set("dyn.apply_epoch_ms.plain",
          apply_n[2] > 0 ? apply_ms[2] / apply_n[2] : 0.0);
  out.set("dyn.alloc_bytes_per_epoch",
          static_cast<double>(apply_counters.alloc_bytes) / k);
  out.set("dyn.allocs_per_epoch",
          static_cast<double>(apply_counters.allocs) / k);
  out.set("proc.minor_faults_per_epoch",
          static_cast<double>(apply_counters.minor_faults) / k);
  out.set("dyn.active_share",
          active / k / static_cast<double>(g.node_count()));
  out.set("dyn.dirty_nodes", dirty / k);
  out.set("dyn.frozen_nodes", frozen / k);
  out.set("dyn.rebuild_frac", rebuilt / k);
  out.set("dyn.escalated_frac", escalated / k);
  out.set("dyn.augment_iterations", aug_iters / k);
  out.set("dyn.full_frac", full / k);
  out.set("dyn.repair_rounds", rounds / ne);
  out.set("dyn.repair_messages", msgs / k);
  out.set("dyn.certify_s", secs["dyn.certify"] / certifies);
  finish_trace(out, cfg, spans, traced_s.size(), median(epoch_s),
               median(traced_s));
  return out;
}

}  // namespace perfbench
