#include "dyn/repair.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "core/israeli_itai.hpp"
#include "dyn/augment.hpp"

namespace dmatch::dyn {

namespace {

std::uint64_t fork_seed(std::uint64_t seed, std::uint64_t generation) {
  // splitmix-style decorrelation so each universe generation gets an
  // independent per-node RNG family.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (generation + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<NodeId> collect_live(const DynGraph& g) {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(g.live_vertex_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.vertex_live(v)) out.push_back(v);
  }
  return out;
}

}  // namespace

RepairEngine::RepairEngine(Graph initial, RepairOptions opts)
    : g_(std::move(initial)),
      opts_(opts),
      matching_(0),
      tracker_(g_.node_count()) {
  DMATCH_EXPECTS(opts_.dirty_hops >= 1);
  mate_.assign(static_cast<std::size_t>(g_.node_count()), kNoNode);
  matching_ = Matching(g_.node_count());
  rebuild_network();
  const auto t0 = std::chrono::steady_clock::now();
  run_full(bootstrap_);
  if (opts_.quality_k >= 2) {
    const std::vector<NodeId> live = collect_live(g_);
    run_augment(live, 0, bootstrap_);
    bootstrap_.augment_gained += sweep_leftovers(live);
  }
  bootstrap_.repair_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  refresh_totals(bootstrap_);
}

void RepairEngine::rebuild_network() {
  // Each generation gets its own RNG family. The Network is built once;
  // a grown universe re-lays it out in place, as a fresh one would be.
  const std::uint64_t seed = fork_seed(opts_.seed, g_.generation());
  if (net_ == nullptr) {
    congest::Network::Options no;
    no.num_threads = opts_.num_threads;
    DMATCH_OBS(no.observer = opts_.observer;)
    net_ = std::make_unique<congest::Network>(
        g_.universe(), congest::Model::kCongest, seed, 48, no);
  } else {
    net_->rebind(seed);
  }
  // The registers start clear; point the matched ones at their pairs
  // (edge ids and ports survive rebuilds, so the matching carries over).
  for (NodeId v = 0; v < g_.node_count(); ++v) {
    const EdgeId e = matching_.matched_edge(v);
    if (e != kNoEdge) net_->set_register(v, e);
  }
  eligible_.resize(static_cast<std::size_t>(g_.universe().edge_count()), 0);
}

void RepairEngine::run_full(EpochReport& report) {
  const auto n = static_cast<std::size_t>(g_.node_count());
  const auto m = static_cast<std::size_t>(g_.universe().edge_count());
  std::vector<int> image(n, -1);
  net_->restore_registers(image);
  for (std::size_t e = 0; e < m; ++e) {
    eligible_[e] = g_.edge_alive(static_cast<EdgeId>(e)) ? 1 : 0;
  }
  report.stats = net_->run(israeli_itai_factory(eligible_),
                           opts_.round_budget);
  std::fill(eligible_.begin(), eligible_.end(), 0);
  DMATCH_ENSURES(report.stats.completed);
  matching_ = net_->extract_matching();
  for (std::size_t v = 0; v < n; ++v) {
    mate_[v] = matching_.mate(static_cast<NodeId>(v));
  }
  report.full_recompute = true;
}

bool RepairEngine::run_incremental(const DirtyRegion& region,
                                   EpochReport& report) {
  const Graph& u = g_.universe();

  // Clear exactly the active registers; every other register keeps its
  // pair.
  for (const NodeId v : region.active) net_->set_register(v, kNoEdge);

  // Eligibility: alive edges with BOTH endpoints active. Active nodes
  // therefore never propose outside the region; frozen and outside
  // registers stay untouched and their pairs are reused verbatim.
  in_active_.grow(static_cast<std::size_t>(g_.node_count()));
  in_active_.clear();
  for (const NodeId v : region.active) {
    in_active_.insert(static_cast<std::size_t>(v));
  }
  std::vector<EdgeId> eligible_set;  // the entries to clear again
  for (const NodeId v : region.active) {
    if (!g_.vertex_live(v)) continue;
    for (const EdgeId e : u.incident_edges(v)) {
      if (!g_.edge_alive(e)) continue;
      const NodeId w = u.other_endpoint(e, v);
      char& mark = eligible_[static_cast<std::size_t>(e)];
      if (mark == 0 && in_active_.contains(static_cast<std::size_t>(w))) {
        mark = 1;
        eligible_set.push_back(e);
      }
    }
  }
  // Only the active nodes are spawned; every other node is parked (see
  // congest::ProcessFactory): never scheduled, zero allocation, and a
  // stray kMatched announcement from a newly matched boundary neighbor
  // is discarded by the engine.
  report.stats = net_->run(region.active, israeli_itai_factory(eligible_),
                           opts_.round_budget);
  for (const EdgeId e : eligible_set) {
    eligible_[static_cast<std::size_t>(e)] = 0;
  }
  if (!report.stats.completed) return false;  // caller falls back to full

  net_->refresh_matching(region.active, matching_);
  // The run only rewires active–active pairs (eligibility) and only
  // drops pairs whose endpoints are both active (a matched region node
  // with an outside mate is frozen by construction), so the mate mirror
  // changes on active nodes alone.
  note_mates(region.active);
  return true;
}

void RepairEngine::run_augment(std::span<const NodeId> active,
                               std::uint64_t epoch_index,
                               EpochReport& report) {
  AugmentOptions ao;
  ao.quality_k = opts_.quality_k;
  // Decorrelate the color stream from the network seed (the augment
  // lottery and the repair protocol must not share randomness).
  ao.seed = fork_seed(opts_.seed ^ 0xd6e8feb86659fd93ULL, g_.generation());
  ao.epoch_index = epoch_index;
  const AugmentReport ar =
      augment_region(*net_, g_, active, matching_, ao, augment_scratch_);
  report.augment_iterations += ar.iterations;
  report.augment_phase_iterations += ar.phase_iterations;
  report.augment_gained += ar.gained;
  report.stats.merge(ar.stats);
  // Augmenting rewires active pairs only.
  note_mates(active);
}

void RepairEngine::note_mates(std::span<const NodeId> nodes) {
  for (const NodeId v : nodes) {
    NodeId& mirror = mate_[static_cast<std::size_t>(v)];
    const NodeId now = matching_.mate(v);
    if (mirror == now) continue;
    mirror = now;
    changed_.push_back(v);
  }
}

int RepairEngine::sweep_leftovers(std::span<const NodeId> seeds) {
  const Graph& u = g_.universe();
  sweep_.begin(u, matching_, 2 * opts_.quality_k - 1,
               [this](EdgeId e) { return g_.edge_alive(e); });
  sweep_.seed(seeds);
  // Flip paths until none of length <= 2k-1 remains (Lemma 3.2 then
  // gives ratio >= k/(k+1) >= 1 - 1/k). Each flip grows |M|, so the loop
  // terminates; the search is deterministic, so the trajectory is. A
  // flip can only create paths through its own nodes, so they are the
  // next seeds.
  int applied = 0;
  while (const std::optional<std::vector<EdgeId>> path = sweep_.next()) {
    matching_.augment(u, *path);
    std::vector<NodeId> nodes;
    for (const EdgeId e : *path) {
      const Edge& ed = u.edge(e);
      nodes.push_back(ed.u);
      nodes.push_back(ed.v);
    }
    for (const NodeId x : nodes) {
      net_->set_register(x, matching_.matched_edge(x));
      mate_[static_cast<std::size_t>(x)] = matching_.mate(x);
    }
    sweep_.seed(nodes);
    ++applied;
  }
  return applied;
}

void RepairEngine::refresh_totals(EpochReport& report) {
  const auto n = g_.node_count();
  std::size_t size = 0;
  Weight weight = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId w = matching_.mate(v);
    if (w == kNoNode || w < v) continue;
    ++size;
    weight += g_.effective_weight(matching_.matched_edge(v));
  }
  report.matching_size = size;
  report.matching_weight = weight;
}

EpochReport RepairEngine::apply_epoch(const Epoch& epoch,
                                      std::span<const UpdateOp> ops) {
  const auto t0 = std::chrono::steady_clock::now();
  EpochReport report;
  report.epoch = epoch;
  report.ops = ops.size();
  auto lap_start = t0;
  const auto lap = [&report, &lap_start](EpochPhase phase) {
    const auto now = std::chrono::steady_clock::now();
    report.phase_ns[phase] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - lap_start)
            .count();
    lap_start = now;
  };
  changed_.clear();

  // 1. Ops -> masks + mate bookkeeping + invalidation seeds. The seeds
  // must see the mates AT APPLICATION TIME (a later op may clear them).
  for (const UpdateOp& op : ops) {
    const auto mate_of = [&](NodeId x) {
      return x >= 0 && static_cast<std::size_t>(x) < mate_.size()
                 ? mate_[static_cast<std::size_t>(x)]
                 : kNoNode;
    };
    const NodeId mu = mate_of(op.u);
    const NodeId mv = mate_of(op.v);
    tracker_.touch_op(op, mu, mv);
    g_.apply(op);
    switch (op.kind) {
      case OpKind::kEdgeDelete:
        if (mu == op.v && mu != kNoNode) {
          mate_[static_cast<std::size_t>(op.u)] = kNoNode;
          mate_[static_cast<std::size_t>(op.v)] = kNoNode;
        }
        break;
      case OpKind::kVertexDepart:
        if (mu != kNoNode) {
          mate_[static_cast<std::size_t>(op.u)] = kNoNode;
          mate_[static_cast<std::size_t>(mu)] = kNoNode;
        }
        break;
      default:
        break;  // inserts, weight changes and returns free no pairs
    }
  }

  // 2. Universe rebuild if the epoch introduced new pairs / vertices.
  if (g_.needs_rebuild()) {
    g_.rebuild();
    report.rebuilt = true;
    const NodeId n = g_.node_count();
    mate_.resize(static_cast<std::size_t>(n), kNoNode);
    if (matching_.node_count() < n) {
      // Edge ids survive rebuilds (old edges keep their position), so
      // the matching transfers pair by pair into the wider id space.
      Matching grown(n);
      for (NodeId v = 0; v < matching_.node_count(); ++v) {
        const NodeId w = matching_.mate(v);
        if (w != kNoNode && v < w) grown.add(g_.universe(),
                                             matching_.matched_edge(v));
      }
      matching_ = std::move(grown);
    }
    rebuild_network();  // re-seeds registers from matching_
  }
  lap(kPhaseOps);

  // 3. Seeds -> dirty region. The Israeli–Itai repair re-matches only
  // the dirty_hops core; with the augment stage on, the *arena* — the
  // region augmenting paths live in — widens to max(dirty_hops, 2k-1)
  // hops (a length-(2k-1) path rooted at a seed spans that ball), but
  // its matched pairs only participate, they are never cleared. The
  // quality path therefore keeps the seeds pending and expands the
  // arena after the repair, so the frozen split sees the repaired mates.
  const bool quality = opts_.quality_k >= 2;
  const bool had_seeds = !tracker_.empty();
  if (quality) {
    // The op seeds open the sweep's change log.
    changed_.assign(tracker_.seeds().begin(), tracker_.seeds().end());
  }
  DirtyRegion region;
  if (had_seeds) {
    region = tracker_.expand(g_, mate_, opts_.dirty_hops, !quality);
  }
  report.dirty_nodes = region.nodes.size();
  report.active_nodes = region.active.size();
  report.frozen_nodes = region.frozen.size();
  lap(kPhaseExpand);

  // 4. Repair, then (quality_k >= 2) the beyond-maximal augment stage.
  if (!region.active.empty()) {
    const double live = static_cast<double>(g_.live_vertex_count());
    const bool want_full =
        opts_.fallback_fraction <= 0.0 ||
        static_cast<double>(region.nodes.size()) >
            opts_.fallback_fraction * live;
    if (want_full || !run_incremental(region, report)) {
      run_full(report);
    }
  }
  lap(kPhaseRepair);
  if (quality && had_seeds) {
    const std::uint64_t color_epoch = epoch.index + 1;
    std::vector<NodeId> live;
    if (report.full_recompute) {
      tracker_.reset();  // a full recompute supersedes the seeds
      live = collect_live(g_);
      run_augment(live, color_epoch, report);
    } else {
      const int wide = std::max(opts_.dirty_hops, 2 * opts_.quality_k - 1);
      const DirtyRegion arena = tracker_.expand(g_, mate_, wide);
      lap(kPhaseExpand);
      if (!arena.active.empty()) {
        run_augment(arena.active, color_epoch, report);
      }
    }
    lap(kPhaseAugment);
    // Region augmenting cannot see paths that cross the frozen
    // boundary (frozen pairs pin endpoints, never interiors); the
    // whole-graph loop can in principle exhaust its paper budget. The
    // host-side sweep closes both gaps deterministically — in the
    // common case it is one dry search of the changed nodes' balls.
    // After a full recompute every node may have changed.
    const int flips = sweep_leftovers(
        report.full_recompute ? std::span<const NodeId>(live)
                              : std::span<const NodeId>(changed_));
    if (flips > 0) {
      report.augment_escalated = true;
      report.augment_gained += flips;
    }
    lap(kPhaseSweep);
  }

  // 5. Totals + telemetry; certification is diagnostics and sits outside
  // the measured repair latency.
  refresh_totals(report);
  const auto t1 = std::chrono::steady_clock::now();
  report.repair_seconds = std::chrono::duration<double>(t1 - t0).count();
  report.phase_ns[kPhaseTotal] =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();

  DMATCH_OBS({
    obs::Observer* const ob = opts_.observer;
    if (ob != nullptr) {
      ob->instant(obs::EventType::kDynEpoch, report.ops, epoch.index);
      if (report.rebuilt) {
        ob->instant(obs::EventType::kDynRebuild,
                    static_cast<std::uint64_t>(g_.universe().edge_count()),
                    g_.generation());
      }
      ob->instant(obs::EventType::kDynRepair, report.dirty_nodes,
                  report.full_recompute ? 1 : 0);
      obs::ShardObs* const sh = ob->shard(0);
      const obs::StdMetricIds& ids = ob->ids();
      sh->count(ids.dyn_epochs);
      sh->observe(ids.dyn_epoch_ops_hist, report.ops);
      sh->observe(ids.dyn_dirty_nodes_hist, report.dirty_nodes);
      sh->count(report.full_recompute ? ids.dyn_full_recomputes
                                      : ids.dyn_incremental_repairs);
      if (report.rebuilt) sh->count(ids.dyn_rebuilds);
      if (opts_.quality_k >= 2 && report.augment_iterations > 0) {
        ob->instant(obs::EventType::kDynAugment,
                    static_cast<std::uint64_t>(report.augment_gained),
                    report.augment_escalated ? 1 : 0);
        sh->count(ids.dyn_augment_runs);
        if (report.augment_escalated) sh->count(ids.dyn_augment_escalations);
        sh->observe(ids.dyn_augment_iterations_hist,
                    static_cast<std::uint64_t>(report.augment_iterations));
        sh->observe(ids.dyn_augment_gained_hist,
                    static_cast<std::uint64_t>(report.augment_gained));
      }
    }
  })

  if (opts_.certify) {
    CertifiedSnapshot cert = certify_now(opts_.certify_ratio);
    report.certificate = cert.report;
    // Maximality is part of the service contract; surface a failed check
    // through the certificate's validity, which every caller inspects.
    if (!cert.maximal) report.certificate->valid = false;
    // Quality contract: with the augment stage on, the certified ratio
    // against the live optimum must clear the paper bound.
    if (opts_.quality_k >= 2 && opts_.certify_ratio &&
        report.certificate->ratio + 1e-9 <
            1.0 - 1.0 / static_cast<double>(opts_.quality_k)) {
      report.certificate->valid = false;
    }
  }
  return report;
}

RepairEngine::CertifiedSnapshot RepairEngine::certify_now(
    bool compute_ratio) const {
  CertifiedSnapshot out;
  std::vector<EdgeId> uedge;
  out.graph = g_.snapshot(&uedge);
  Matching sm(out.graph.node_count());
  std::size_t carried = 0;
  for (EdgeId i = 0; i < out.graph.edge_count(); ++i) {
    const Edge& ed = out.graph.edge(i);
    if (matching_.matched_edge(ed.u) == uedge[static_cast<std::size_t>(i)]) {
      sm.add(out.graph, i);
      ++carried;
    }
  }
  // Every matched pair must sit on an alive edge; a drop here means the
  // engine kept a stale pair across a deletion or departure.
  DMATCH_ASSERT(carried == matching_.size());
  out.report =
      verify_matching_invariants(out.graph, sm, g_.dead_mask(), compute_ratio);
  out.maximal = sm.is_maximal(out.graph);
  out.matching = std::move(sm);
  return out;
}

}  // namespace dmatch::dyn
