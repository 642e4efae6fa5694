// The one LOCAL augmentation engine behind Algorithms 1 + 2 (Theorem 3.7,
// core/local_generic_mcm) and Section 4's (1 - eps)-MWM remark
// (core/local_mwm). Both treat short augmentations as hyperedges and
// select an independent set of them (as Harris, arXiv 1807.07645, does for
// both problems), so one node process runs both. One run is one phase of
// Algorithm 1 or one sweep of the remark. Round schedule for
// augmentations of at most L edges, C classes of T MIS iterations each and
// an augment stage of A rounds:
//
//   [0, 2L)                  view flooding: node and edge records until
//                            every node holds its distance-2L view
//                            (Algorithm 2's exploration);
//   2L                       local stage: each node rebuilds its view, the
//                            policy lists the augmentations in it, and the
//                            node keeps the ones it leads (their front
//                            node) with their conflict sets;
//   [2L, 2L + C*T*2L)        Luby's MIS emulated on the conflict graph, one
//                            class at a time, heaviest first: leaders draw
//                            one value per undecided augmentation and
//                            flood records for 2L rounds, then decide
//                            locally; a join knocks out intersecting
//                            augmentations of every class one iteration
//                            later (Lemma 3.5's emulation);
//   [2L(CT + 1), ... + A)    augment stage: the leader of each selected
//                            augmentation sends its node sequence along
//                            it, and every node on it repoints its
//                            register.
//
// A policy supplies what differs between the two algorithms: the
// enumerator `candidates(view, schedule)`, the 64-bit `signature` of a
// node sequence (it orders the record maps and breaks MIS ties), and
// `kWeighted`, which adds the three weighted wire fields: the VIEW edge
// weight (64 bits), the MIS gain class (8 bits) and the AUGMENT cycle
// flag (1 bit).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "support/wire.hpp"

namespace dmatch::local {

/// One run's schedule: augmentations of at most `len` edges, `classes` x
/// `iterations` MIS blocks of 2 * len rounds, `augment_rounds` rounds to
/// walk the selected augmentations.
struct Schedule {
  int len = 1;
  int classes = 1;
  int iterations = 2;
  int augment_rounds = 2;

  /// The run's round budget.
  [[nodiscard]] int max_rounds() const {
    return 2 * len + classes * iterations * 2 * len + len + 4;
  }
};

/// Luby iterations per class: ceil(log2 n^(len + 1)), at least 2, a bound
/// on the log of the number of augmentations of at most len edges.
inline int mis_iterations(int len, NodeId n) {
  return static_cast<int>(
      std::ceil(std::max(2.0, (len + 1) * std::log2(std::max(2, n)))));
}

/// A node's records rebuilt as a graph on local ids (ascending node id).
/// A matched node whose matched edge lies outside the view gets a phantom
/// mate, so alternation dead-ends there instead of fabricating an
/// augmentation. Phantoms follow the real nodes and weigh 1e30, so
/// dropping one never looks profitable; the MCM's enumerator reads no
/// weights.
struct View {
  Graph graph;
  Matching matching;
  std::vector<NodeId> to_global;  // local id -> node id, real nodes only
  Weight heaviest = 0;            // heaviest edge record held
};

/// An augmentation a node may lead: its node sequence in canonical
/// orientation (a cycle repeats its first node at the end) and its MIS
/// class (0 holds the heaviest gains).
struct Candidate {
  std::vector<NodeId> nodes;
  bool is_cycle = false;
  std::uint8_t gain_class = 0;
};

template <class Policy>
class AugmentProcess final : public congest::Process {
 public:
  AugmentProcess(NodeId id, const Graph& g, const Schedule& s)
      : id_(id),
        idw_(bit_width_for(
            static_cast<std::uint64_t>(std::max(1, g.node_count() - 1)))),
        s_(s) {}

  void on_round(congest::Context& ctx,
                std::span<const congest::Envelope> inbox) override {
    const int r = ctx.round();
    const int block = 2 * s_.len;  // the view stage and each MIS iteration
    const int blocks = s_.classes * s_.iterations;
    const int mis_end = block + blocks * block;

    ingest(ctx, inbox);

    if (r == 0) init_view(ctx);
    if (r < block) {
      broadcast_view(ctx);
    } else if (r == block) {
      enumerate();
      begin_iteration(ctx);
    } else if (r < mis_end) {
      if (r % block == 0) {  // MIS iteration r / block - 1 begins
        finish_iteration(r / block - 2);
        begin_iteration(ctx);
      } else {
        forward_records(ctx);
      }
    } else if (r == mis_end) {
      finish_iteration(blocks - 1);
      start_augments(ctx);
    }
    halted_ = r >= mis_end + s_.augment_rounds;
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  enum MsgKind : std::uint64_t { kViewMsg = 0, kMisMsg = 1, kAugmentMsg = 2 };
  enum class Status : std::uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };
  struct EdgeRec {
    bool matched = false;
    Weight weight = 1;
  };
  struct Record {
    std::uint64_t value = 0;
    NodeId leader = kNoNode;
    Status status = Status::kUndecided;
    std::uint8_t gain_class = 0;
  };
  using EdgeKey = std::pair<NodeId, NodeId>;

  static EdgeKey edge_key(NodeId a, NodeId b) { return std::minmax(a, b); }

  [[nodiscard]] int port_of(NodeId u) const {
    const auto it = neighbor_port_.find(u);
    DMATCH_ASSERT(it != neighbor_port_.end());
    return it->second;
  }

  static void broadcast(congest::Context& ctx, BitWriter&& w) {
    const congest::Message msg = congest::Message::from_writer(std::move(w));
    for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
  }

  void ingest(congest::Context& ctx, std::span<const congest::Envelope> inbox) {
    for (const congest::Envelope& env : inbox) {
      auto reader = env.msg.reader();
      switch (reader.read(2)) {
        case kViewMsg:
          ingest_view(reader);
          break;
        case kMisMsg:
          ingest_records(reader);
          break;
        case kAugmentMsg:
          ingest_augment(ctx, reader);
          break;
        default:
          break;
      }
    }
  }

  // ---- view stage -------------------------------------------------------

  void init_view(congest::Context& ctx) {
    node_recs_[id_] = ctx.mate_port() >= 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      const NodeId u = ctx.neighbor_id(p);
      edge_recs_[edge_key(id_, u)] = {p == ctx.mate_port(), ctx.edge_weight(p)};
      neighbor_port_[u] = p;
    }
  }

  void broadcast_view(congest::Context& ctx) {
    BitWriter w;
    w.write(kViewMsg, 2);
    w.write(node_recs_.size(), 32);
    for (const auto& [v, matched] : node_recs_) {
      w.write(static_cast<std::uint64_t>(v), idw_);
      w.write_bool(matched);
    }
    w.write(edge_recs_.size(), 32);
    for (const auto& [uv, rec] : edge_recs_) {
      w.write(static_cast<std::uint64_t>(uv.first), idw_);
      w.write(static_cast<std::uint64_t>(uv.second), idw_);
      w.write_bool(rec.matched);
      if constexpr (Policy::kWeighted) {
        w.write(std::bit_cast<std::uint64_t>(rec.weight), 64);
      }
    }
    broadcast(ctx, std::move(w));
  }

  void ingest_view(BitReader& reader) {
    const auto n_nodes = reader.read(32);
    for (std::uint64_t i = 0; i < n_nodes; ++i) {
      const auto v = static_cast<NodeId>(reader.read(idw_));
      node_recs_[v] = reader.read_bool();
    }
    const auto n_edges = reader.read(32);
    for (std::uint64_t i = 0; i < n_edges; ++i) {
      const auto u = static_cast<NodeId>(reader.read(idw_));
      const auto v = static_cast<NodeId>(reader.read(idw_));
      EdgeRec rec;
      rec.matched = reader.read_bool();
      if constexpr (Policy::kWeighted) {
        rec.weight = std::bit_cast<Weight>(reader.read(64));
      }
      edge_recs_[{u, v}] = rec;
    }
  }

  // ---- local stage: view, candidates, conflicts -------------------------

  [[nodiscard]] View rebuild_view() const {
    View view;
    std::map<NodeId, NodeId> to_local;
    for (const auto& [v, matched] : node_recs_) {
      to_local[v] = static_cast<NodeId>(view.to_global.size());
      view.to_global.push_back(v);
    }
    std::vector<Edge> edges;
    std::vector<char> edge_matched;
    for (const auto& [uv, rec] : edge_recs_) {
      if (rec.weight < 1e29) {
        view.heaviest = std::max(view.heaviest, rec.weight);
      }
      // A boundary edge record can arrive one hop before the node record of
      // its far endpoint; such edges lie outside the usable view radius.
      const auto u_it = to_local.find(uv.first);
      const auto v_it = to_local.find(uv.second);
      if (u_it == to_local.end() || v_it == to_local.end()) continue;
      edges.push_back({u_it->second, v_it->second, rec.weight});
      edge_matched.push_back(rec.matched);
    }
    std::vector<char> has_matched(view.to_global.size(), false);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!edge_matched[i]) continue;
      has_matched[static_cast<std::size_t>(edges[i].u)] = true;
      has_matched[static_cast<std::size_t>(edges[i].v)] = true;
    }
    auto total = static_cast<NodeId>(view.to_global.size());
    std::vector<EdgeId> phantom;
    for (const auto& [v, matched] : node_recs_) {
      const NodeId lv = to_local.at(v);
      if (matched && !has_matched[static_cast<std::size_t>(lv)]) {
        phantom.push_back(static_cast<EdgeId>(edges.size()));
        edges.push_back({lv, total++, 1e30});
      }
    }
    view.graph = Graph::from_edges(total, std::move(edges));
    view.matching = Matching(view.graph.node_count());
    for (EdgeId e = 0; e < static_cast<EdgeId>(edge_matched.size()); ++e) {
      if (edge_matched[static_cast<std::size_t>(e)]) {
        view.matching.add(view.graph, e);
      }
    }
    for (const EdgeId e : phantom) view.matching.add(view.graph, e);
    return view;
  }

  void enumerate() {
    for (Candidate& c : Policy::candidates(rebuild_view(), s_)) {
      const std::uint64_t sig = Policy::signature(c.nodes);
      if (all_.try_emplace(sig, std::move(c)).first->second.nodes.front() ==
          id_) {
        own_.push_back(sig);
      }
    }
    for (const auto& [sig, c] : all_) {
      const std::set<NodeId> nodes(c.nodes.begin(), c.nodes.end());
      for (const std::uint64_t own : own_) {
        if (own == sig) continue;
        const auto& mine = all_.at(own).nodes;
        if (std::any_of(mine.begin(), mine.end(), [&nodes](NodeId v) {
              return nodes.count(v) > 0;
            })) {
          conflicts_[own].insert(sig);
        }
      }
    }
    for (const std::uint64_t own : own_) {
      status_[own] = Status::kUndecided;
      conflicts_.try_emplace(own);
    }
  }

  // ---- MIS emulation, class by class -------------------------------------

  void begin_iteration(congest::Context& ctx) {
    records_.clear();
    forwarded_.clear();
    for (const std::uint64_t own : own_) {
      Record rec;
      rec.leader = id_;
      rec.status = status_[own];
      rec.gain_class = all_.at(own).gain_class;
      rec.value = ctx.rng()();
      records_[own] = rec;
    }
    forward_records(ctx);
  }

  void forward_records(congest::Context& ctx) {
    std::vector<std::pair<std::uint64_t, Record>> fresh;
    for (const auto& [sig, rec] : records_) {
      if (forwarded_.insert(sig).second) fresh.emplace_back(sig, rec);
    }
    if (fresh.empty()) return;
    BitWriter w;
    w.write(kMisMsg, 2);
    w.write(fresh.size(), 32);
    for (const auto& [sig, rec] : fresh) {
      w.write(sig, 64);
      w.write(rec.value, 64);
      w.write(static_cast<std::uint64_t>(rec.leader), idw_);
      w.write(static_cast<std::uint64_t>(rec.status), 2);
      if constexpr (Policy::kWeighted) w.write(rec.gain_class, 8);
    }
    broadcast(ctx, std::move(w));
  }

  void ingest_records(BitReader& reader) {
    const auto count = reader.read(32);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t sig = reader.read(64);
      Record rec;
      rec.value = reader.read(64);
      rec.leader = static_cast<NodeId>(reader.read(idw_));
      rec.status = static_cast<Status>(reader.read(2));
      if constexpr (Policy::kWeighted) {
        rec.gain_class = static_cast<std::uint8_t>(reader.read(8));
      }
      records_.try_emplace(sig, rec);
    }
  }

  void finish_iteration(int block) {
    const int cls = block / s_.iterations;
    for (const std::uint64_t own : own_) {
      if (status_[own] != Status::kUndecided) continue;
      const Record& mine = records_.at(own);
      // Blocked by any selected conflict, whatever its class; only the
      // current class competes.
      bool blocked = false;
      bool is_local_max = all_.at(own).gain_class == cls;
      for (const std::uint64_t other : conflicts_[own]) {
        const auto it = records_.find(other);
        if (it == records_.end()) {
          is_local_max = false;  // conservative on a missing record
          continue;
        }
        if (it->second.status == Status::kIn) {
          blocked = true;
          break;
        }
        if (it->second.status != Status::kUndecided ||
            it->second.gain_class != cls) {
          continue;
        }
        if (std::tuple(it->second.value, it->second.leader, other) >
            std::tuple(mine.value, mine.leader, own)) {
          is_local_max = false;
        }
      }
      if (blocked) {
        status_[own] = Status::kOut;
      } else if (is_local_max) {
        status_[own] = Status::kIn;
        // Sibling augmentations of the same leader always intersect (at
        // this leader); settle them immediately and locally.
        for (const std::uint64_t sib : own_) {
          if (sib != own && status_[sib] == Status::kUndecided &&
              conflicts_[own].count(sib) > 0) {
            status_[sib] = Status::kOut;
          }
        }
      }
    }
  }

  // ---- augment stage ------------------------------------------------------

  void start_augments(congest::Context& ctx) {
    for (const std::uint64_t own : own_) {
      if (status_[own] != Status::kIn) continue;
      const Candidate& c = all_.at(own);
      flip(ctx, c, 0);
      forward_augment(ctx, c, 0);
    }
  }

  void ingest_augment(congest::Context& ctx, BitReader& reader) {
    Candidate c;
    if constexpr (Policy::kWeighted) c.is_cycle = reader.read_bool();
    const auto len = reader.read(16);
    c.nodes.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) {
      c.nodes.push_back(static_cast<NodeId>(reader.read(idw_)));
    }
    // The receiver is never the leader at index 0, and a cycle repeats its
    // leader at the end: our index is our first occurrence past index 0.
    const auto at = std::find(c.nodes.begin() + 1, c.nodes.end(), id_);
    DMATCH_ASSERT(at != c.nodes.end());
    const auto index = static_cast<std::size_t>(at - c.nodes.begin());
    // A cycle's walk ends when it reaches the leader again.
    if (c.is_cycle && index + 1 == c.nodes.size()) return;
    flip(ctx, c, index);
    forward_augment(ctx, c, index);
  }

  /// The flip rule is local: the new mate sits across the adjacent
  /// non-matching edge of the augmentation (it becomes matching); a path
  /// end whose only augmentation edge was matched ends up free. On an
  /// augmenting path edge i is non-matching exactly when i is even.
  void flip(congest::Context& ctx, const Candidate& c, std::size_t index) {
    const auto& seq = c.nodes;
    const std::size_t last = seq.size() - 1;
    const auto matched = [&](std::size_t i) {
      const auto it = edge_recs_.find(edge_key(seq[i], seq[i + 1]));
      DMATCH_ASSERT(it != edge_recs_.end());
      return it->second.matched;
    };
    NodeId mate = kNoNode;
    if (c.is_cycle) {
      // seq[last] repeats seq[0]: node i < last has edges (i - 1, i),
      // wrapping to (last - 1, last) at i = 0, and (i, i + 1). Exactly one
      // is non-matching.
      DMATCH_ASSERT(index < last);
      const std::size_t prev = index == 0 ? last - 1 : index - 1;
      if (!matched(prev)) {
        mate = seq[prev];
      } else {
        DMATCH_ASSERT(!matched(index));
        mate = seq[index + 1];
      }
    } else if (index > 0 && !matched(index - 1)) {
      mate = seq[index - 1];
    } else if (index < last && !matched(index)) {
      mate = seq[index + 1];
    }
    if (mate == kNoNode) {
      ctx.clear_mate();
    } else {
      ctx.set_mate_port(port_of(mate));
    }
  }

  void forward_augment(congest::Context& ctx, const Candidate& c,
                       std::size_t index) {
    if (index + 1 >= c.nodes.size()) return;
    BitWriter w;
    w.write(kAugmentMsg, 2);
    if constexpr (Policy::kWeighted) w.write_bool(c.is_cycle);
    w.write(c.nodes.size(), 16);
    for (const NodeId v : c.nodes) w.write(static_cast<std::uint64_t>(v), idw_);
    ctx.send(port_of(c.nodes[index + 1]),
             congest::Message::from_writer(std::move(w)));
  }

  const NodeId id_;
  const unsigned idw_;  // bits per node id
  const Schedule s_;

  std::map<NodeId, bool> node_recs_;  // node -> matched
  std::map<EdgeKey, EdgeRec> edge_recs_;
  std::map<NodeId, int> neighbor_port_;

  std::map<std::uint64_t, Candidate> all_;  // by signature
  std::vector<std::uint64_t> own_;          // the ones this node leads
  std::map<std::uint64_t, std::set<std::uint64_t>> conflicts_;
  std::map<std::uint64_t, Status> status_;

  std::map<std::uint64_t, Record> records_;  // this MIS iteration's
  std::set<std::uint64_t> forwarded_;

  bool halted_ = false;
};

/// The node program of one run with schedule `s`.
template <class Policy>
congest::ProcessFactory factory(const Schedule& s) {
  return [s](NodeId v, const Graph& g) -> std::unique_ptr<congest::Process> {
    return std::make_unique<AugmentProcess<Policy>>(v, g, s);
  };
}

}  // namespace dmatch::local
