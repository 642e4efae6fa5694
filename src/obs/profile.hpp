// Congestion profiler: per-link traffic totals and per-round curves.
//
// The profiler binds to one graph's sender-side slot layout (slot =
// slot_offset[v] + port, the same CSR prefix-sum layout the round
// engine routes with). Each directed slot has exactly one writer — the
// engine worker that owns the sending node's shard — so record() is two
// plain adds into global arrays with no atomics, and the totals are
// shard-layout independent by construction. Per-round message/bit
// curves are appended by the driver thread at round end from the
// engine's own per-round deltas, which doubles as the cross-check
// against RunStats.round_messages (see core/verify).
//
// Runs on other graphs (e.g. the subsidiary nets built by the MCM/MWM
// drivers) are not link-profiled: only the first graph bound after
// construction is, so the hot-links report stays about the input graph.
// That graph is recognised by its address. If the graph at that address
// later has a different node or slot count (a dyn universe rebuild
// replaces the Graph in place), bind() takes the new layout and clears
// the link counts, so the report covers the current graph only.
//
// Sketch mode (ObsConfig::profile_sketch > 0): instead of the exact
// O(m)-word per-slot array, traffic is folded into a count-min sketch
// of kSketchRows rows x width columns, PER SHARD, so memory is
// O(shards x width) independent of the graph. Each shard worker writes
// only its own slab (single-writer, no atomics); slabs are merged by
// summation at export, and the column of a slot is a pure hash of the
// slot id — both commutative and layout-free, so sketch reports are
// byte-identical across thread counts and shard counts just like exact
// ones. Point estimates are the classic CMS per-row minimum: never
// under the true count, over it only on (deterministic) collisions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "graph/graph.hpp"

namespace dmatch::obs {

class CongestionProfiler {
 public:
  /// Rows of the count-min sketch. Two suffice for the top-K use case:
  /// the report only needs the heavy hitters ordered, and a heavy slot
  /// colliding with another heavy slot in BOTH rows is what it takes to
  /// perturb the ranking.
  static constexpr std::size_t kSketchRows = 2;

  /// Column of `slot` in sketch row `row`: multiplicative hashing with
  /// per-row odd constants. Pure function of the slot id — never of
  /// arrival order or shard layout.
  [[nodiscard]] static std::size_t sketch_col(std::size_t slot,
                                              std::size_t row,
                                              std::size_t mask) noexcept {
    constexpr std::uint64_t kMul[kSketchRows] = {0x9e3779b97f4a7c15ULL,
                                                 0xc2b2ae3d27d4eb4fULL};
    return static_cast<std::size_t>(
               ((static_cast<std::uint64_t>(slot) + 1) * kMul[row]) >> 32) &
           mask;
  }

  /// Select sketch mode. Must be called before the first bind();
  /// width 0 keeps the exact per-slot array, width > 0 is rounded up to
  /// a power of two (minimum 64) and bind() then allocates no O(m)
  /// state at all.
  void set_sketch_width(std::size_t width) noexcept {
    if (width == 0) {
      sketch_width_ = 0;
      return;
    }
    std::size_t w = 64;
    while (w < width) w <<= 1;
    sketch_width_ = w;
  }
  [[nodiscard]] bool sketch_mode() const noexcept { return sketch_width_ > 0; }
  [[nodiscard]] std::size_t sketch_mask() const noexcept {
    return sketch_width_ == 0 ? 0 : sketch_width_ - 1;
  }

  /// Grow the per-shard sketch slabs to `n` shards (driver thread,
  /// between runs). Existing slabs keep their contents and addresses.
  void ensure_sketch_shards(unsigned n) {
    while (sketch_.size() < n) {
      sketch_.emplace_back(kSketchRows * 2 * sketch_width_, 0);
    }
  }
  /// Shard `s`'s slab: kSketchRows consecutive rows of width
  /// interleaved (messages, bits) pairs. Stable until more shards grow.
  [[nodiscard]] std::uint64_t* sketch_data(unsigned s) noexcept {
    return sketch_[s].data();
  }

  /// Bind the profiler to `g`'s slot layout. Returns true if runs on
  /// this graph should be profiled (first graph bound wins; re-binding
  /// the same address returns true again, any other address false). A
  /// graph at the bound address whose node or slot count changed is
  /// re-bound with cleared counts. O(1) unless it re-binds.
  bool bind(const Graph& g);

  [[nodiscard]] bool bound() const noexcept { return g_ != nullptr; }

  // Hot path: single writer per slot (the sender's shard worker). The
  // (messages, bits) pair of a slot is interleaved in one array so both
  // adds land on the same cache line; ShardObs caches data() and inlines
  // this in link_message().
  void record(std::size_t slot, std::uint32_t bits) {
    link_[2 * slot] += 1;
    link_[2 * slot + 1] += bits;
  }

  /// Raw interleaved per-slot array ([2k] = messages, [2k+1] = bits of
  /// slot k), stable until the next bind(). nullptr when unbound.
  [[nodiscard]] std::uint64_t* data() noexcept {
    return link_.empty() ? nullptr : link_.data();
  }

  /// Driver thread, once per executed round (any run, bound or not: the
  /// curves cover the whole driver run, link totals only the bound graph).
  void round_end(std::uint64_t msgs, std::uint64_t bits) {
    round_msgs_.push_back(msgs);
    round_bits_.push_back(bits);
  }

  // Aborted-round rollback (driver thread, workers quiescent): the
  // engine snapshots the link arrays at round start under active fault
  // plans and restores them if the round aborts, so partial layouts
  // never leak into the totals.
  struct LinkSnapshot {
    std::vector<std::uint64_t> link;
    std::vector<std::vector<std::uint64_t>> sketch;
  };
  [[nodiscard]] LinkSnapshot snapshot_links() const { return {link_, sketch_}; }
  void restore_links(const LinkSnapshot& s) {
    // Element-wise so cached data() / sketch_data() pointers stay valid.
    std::copy(s.link.begin(), s.link.end(), link_.begin());
    for (std::size_t i = 0; i < s.sketch.size(); ++i) {
      std::copy(s.sketch[i].begin(), s.sketch[i].end(), sketch_[i].begin());
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& round_messages() const
      noexcept {
    return round_msgs_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& round_bits() const noexcept {
    return round_bits_;
  }

  struct LinkStat {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
  };
  /// Top-k directed links by bits (ties broken by slot id: stable and
  /// shard-layout independent). In sketch mode the per-link values are
  /// CMS point estimates over the shard-merged sketch: >= the truth,
  /// equal to it absent double-row collisions.
  [[nodiscard]] std::vector<LinkStat> top_links(std::size_t k) const;

  /// {"links":[...], "rounds":{"messages":[...], "bits":[...]}}
  void write_json(std::ostream& out, std::size_t top_k) const;

 private:
  [[nodiscard]] std::vector<std::uint64_t> merged_sketch() const;

  const Graph* g_ = nullptr;
  std::vector<std::size_t> slot_offset_;  // size n+1, CSR prefix sums
  std::vector<std::uint64_t> link_;       // interleaved (messages, bits);
                                          // empty in sketch mode
  std::size_t sketch_width_ = 0;          // 0 = exact mode
  std::vector<std::vector<std::uint64_t>> sketch_;  // per-shard CMS slabs
  std::vector<std::uint64_t> round_msgs_;
  std::vector<std::uint64_t> round_bits_;
};

}  // namespace dmatch::obs
