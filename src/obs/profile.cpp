#include "obs/profile.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "support/assert.hpp"

namespace dmatch::obs {

bool CongestionProfiler::bind(const Graph& g) {
  if (g_ != nullptr && g_ != &g) return false;
  // First graph bound wins, recognised by its address. An owner may
  // replace the graph at that address (DynGraph's universe rebuild puts
  // a larger one there), so a changed node or slot count re-binds: the
  // new layout, with the counts cleared.
  const auto n = static_cast<std::size_t>(g.node_count());
  const auto slots = 2 * static_cast<std::size_t>(g.edge_count());
  if (g_ == &g && slot_offset_.size() == n + 1 && slot_offset_[n] == slots) {
    return true;
  }
  g_ = &g;
  for (auto& slab : sketch_) std::fill(slab.begin(), slab.end(), 0);
  slot_offset_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    slot_offset_[v + 1] =
        slot_offset_[v] +
        static_cast<std::size_t>(g.degree(static_cast<NodeId>(v)));
  }
  // Sketch mode keeps only the O(n) slot offsets (needed to name the
  // reported links); the O(m) per-slot array is never allocated.
  if (sketch_width_ == 0) link_.assign(2 * slot_offset_[n], 0);
  return true;
}

std::vector<std::uint64_t> CongestionProfiler::merged_sketch() const {
  std::vector<std::uint64_t> merged(kSketchRows * 2 * sketch_width_, 0);
  for (const auto& slab : sketch_) {
    for (std::size_t i = 0; i < merged.size(); ++i) merged[i] += slab[i];
  }
  return merged;
}

std::vector<CongestionProfiler::LinkStat> CongestionProfiler::top_links(
    std::size_t k) const {
  // (messages, bits) of slot s under either mode. Export-time only; the
  // hot path never goes through this indirection.
  std::vector<std::uint64_t> merged;
  if (sketch_width_ > 0) merged = merged_sketch();
  const auto slot_stat =
      [&](std::size_t s) -> std::pair<std::uint64_t, std::uint64_t> {
    if (sketch_width_ == 0) return {link_[2 * s], link_[2 * s + 1]};
    const std::size_t mask = sketch_width_ - 1;
    std::uint64_t msgs = ~std::uint64_t{0};
    std::uint64_t bits = ~std::uint64_t{0};
    for (std::size_t row = 0; row < kSketchRows; ++row) {
      const std::size_t c =
          2 * sketch_width_ * row + 2 * sketch_col(s, row, mask);
      msgs = std::min(msgs, merged[c]);
      bits = std::min(bits, merged[c + 1]);
    }
    return {msgs, bits};
  };

  const std::size_t slot_count =
      slot_offset_.empty() ? 0 : slot_offset_.back();
  std::vector<std::size_t> slots;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stat(slot_count);
  for (std::size_t s = 0; s < slot_count; ++s) {
    stat[s] = slot_stat(s);
    if (stat[s].first != 0) slots.push_back(s);
  }
  const auto by_heat = [&](std::size_t x, std::size_t y) {
    if (stat[x].second != stat[y].second) return stat[x].second > stat[y].second;
    return x < y;
  };
  if (slots.size() > k) {
    std::partial_sort(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(k),
                      slots.end(), by_heat);
    slots.resize(k);
  } else {
    std::sort(slots.begin(), slots.end(), by_heat);
  }

  std::vector<LinkStat> out;
  out.reserve(slots.size());
  for (const std::size_t s : slots) {
    const auto it =
        std::upper_bound(slot_offset_.begin(), slot_offset_.end(), s);
    const auto src =
        static_cast<NodeId>(std::distance(slot_offset_.begin(), it) - 1);
    const int port = static_cast<int>(s - slot_offset_[static_cast<std::size_t>(src)]);
    out.push_back({src, g_->neighbor(src, port), stat[s].first, stat[s].second});
  }
  return out;
}

void CongestionProfiler::write_json(std::ostream& out, std::size_t top_k) const {
  out << "{\n  \"links\": [";
  bool first = true;
  for (const LinkStat& l : top_links(top_k)) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"src\": " << l.src << ", \"dst\": " << l.dst
        << ", \"messages\": " << l.messages << ", \"bits\": " << l.bits << "}";
  }
  out << "\n  ],\n  \"rounds\": {\n    \"messages\": [";
  for (std::size_t i = 0; i < round_msgs_.size(); ++i) {
    out << (i == 0 ? "" : ",") << round_msgs_[i];
  }
  out << "],\n    \"bits\": [";
  for (std::size_t i = 0; i < round_bits_.size(); ++i) {
    out << (i == 0 ? "" : ",") << round_bits_[i];
  }
  out << "]\n  }\n}\n";
}

}  // namespace dmatch::obs
