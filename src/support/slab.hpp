// Sharded SoA register slabs for the round engine's hot per-node state.
//
// A ShardSlab<T> stores `count` logical values partitioned into the
// balanced contiguous shard layout (support::balanced_range). Each shard's
// values live in their own 64-byte-aligned segment, so two shards never
// share a cache line and the single-writer-per-shard discipline of the
// executors produces no false sharing. Within a shard the values are
// contiguous in logical order, so the round loop's linear scans stay
// sequential.
//
// Indexing: shard_view(s) returns a pointer P such that P[v] is node v's
// slot for every v in range(s) — i.e. the view is biased by the shard's
// global begin, letting shard code keep using global node ids with zero
// arithmetic per access. at(v) resolves the owning shard for cold
// cross-shard paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "support/sched.hpp"

namespace dmatch::support {

/// Minimal 64-byte-aligned allocator so plain std::vector buffers can back
/// cache-line-aligned slabs and mailbox stamp arrays.
template <typename T, std::size_t Align = 64>
struct AlignedAlloc {
  using value_type = T;
  // The non-type Align parameter defeats allocator_traits' automatic
  // rebind, so spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "Align must be a power of two >= alignof(T)");

  AlignedAlloc() noexcept = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t(Align));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (p != nullptr) {
      ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
    }
  }
  template <typename U>
  [[nodiscard]] bool operator==(const AlignedAlloc<U, Align>&) const noexcept {
    return true;
  }
};

/// Make room for `n` elements in `v`, at least doubling its capacity when
/// it has to grow: a buffer re-laid out for a slowly growing graph then
/// reallocates O(log) times over its life, while a first sizing reserves
/// exactly `n`.
template <typename Vec>
void reserve_geometric(Vec& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(n > 2 * v.capacity() ? n : 2 * v.capacity());
}

template <typename T>
class ShardSlab {
  static_assert(64 % sizeof(T) == 0,
                "slab element size must divide the 64-byte line so shard "
                "segments can stay line-aligned without interior padding");

 public:
  ShardSlab() = default;

  /// (Re)build the slab for `count` values across `shards` segments, every
  /// slot initialized to `init`. Layout is the balanced_range partition.
  /// The storage is reused, and grows geometrically, across resets.
  void reset(std::size_t count, unsigned shards, const T& init) {
    count_ = count;
    shards_ = shards == 0 ? 1 : shards;
    base_.assign(shards_, 0);
    std::size_t total = 0;
    constexpr std::size_t kPerLine = 64 / sizeof(T);
    for (unsigned s = 0; s < shards_; ++s) {
      base_[s] = total;
      const BalancedRange r = balanced_range(count_, shards_, s);
      const std::size_t len = r.end - r.begin;
      // Round each segment up to whole cache lines; padding slots are
      // initialized but never addressed through the public API.
      total += (len + kPerLine - 1) / kPerLine * kPerLine;
    }
    reserve_geometric(data_, total);
    data_.assign(total, init);
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] unsigned shards() const noexcept { return shards_; }
  [[nodiscard]] BalancedRange range(unsigned s) const noexcept {
    return balanced_range(count_, shards_, s);
  }

  /// Globally-indexed view of shard s: valid for indices in range(s).
  [[nodiscard]] T* shard_view(unsigned s) noexcept {
    return data_.data() + base_[s] - range(s).begin;
  }
  [[nodiscard]] const T* shard_view(unsigned s) const noexcept {
    return data_.data() + base_[s] - range(s).begin;
  }

  [[nodiscard]] T& at(std::size_t global) noexcept {
    return shard_view(balanced_part_of(count_, shards_, global))[global];
  }
  [[nodiscard]] const T& at(std::size_t global) const noexcept {
    return shard_view(balanced_part_of(count_, shards_, global))[global];
  }

  /// Set every value slot (not the padding) to `v`.
  void fill(const T& v) {
    for (unsigned s = 0; s < shards_; ++s) {
      T* view = shard_view(s);
      const BalancedRange r = range(s);
      for (std::size_t i = r.begin; i < r.end; ++i) view[i] = v;
    }
  }

  /// Copy all values out in logical order (out is resized to count()).
  void copy_to(std::vector<T>& out) const {
    out.resize(count_);
    for (unsigned s = 0; s < shards_; ++s) {
      const T* view = shard_view(s);
      const BalancedRange r = range(s);
      for (std::size_t i = r.begin; i < r.end; ++i) out[i] = view[i];
    }
  }

  /// Restore all values from a logical-order vector of size count().
  void assign_from(const std::vector<T>& in) {
    for (unsigned s = 0; s < shards_; ++s) {
      T* view = shard_view(s);
      const BalancedRange r = range(s);
      for (std::size_t i = r.begin; i < r.end; ++i) view[i] = in[i];
    }
  }

 private:
  std::vector<T, AlignedAlloc<T>> data_;
  std::vector<std::size_t> base_;
  std::size_t count_ = 0;
  unsigned shards_ = 1;
};

}  // namespace dmatch::support
