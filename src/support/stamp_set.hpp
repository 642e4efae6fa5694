// Epoch-stamped membership over a dense id space.
//
// A StampSet marks member i by writing the current stamp into slot i, so
// clear() is one increment instead of an O(n) sweep: a service that
// touches a small region of a large id space every epoch pays for the
// region, not for the space. The stamp array only grows (grow keeps the
// members), and a wrapped stamp zeroes the array once every 2^32 clears.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmatch::support {

class StampSet {
 public:
  /// Make ids [0, n) addressable.
  void grow(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
  }
  /// Empty the set in O(1).
  void clear() {
    if (++current_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      current_ = 1;
    }
  }
  [[nodiscard]] bool contains(std::size_t i) const {
    return i < stamp_.size() && stamp_[i] == current_;
  }
  /// Add i (which must be addressable); false if it was already there.
  bool insert(std::size_t i) {
    if (stamp_[i] == current_) return false;
    stamp_[i] = current_;
    return true;
  }
  void erase(std::size_t i) { stamp_[i] = 0; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_ = 1;
};

}  // namespace dmatch::support
