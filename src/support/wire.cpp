#include "support/wire.hpp"

#include <algorithm>

namespace dmatch {

void Words::copy_from(const Words& o) {
  bits_ = o.bits_;
  if (!o.on_heap()) {
    store_ = o.store_;
    return;
  }
  const std::uint32_t n = o.word_count();
  if (n <= kInlineWords) {
    std::copy_n(o.store_.heap, n, store_.inline_words);
    return;
  }
  store_.heap = new std::uint64_t[n];
  cap_ = n;
  std::copy_n(o.store_.heap, n, store_.heap);
}

void Words::reserve(std::uint32_t words) {
  if (words <= cap_) return;
  const std::uint32_t cap = std::max(words, 2 * cap_);
  auto* const heap = new std::uint64_t[cap];
  const std::span<const std::uint64_t> old = span();
  std::copy(old.begin(), old.end(), heap);
  if (on_heap()) delete[] store_.heap;
  store_.heap = heap;
  cap_ = cap;
}

void Words::append(std::uint64_t value, unsigned width) {
  const std::uint32_t word_index = bits_ / 64;
  const unsigned offset = bits_ % 64;
  reserve(static_cast<std::uint32_t>((std::uint64_t{bits_} + width + 63) / 64));
  std::uint64_t* const w = on_heap() ? store_.heap : store_.inline_words;
  if (offset == 0) {
    w[word_index] = value;  // a fresh word
  } else {
    w[word_index] |= value << offset;
    // High bits that did not fit go to the bottom of a fresh word.
    if (offset + width > 64) w[word_index + 1] = value >> (64 - offset);
  }
  bits_ += width;
}

void BitWriter::write(std::uint64_t value, unsigned width) {
  DMATCH_EXPECTS(width >= 1 && width <= 64);
  DMATCH_EXPECTS(width == 64 || (value >> width) == 0);
  words_.append(value, width);
}

std::uint64_t BitReader::read(unsigned width) {
  DMATCH_EXPECTS(width >= 1 && width <= 64);
  DMATCH_EXPECTS(cursor_ + width <= bits_);

  const std::uint32_t word_index = cursor_ / 64;
  const unsigned offset = cursor_ % 64;
  std::uint64_t value = words_[word_index] >> offset;
  const unsigned got = 64 - offset;
  if (got < width) {
    value |= words_[word_index + 1] << got;
  }
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  cursor_ += width;
  return value;
}

}  // namespace dmatch
