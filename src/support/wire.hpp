// Bit-accounted message encoding.
//
// CONGEST proofs are about message *bits*, so the simulator charges exactly
// what a protocol writes. BitWriter packs fields little-endian-within-word;
// BitReader replays them in order. A field is (value, width) with
// width <= 64; the reader must consume the same widths in the same order,
// which every protocol in this repository does by construction (symmetric
// encode/decode functions).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "support/assert.hpp"

namespace dmatch {

/// The words of a bit string: up to kInlineWords words stored inline,
/// the heap only above that. 32 bytes — the inline words or the heap
/// pointer, the bit count and the word capacity — so a message of at
/// most 192 bits is copied and moved without touching the allocator.
/// Bits past the count in the last word are zero.
class Words {
 public:
  static constexpr std::uint32_t kInlineWords = 3;

  Words() noexcept = default;
  Words(const Words& o) { copy_from(o); }
  Words(Words&& o) noexcept { steal(o); }
  Words& operator=(const Words& o) {
    if (this != &o) {
      release();
      copy_from(o);
    }
    return *this;
  }
  Words& operator=(Words&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~Words() {
    if (on_heap()) delete[] store_.heap;
  }

  [[nodiscard]] std::uint32_t bit_count() const noexcept { return bits_; }
  [[nodiscard]] std::span<const std::uint64_t> span() const noexcept {
    return {on_heap() ? store_.heap : store_.inline_words, word_count()};
  }
  [[nodiscard]] std::span<std::uint64_t> span() noexcept {
    return {on_heap() ? store_.heap : store_.inline_words, word_count()};
  }

  /// Append the `width` low bits of `value` (0 < width <= 64, value fits).
  void append(std::uint64_t value, unsigned width);

 private:
  [[nodiscard]] std::uint32_t word_count() const noexcept {
    return static_cast<std::uint32_t>((std::uint64_t{bits_} + 63) / 64);
  }
  [[nodiscard]] bool on_heap() const noexcept { return cap_ > kInlineWords; }
  void copy_from(const Words& o);
  void steal(Words& o) noexcept {
    store_ = o.store_;
    bits_ = o.bits_;
    cap_ = o.cap_;
    o.bits_ = 0;
    o.cap_ = kInlineWords;
  }
  void release() noexcept {
    if (on_heap()) delete[] store_.heap;
    bits_ = 0;
    cap_ = kInlineWords;
  }
  /// Make room for `words` words, keeping the current ones.
  void reserve(std::uint32_t words);

  union Store {
    std::uint64_t inline_words[kInlineWords];
    std::uint64_t* heap;
  } store_{};
  std::uint32_t bits_ = 0;
  std::uint32_t cap_ = kInlineWords;
};

static_assert(sizeof(Words) == 32);

class BitWriter {
 public:
  /// Append `width` low bits of `value`. Requires 0 < width <= 64 and that
  /// value fits in `width` bits.
  void write(std::uint64_t value, unsigned width);

  /// Convenience: unsigned value with its exact required width.
  void write_bool(bool b) { write(b ? 1 : 0, 1); }

  [[nodiscard]] std::uint32_t bit_count() const noexcept {
    return words_.bit_count();
  }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_.span();
  }

  [[nodiscard]] Words take_words() && noexcept { return std::move(words_); }

 private:
  Words words_;
};

class BitReader {
 public:
  BitReader(std::span<const std::uint64_t> words,
            std::uint32_t bit_count) noexcept
      : words_(words.data()), bits_(bit_count) {}

  /// Read back `width` bits. Requires the same (width) sequence as written.
  std::uint64_t read(unsigned width);

  bool read_bool() { return read(1) != 0; }

  [[nodiscard]] std::uint32_t remaining() const noexcept {
    return bits_ - cursor_;
  }

 private:
  const std::uint64_t* words_;
  std::uint32_t bits_;
  std::uint32_t cursor_ = 0;
};

/// Number of bits needed to represent `value` (at least 1).
constexpr unsigned bit_width_for(std::uint64_t value) noexcept {
  unsigned w = 1;
  while (value >>= 1) ++w;
  return w;
}

}  // namespace dmatch
