// Messages exchanged by simulated CONGEST processes.
//
// A Message is an opaque bit string with an exact bit count; the Network
// charges protocols for precisely the bits they write (support/wire.hpp),
// which is what CONGEST complexity statements are about. Its words live
// inline up to 192 bits (support::Words), so every protocol message of
// this library — and an Algorithm 3 frame under the ARQ header — is
// sent, copied to each port of a broadcast, and delivered without a
// heap allocation.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "support/wire.hpp"

namespace dmatch::congest {

class Message {
 public:
  Message() = default;

  /// Seal a writer into a message (moves its words).
  static Message from_writer(BitWriter&& w) {
    Message m;
    m.words_ = std::move(w).take_words();
    return m;
  }

  [[nodiscard]] std::uint32_t bits() const noexcept {
    return words_.bit_count();
  }
  /// The ceil(bits / 64) words; bits past bits() in the last are zero.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_.span();
  }
  [[nodiscard]] std::span<std::uint64_t> words() noexcept {
    return words_.span();
  }

  [[nodiscard]] BitReader reader() const {
    return BitReader(words_.span(), words_.bit_count());
  }

 private:
  Words words_;
};

// Every edge has two mailbox slots per buffer, each one Message: 32 bytes
// keeps the slot arrays at 128 bytes per edge.
static_assert(sizeof(Message) == 32);

/// A delivered message: `port` is the *receiver's* port the message arrived
/// on (i.e. identifies the sending neighbor from the receiver's viewpoint).
struct Envelope {
  int port = -1;
  Message msg;
};

}  // namespace dmatch::congest
