// Pins the wire formats documented in docs/PROTOCOLS.md: if a protocol's
// message layout changes, these tests fail and the document must be
// updated alongside.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/delta_mwm.hpp"
#include "core/half_mwm.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "mis/luby.hpp"
#include "mp/frames.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace {

/// Largest single operator-new request since the last reset. Requests
/// above 64 MiB are refused outright: nothing in this binary needs one,
/// so a decoder that sizes memory from a garbage count fails fast
/// instead of reserving gigabytes.
std::atomic<std::size_t> largest_request{0};
constexpr std::size_t kRefuseAbove = std::size_t{64} << 20;
/// operator-new calls since start-up.
std::atomic<std::size_t> new_calls{0};

}  // namespace

void* operator new(std::size_t size) {
  new_calls.fetch_add(1, std::memory_order_relaxed);
  std::size_t prev = largest_request.load(std::memory_order_relaxed);
  while (size > prev && !largest_request.compare_exchange_weak(
                            prev, size, std::memory_order_relaxed)) {
  }
  if (size <= kRefuseAbove) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  }
  throw std::bad_alloc();
}
// The array forms too, so every build (sanitizer runtimes intercept
// them separately) counts the heap words of a long message.
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, so the compiler never pairs an inlined free() with the
// operator new it cannot see is malloc-backed.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dmatch {
namespace {

using congest::Model;
using congest::Network;

TEST(WireContract, IsraeliItaiMessagesAreTwoBits) {
  const Graph g = gen::gnp(40, 0.15, 1);
  Network net(g, Model::kCongest, 2);
  const auto result = israeli_itai(net);
  EXPECT_EQ(result.stats.max_message_bits, 2u);
}

TEST(WireContract, LubyMessagesAreAtMost65Bits) {
  const Graph g = gen::gnp(40, 0.15, 3);
  Network net(g, Model::kCongest, 4);
  const auto result = luby_mis_distributed(net);
  // DRAW = 1 + 64 bits; JOIN = 1 bit.
  EXPECT_EQ(result.stats.max_message_bits, 65u);
}

TEST(WireContract, AugmentIterationMessagesAre130Bits) {
  const Graph g = gen::bipartite_gnp(20, 20, 0.3, 5);
  const auto side = *g.bipartition();
  Network net(g, Model::kCongest, 6);
  const auto stats = run_augment_iteration(net, side, 3);
  // COUNT = 2 + 128; TOKEN = 2 + 64 + 64; AUGMENT = 2.
  EXPECT_EQ(stats.max_message_bits, 130u);
}

TEST(WireContract, GainExchangeIs64BitsAndDropIsOneBit) {
  const Graph g = gen::with_uniform_weights(gen::gnp(30, 0.2, 7), 1.0, 9.0,
                                            8);
  HalfMwmOptions options;
  options.epsilon = 0.3;
  options.black_box = HalfMwmOptions::BlackBox::kLocallyDominant;
  options.seed = 9;
  const auto result = half_mwm(g, options);
  // The largest message in the whole pipeline is the 64-bit weight
  // broadcast of the gain exchange (box messages are 1-2 bits).
  EXPECT_EQ(result.stats.max_message_bits, 64u);
}

TEST(WireContract, DominantBoxMessagesAreOneBit) {
  const Graph g = gen::with_uniform_weights(gen::gnp(30, 0.2, 10), 1.0, 9.0,
                                            11);
  const auto result = locally_dominant_mwm(g, {});
  EXPECT_EQ(result.stats.max_message_bits, 1u);
}

TEST(WireContract, TotalBitsAreConsistentWithCounts) {
  // total_bits must equal messages * 2 for the 2-bit II protocol.
  const Graph g = gen::gnp(50, 0.1, 12);
  Network net(g, Model::kCongest, 13);
  const auto result = israeli_itai(net);
  EXPECT_EQ(result.stats.total_bits, 2 * result.stats.messages);
}

TEST(WireContract, AllCongestMessagesFitFortyEightLogN) {
  // The default cap with factor 48 must accommodate every CONGEST
  // protocol at the smallest supported scale (cap floor = 48 * 4 bits).
  const Graph g = gen::bipartite_gnp(4, 4, 0.9, 14);
  const auto side = *g.bipartition();
  Network net(g, Model::kCongest, 15);
  EXPECT_GE(net.message_cap_bits(), 192u);
  EXPECT_NO_THROW(run_augment_iteration(net, side, 1));
}

/// A message of `bits` bits (at least 2), its first field a 2-bit tag.
congest::Message message_of(std::uint32_t bits) {
  BitWriter w;
  w.write(0x2, 2);
  for (std::uint32_t left = bits - 2; left > 0;) {
    const unsigned take = std::min<std::uint32_t>(64, left);
    const std::uint64_t top = std::uint64_t{1} << (take - 1);
    w.write(take == 64 ? 0xA5A5A5A5A5A5A5A5ULL : top, take);
    left -= take;
  }
  return congest::Message::from_writer(std::move(w));
}

TEST(WireContract, MessagesUpTo192BitsNeverAllocate) {
  // 130 bits: Algorithm 3's COUNT and TOKEN; 191: its largest ARQ frame.
  for (const std::uint32_t bits : {2u, 64u, 130u, 191u, 192u}) {
    const std::size_t before = new_calls.load();
    congest::Message m = message_of(bits);
    congest::Message copy = m;
    congest::Message moved = std::move(copy);
    copy = moved;
    m = std::move(moved);
    EXPECT_EQ(new_calls.load(), before) << bits << " bits";
    EXPECT_EQ(m.bits(), bits);
    EXPECT_TRUE(std::ranges::equal(m.words(), copy.words()));
  }
  const std::size_t before = new_calls.load();
  const congest::Message big = message_of(193);
  const congest::Message copy = big;
  EXPECT_GE(new_calls.load(), before + 2);  // the writer's and the copy's
  EXPECT_TRUE(std::ranges::equal(big.words(), copy.words()));
}

// --- multi-process peer-batch frames (docs/PROTOCOLS.md, "Multi-process
// sharding"): the data plane of the mp engine must round-trip exactly and
// reject truncated or corrupted bytes without undefined behavior. --------

mp::RoundFrame sample_round_frame() {
  mp::RoundFrame f;
  f.src = 1;
  f.round = 7;
  for (int i = 0; i < 3; ++i) {
    BitWriter w;
    w.write(static_cast<std::uint64_t>(i + 1), 2);
    w.write_bool(i % 2 == 0);
    mp::WireMsg m;
    m.dst = static_cast<NodeId>(i * 2);
    m.port = i % 2;
    m.deliver_round = 8 + i;
    m.origin_round = 7;
    m.msg = congest::Message::from_writer(std::move(w));
    f.msgs.push_back(std::move(m));
  }
  return f;
}

TEST(WireContract, MpRoundFrameRoundTrips) {
  const Graph g = gen::cycle(8);
  const mp::RoundFrame f = sample_round_frame();
  const auto bytes = mp::encode_round(f);

  const auto h = mp::peek_header(bytes);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->kind, mp::FrameKind::kRound);
  EXPECT_EQ(h->src, 1u);
  EXPECT_EQ(h->round, 7u);

  const auto d = mp::decode_round(bytes, g, 192);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, f.src);
  EXPECT_EQ(d->round, f.round);
  ASSERT_EQ(d->msgs.size(), f.msgs.size());
  for (std::size_t i = 0; i < f.msgs.size(); ++i) {
    EXPECT_EQ(d->msgs[i].dst, f.msgs[i].dst);
    EXPECT_EQ(d->msgs[i].port, f.msgs[i].port);
    EXPECT_EQ(d->msgs[i].deliver_round, f.msgs[i].deliver_round);
    EXPECT_EQ(d->msgs[i].origin_round, f.msgs[i].origin_round);
    EXPECT_EQ(d->msgs[i].msg.bits(), f.msgs[i].msg.bits());
    EXPECT_TRUE(std::ranges::equal(d->msgs[i].msg.words(),
                                   f.msgs[i].msg.words()));
  }
}

TEST(WireContract, MpRoundFrameCarriesInlineAndHeapPayloads) {
  const Graph g = gen::cycle(8);
  mp::RoundFrame f;
  f.src = 0;
  f.round = 3;
  for (const std::uint32_t bits : {192u, 193u}) {
    mp::WireMsg m;
    m.dst = bits == 192 ? 2 : 5;
    m.port = 1;
    m.deliver_round = 4;
    m.origin_round = 3;
    m.msg = message_of(bits);
    f.msgs.push_back(std::move(m));
  }
  const auto bytes = mp::encode_round(f);
  EXPECT_FALSE(mp::decode_round(bytes, g, 192).has_value());  // 193 > cap
  const auto d = mp::decode_round(bytes, g, 193);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->msgs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(d->msgs[i].dst, f.msgs[i].dst);
    EXPECT_EQ(d->msgs[i].msg.bits(), f.msgs[i].msg.bits());
    EXPECT_TRUE(std::ranges::equal(d->msgs[i].msg.words(),
                                   f.msgs[i].msg.words()));
  }
}

TEST(WireContract, MpRoundFrameChecksTheCapBeforeSizingAPayload) {
  const Graph g = gen::cycle(8);
  // One message whose bit-count field claims 2^32 - 1 bits (512 MiB of
  // words), followed by nothing.
  BitWriter w;
  w.write(mp::kFrameMagic, 16);
  w.write(static_cast<std::uint64_t>(mp::FrameKind::kRound), 8);
  w.write(1, 8);   // src
  w.write(3, 32);  // round
  w.write(1, 32);  // one message
  w.write(2, 32);  // dst
  w.write(1, 16);  // port
  w.write(4, 32);  // deliver_round
  w.write(3, 32);  // origin_round
  w.write(0xFFFFFFFFu, 32);
  std::vector<std::uint8_t> bytes((w.bit_count() + 7) / 8);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(w.words()[i / 8] >> (8 * (i % 8)));
  }
  largest_request = 0;
  EXPECT_FALSE(mp::decode_round(bytes, g, 192).has_value());
  EXPECT_LE(largest_request.load(), std::size_t{1} << 10);
}

TEST(WireContract, MpRoundFrameRejectsEveryTruncation) {
  const Graph g = gen::cycle(8);
  const auto bytes = mp::encode_round(sample_round_frame());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_FALSE(mp::decode_round(prefix, g, 192).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireContract, MpRoundFrameSurvivesCorruptionWithoutUb) {
  const Graph g = gen::cycle(8);
  const auto bytes = mp::encode_round(sample_round_frame());

  // Bad magic is rejected at the header peek.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(mp::peek_header(bad).has_value());
  EXPECT_FALSE(mp::decode_round(bad, g, 192).has_value());

  // Single-byte corruption anywhere either fails to decode or yields
  // only topology-valid fields (never out-of-range indices or over-cap
  // payloads the router would trip on).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0x5A;
    const auto d = mp::decode_round(mutated, g, 192);
    if (!d.has_value()) continue;
    for (const mp::WireMsg& m : d->msgs) {
      ASSERT_GE(m.dst, 0);
      ASSERT_LT(m.dst, g.node_count());
      ASSERT_GE(m.port, 0);
      ASSERT_LT(m.port, g.degree(m.dst));
      ASSERT_LE(m.msg.bits(), 192u);
    }
  }

  // Pure garbage buffers of assorted sizes never decode.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (const std::size_t len : {1u, 7u, 16u, 63u, 256u}) {
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(splitmix64(state));
    EXPECT_FALSE(mp::decode_round(junk, g, 192).has_value());
  }
}

TEST(WireContract, MpRoundFrameRejectsForeignTopologyAndOverCap) {
  const Graph big = gen::cycle(8);
  const Graph small = gen::cycle(4);
  mp::RoundFrame f;
  f.src = 0;
  f.round = 1;
  mp::WireMsg m;
  m.dst = 6;  // valid in `big`, out of range in `small`
  m.port = 1;
  m.deliver_round = 2;
  m.origin_round = 1;
  BitWriter w;
  w.write(0x3, 2);
  m.msg = congest::Message::from_writer(std::move(w));
  f.msgs.push_back(std::move(m));
  const auto bytes = mp::encode_round(f);
  EXPECT_TRUE(mp::decode_round(bytes, big, 192).has_value());
  EXPECT_FALSE(mp::decode_round(bytes, small, 192).has_value());
  // A receiver with a tighter CONGEST cap rejects the payload outright.
  EXPECT_FALSE(mp::decode_round(bytes, big, 1).has_value());
}

/// Little-endian bytes of a hand-built frame, trimmed to whole bytes —
/// the layout mp's encoders seal.
std::vector<std::uint8_t> frame_bytes(const BitWriter& w) {
  std::vector<std::uint8_t> out((w.bit_count() + 7) / 8);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(w.words()[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

void put_frame_header(BitWriter& w, mp::FrameKind kind) {
  w.write(mp::kFrameMagic, 16);
  w.write(static_cast<std::uint64_t>(kind), 8);
  w.write(1, 8);  // src
  w.write(0, 32);  // round
}

TEST(WireContract, MpDecodersSizeFromReceivedBytes) {
  const Graph g = gen::cycle(8);
  constexpr std::size_t kMiB = std::size_t{1} << 20;

  // A 12-byte ROUND frame whose count field claims 2^26 - 1 messages.
  BitWriter round;
  put_frame_header(round, mp::FrameKind::kRound);
  round.write((std::uint64_t{1} << 26) - 1, 32);
  const auto round_bytes = frame_bytes(round);
  ASSERT_EQ(round_bytes.size(), 12u);
  largest_request = 0;
  EXPECT_FALSE(mp::decode_round(round_bytes, g, 192).has_value());
  EXPECT_LE(largest_request.load(), kMiB);

  // A RESULT frame whose round-histogram count claims 2^24 entries and
  // ends right after the count.
  BitWriter result;
  put_frame_header(result, mp::FrameKind::kResult);
  result.write_bool(false);  // tripped
  result.write(5, 64);       // rounds
  result.write(9, 64);       // messages
  result.write(18, 64);      // total_bits
  result.write(2, 32);       // max_message_bits
  result.write_bool(true);   // completed
  result.write(std::uint64_t{1} << 24, 32);
  const auto result_bytes = frame_bytes(result);
  largest_request = 0;
  EXPECT_FALSE(mp::decode_result(result_bytes, g.node_count()).has_value());
  EXPECT_LE(largest_request.load(), kMiB);
}

}  // namespace
}  // namespace dmatch
