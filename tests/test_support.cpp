#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "congest/message.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/sat_count.hpp"
#include "support/table.hpp"
#include "support/wire.hpp"

namespace dmatch {
namespace {

// ---------------------------------------------------------------- asserts

TEST(Assert, ExpectsThrowsOnViolation) {
  EXPECT_THROW(DMATCH_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(DMATCH_EXPECTS(1 == 1));
  EXPECT_THROW(DMATCH_ENSURES(false), ContractViolation);
  EXPECT_THROW(DMATCH_ASSERT(false), ContractViolation);
}

TEST(Assert, MessageNamesExpressionAndLocation) {
  try {
    DMATCH_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkStreamsAreDecorrelated) {
  Rng root(7);
  Rng a = root.fork(0);
  Rng b = root.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIsDeterministic) {
  Rng root1(7);
  Rng root2(7);
  Rng a = root1.fork(5);
  Rng b = root2.fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformRejectsZeroBound) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(0), ContractViolation);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(13);
  int buckets[10] = {};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++buckets[static_cast<int>(rng.uniform01() * 10)];
  }
  for (int b : buckets) {
    EXPECT_NEAR(b, draws / 10, draws / 100);
  }
}

TEST(Rng, MaxOfUniformsMatchesTheoreticalMean) {
  // E[max of m uniforms] = m / (m + 1).
  Rng rng(17);
  for (double m : {1.0, 4.0, 64.0}) {
    double sum = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) sum += sample_max_of_uniforms(rng, m);
    EXPECT_NEAR(sum / draws, m / (m + 1.0), 0.01) << "m = " << m;
  }
}

TEST(Rng, MaxOfHugeCountsApproachesOne) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(sample_max_of_uniforms(rng, 1e30), 0.999);
  }
}

// -------------------------------------------------------------- sat_count

TEST(SatCount, BasicArithmetic) {
  SatCount a(3);
  SatCount b(4);
  EXPECT_EQ((a + b), SatCount(7));
  EXPECT_TRUE(SatCount{}.is_zero());
  EXPECT_FALSE(a.is_zero());
  EXPECT_LT(a, b);
}

TEST(SatCount, SaturatesInsteadOfWrapping) {
  SatCount big = SatCount::saturated();
  EXPECT_TRUE(big.is_saturated());
  SatCount sum = big + SatCount(1);
  EXPECT_TRUE(sum.is_saturated());
  EXPECT_EQ(sum, SatCount::saturated());
}

TEST(SatCount, AccumulationBeyond64Bits) {
  SatCount c(~std::uint64_t{0});
  c += SatCount(~std::uint64_t{0});
  EXPECT_FALSE(c.is_saturated());
  EXPECT_EQ(c.clamped_u64(), ~std::uint64_t{0});
  EXPECT_GT(c.as_double(), 3e19);
}

TEST(SatCount, WireRoundTrip) {
  SatCount values[] = {SatCount{}, SatCount(1), SatCount(12345),
                       SatCount(~std::uint64_t{0}) + SatCount(99),
                       SatCount::saturated()};
  for (const SatCount& v : values) {
    EXPECT_EQ(SatCount::from_words(v.hi(), v.lo()), v);
  }
}

TEST(SatCount, AsDoubleMonotone) {
  EXPECT_LT(SatCount(5).as_double(), SatCount(6).as_double());
  EXPECT_GT(SatCount::saturated().as_double(), 1e38);
}

// ------------------------------------------------------------------- wire

TEST(Wire, SingleFieldRoundTrip) {
  for (unsigned width = 1; width <= 64; ++width) {
    BitWriter w;
    const std::uint64_t value =
        width == 64 ? 0xdeadbeefcafebabeULL
                    : 0xdeadbeefcafebabeULL & ((std::uint64_t{1} << width) - 1);
    w.write(value, width);
    EXPECT_EQ(w.bit_count(), width);
    BitReader r(w.words(), w.bit_count());
    EXPECT_EQ(r.read(width), value) << "width " << width;
  }
}

TEST(Wire, MixedFieldsRoundTrip) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    BitWriter w;
    const int count = 1 + static_cast<int>(rng.uniform(20));
    for (int i = 0; i < count; ++i) {
      const unsigned width = 1 + static_cast<unsigned>(rng.uniform(64));
      std::uint64_t value = rng();
      if (width < 64) value &= (std::uint64_t{1} << width) - 1;
      fields.emplace_back(value, width);
      w.write(value, width);
    }
    BitReader r(w.words(), w.bit_count());
    for (const auto& [value, width] : fields) {
      ASSERT_EQ(r.read(width), value);
    }
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Wire, BitCountIsExact) {
  BitWriter w;
  w.write_bool(true);
  w.write(5, 3);
  w.write(1, 64);
  EXPECT_EQ(w.bit_count(), 68u);
}

TEST(Wire, WriterRejectsOverwideValues) {
  BitWriter w;
  EXPECT_THROW(w.write(4, 2), ContractViolation);   // 4 needs 3 bits
  EXPECT_THROW(w.write(1, 0), ContractViolation);   // zero width
  EXPECT_THROW(w.write(1, 65), ContractViolation);  // too wide
}

TEST(Wire, ReaderRejectsOverread) {
  BitWriter w;
  w.write(3, 2);
  BitReader r(w.words(), w.bit_count());
  EXPECT_EQ(r.read(2), 3u);
  EXPECT_THROW(r.read(1), ContractViolation);
}

/// A writer holding `bits` bits of a fixed pattern: full 64-bit fields,
/// then the remainder.
BitWriter pattern_writer(std::uint32_t bits) {
  BitWriter w;
  std::uint64_t state = 0x243F6A8885A308D3ULL + bits;
  for (std::uint32_t left = bits; left > 0;) {
    const unsigned take = std::min<std::uint32_t>(64, left);
    std::uint64_t v = splitmix64(state);
    if (take < 64) v &= (std::uint64_t{1} << take) - 1;
    w.write(v, take);
    left -= take;
  }
  return w;
}

/// True if `m` holds exactly `bits` bits equal to pattern_writer(bits).
::testing::AssertionResult holds_pattern(const congest::Message& m,
                                         std::uint32_t bits) {
  const BitWriter ref = pattern_writer(bits);
  if (m.bits() != bits) {
    return ::testing::AssertionFailure() << m.bits() << " bits, want " << bits;
  }
  if (m.words().size() != (bits + 63) / 64 ||
      !std::ranges::equal(m.words(), ref.words())) {
    return ::testing::AssertionFailure() << "words differ at " << bits;
  }
  BitReader a = m.reader();
  BitReader b(ref.words(), ref.bit_count());
  while (a.remaining() > 0) {
    const unsigned take = std::min(64u, a.remaining());
    if (a.read(take) != b.read(take)) {
      return ::testing::AssertionFailure() << "reader differs at " << bits;
    }
  }
  return ::testing::AssertionSuccess();
}

// 0, 64 and 192 bits fit the inline words; 193 spills to the heap.
constexpr std::uint32_t kStorageSizes[] = {0, 1, 64, 65, 191, 192, 193, 640};

TEST(Wire, MessageIs32Bytes) { EXPECT_EQ(sizeof(congest::Message), 32u); }

TEST(Wire, WriterWordsAtInlineAndHeapSizes) {
  for (const std::uint32_t bits : kStorageSizes) {
    const BitWriter w = pattern_writer(bits);
    EXPECT_EQ(w.bit_count(), bits);
    EXPECT_EQ(w.words().size(), (bits + 63) / 64);
    if (bits % 64 != 0) {
      // Bits past the count are zero.
      EXPECT_EQ(w.words().back() >> (bits % 64), 0u) << bits;
    }
    const congest::Message m =
        congest::Message::from_writer(pattern_writer(bits));
    EXPECT_TRUE(holds_pattern(m, bits));
  }
}

TEST(Wire, MessageCopyMoveAndSelfAssignment) {
  for (const std::uint32_t bits : kStorageSizes) {
    congest::Message m = congest::Message::from_writer(pattern_writer(bits));
    const congest::Message copy = m;
    EXPECT_TRUE(holds_pattern(copy, bits));
    EXPECT_TRUE(holds_pattern(m, bits));

    congest::Message moved = std::move(m);
    EXPECT_TRUE(holds_pattern(moved, bits));
    EXPECT_EQ(m.bits(), 0u);  // a moved-from message is empty
    EXPECT_TRUE(m.words().empty());

    congest::Message& self = moved;
    moved = self;
    EXPECT_TRUE(holds_pattern(moved, bits));
    moved = std::move(self);
    EXPECT_TRUE(holds_pattern(moved, bits));

    // Assignment across the inline/heap boundary, both ways.
    for (const std::uint32_t other : kStorageSizes) {
      congest::Message a = congest::Message::from_writer(pattern_writer(other));
      a = copy;
      EXPECT_TRUE(holds_pattern(a, bits));
      congest::Message b = congest::Message::from_writer(pattern_writer(other));
      congest::Message c = copy;
      b = std::move(c);
      EXPECT_TRUE(holds_pattern(b, bits));
      a = congest::Message::from_writer(pattern_writer(other));
      EXPECT_TRUE(holds_pattern(a, other));
    }
  }
}

TEST(Wire, BitWidthFor) {
  EXPECT_EQ(bit_width_for(0), 1u);
  EXPECT_EQ(bit_width_for(1), 1u);
  EXPECT_EQ(bit_width_for(2), 2u);
  EXPECT_EQ(bit_width_for(255), 8u);
  EXPECT_EQ(bit_width_for(256), 9u);
  EXPECT_EQ(bit_width_for(~std::uint64_t{0}), 64u);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersMarkdown) {
  Table t({"name", "value"});
  t.row().cell("rounds").cell(std::int64_t{42});
  t.row().cell("ratio").cell(0.95, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| rounds"), std::string::npos);
  EXPECT_NE(out.find("0.95"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, RejectsOverfilledRow) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), ContractViolation);
}

}  // namespace
}  // namespace dmatch
