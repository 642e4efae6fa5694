#include "mp/frames.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "support/wire.hpp"

namespace dmatch::mp {

namespace {

// Sanity ceilings for decoded counts: far above anything a real run
// produces, low enough that a garbage length field cannot drive an
// allocation bomb.
constexpr std::uint64_t kMaxBatchMsgs = 1u << 26;
constexpr std::uint64_t kMaxRounds = 1u << 24;
constexpr std::uint64_t kMaxMetrics = 4096;
constexpr std::uint64_t kMaxNameLen = 160;
constexpr std::uint64_t kMaxDelaySpan = 1u << 20;

// Smallest encodings of repeated items, in bits: a decoded count larger
// than the unread bits could describe is rejected before anything is
// sized from it.
constexpr std::uint64_t kMinWireMsgBits = 32 + 16 + 32 + 32 + 32;
constexpr std::uint64_t kMinMetricBits = 8 + 16 + 64;

/// Seal a BitWriter into a byte string: words little-endian, trimmed to
/// ceil(bits / 8) bytes.
std::vector<std::uint8_t> seal(BitWriter&& w) {
  const std::size_t nbytes = (w.bit_count() + 7) / 8;
  const std::span<const std::uint64_t> words = w.words();
  std::vector<std::uint8_t> out(nbytes);
  for (std::size_t i = 0; i < nbytes; ++i) {
    out[i] = static_cast<std::uint8_t>(words[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

/// Bounds-checked replay of a sealed frame. Every read is validated
/// against the byte budget before touching the word array, so truncated
/// frames fail cleanly instead of reading past the end.
class CheckedReader {
 public:
  explicit CheckedReader(std::span<const std::uint8_t> bytes)
      : words_((bytes.size() + 7) / 8, 0),
        bits_(static_cast<std::uint32_t>(bytes.size() * 8)),
        reader_(words_, bits_) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      words_[i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
    }
  }

  [[nodiscard]] bool read(std::uint64_t& out, unsigned width) {
    if (width == 0 || width > 64 || reader_.remaining() < width) return false;
    out = reader_.read(width);
    return true;
  }

  /// Read a count of items whose smallest encoding is `min_bits` each,
  /// failing if even that many items cannot fit in the unread bits — so
  /// a garbage count never sizes an allocation beyond the frame itself.
  [[nodiscard]] bool read_count(std::uint64_t& out, unsigned width,
                                std::uint64_t min_bits) {
    return read(out, width) && out <= reader_.remaining() / min_bits;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t bits_;
  BitReader reader_;
};

void put_header(BitWriter& w, FrameKind kind, unsigned src,
                std::uint32_t round) {
  w.write(kFrameMagic, 16);
  w.write(static_cast<std::uint64_t>(kind), 8);
  w.write(src & 0xFF, 8);
  w.write(round, 32);
}

bool get_header(CheckedReader& r, FrameHeader& h) {
  std::uint64_t magic = 0, kind = 0, src = 0, round = 0;
  if (!r.read(magic, 16) || magic != kFrameMagic) return false;
  if (!r.read(kind, 8) || kind < 1 ||
      kind > static_cast<std::uint64_t>(FrameKind::kCheckpoint)) {
    return false;
  }
  if (!r.read(src, 8) || !r.read(round, 32)) return false;
  h.kind = static_cast<FrameKind>(kind);
  h.src = static_cast<unsigned>(src);
  h.round = static_cast<std::uint32_t>(round);
  return true;
}

void put_stats(BitWriter& w, const congest::RunStats& s) {
  w.write(s.rounds, 64);
  w.write(s.messages, 64);
  w.write(s.total_bits, 64);
  w.write(s.max_message_bits, 32);
  w.write_bool(s.completed);
  w.write(s.round_messages.size(), 32);
  for (const std::uint64_t m : s.round_messages) w.write(m, 64);
  w.write(s.dropped_messages, 64);
  w.write(s.duplicated_messages, 64);
  w.write(s.delayed_messages, 64);
  w.write(s.reordered_inboxes, 64);
  w.write(s.crashed_nodes, 64);
  w.write(s.restarted_nodes, 64);
}

bool get_stats(CheckedReader& r, congest::RunStats& s) {
  std::uint64_t v = 0;
  if (!r.read(s.rounds, 64) || !r.read(s.messages, 64) ||
      !r.read(s.total_bits, 64)) {
    return false;
  }
  if (!r.read(v, 32)) return false;
  s.max_message_bits = static_cast<std::uint32_t>(v);
  if (!r.read(v, 1)) return false;
  s.completed = v != 0;
  std::uint64_t count = 0;
  if (!r.read_count(count, 32, 64) || count > kMaxRounds) return false;
  s.round_messages.resize(static_cast<std::size_t>(count));
  for (std::uint64_t& m : s.round_messages) {
    if (!r.read(m, 64)) return false;
  }
  return r.read(s.dropped_messages, 64) && r.read(s.duplicated_messages, 64) &&
         r.read(s.delayed_messages, 64) && r.read(s.reordered_inboxes, 64) &&
         r.read(s.crashed_nodes, 64) && r.read(s.restarted_nodes, 64);
}

/// Registers are stored as port + 1 (so -1 = unmatched maps to 0).
void put_registers(BitWriter& w, NodeId lo, std::span<const int> regs) {
  w.write(static_cast<std::uint64_t>(lo), 32);
  w.write(regs.size(), 32);
  for (const int p : regs) {
    w.write(static_cast<std::uint64_t>(p + 1) & 0xFFFFFFFFu, 32);
  }
}

bool get_registers(CheckedReader& r, NodeId n, NodeId& lo,
                   std::vector<int>& regs) {
  std::uint64_t lo_raw = 0, count = 0;
  if (!r.read(lo_raw, 32) || !r.read_count(count, 32, 32)) return false;
  if (lo_raw > static_cast<std::uint64_t>(n) ||
      count > static_cast<std::uint64_t>(n) - lo_raw) {
    return false;
  }
  lo = static_cast<NodeId>(lo_raw);
  regs.resize(static_cast<std::size_t>(count));
  for (int& p : regs) {
    std::uint64_t v = 0;
    if (!r.read(v, 32) || v > 0x7FFFFFFFu) return false;
    p = static_cast<int>(v) - 1;
  }
  return true;
}

}  // namespace

std::optional<FrameHeader> peek_header(std::span<const std::uint8_t> frame) {
  CheckedReader r(frame);
  FrameHeader h;
  if (!get_header(r, h)) return std::nullopt;
  return h;
}

std::vector<std::uint8_t> encode_hello(const HelloFrame& f) {
  BitWriter w;
  put_header(w, FrameKind::kHello, f.src, 0);
  w.write(static_cast<std::uint64_t>(f.n), 32);
  w.write(f.seed, 64);
  w.write(f.cap_bits, 32);
  w.write(f.plan_digest, 64);
  w.write(f.procs & 0xFF, 8);
  return seal(std::move(w));
}

std::optional<HelloFrame> decode_hello(std::span<const std::uint8_t> frame) {
  CheckedReader r(frame);
  FrameHeader h;
  if (!get_header(r, h) || h.kind != FrameKind::kHello) return std::nullopt;
  HelloFrame f;
  f.src = h.src;
  std::uint64_t v = 0;
  if (!r.read(v, 32) || v > 0x7FFFFFFFu) return std::nullopt;
  f.n = static_cast<NodeId>(v);
  if (!r.read(f.seed, 64)) return std::nullopt;
  if (!r.read(v, 32)) return std::nullopt;
  f.cap_bits = static_cast<std::uint32_t>(v);
  if (!r.read(f.plan_digest, 64)) return std::nullopt;
  if (!r.read(v, 8)) return std::nullopt;
  f.procs = static_cast<unsigned>(v);
  return f;
}

std::vector<std::uint8_t> encode_round(const RoundFrame& f) {
  BitWriter w;
  put_header(w, FrameKind::kRound, f.src, f.round);
  w.write(f.msgs.size(), 32);
  for (const WireMsg& m : f.msgs) {
    w.write(static_cast<std::uint64_t>(m.dst), 32);
    w.write(static_cast<std::uint64_t>(m.port), 16);
    w.write(static_cast<std::uint64_t>(m.deliver_round), 32);
    w.write(static_cast<std::uint64_t>(m.origin_round), 32);
    const std::uint32_t bits = m.msg.bits();
    const std::span<const std::uint64_t> words = m.msg.words();
    w.write(bits, 32);
    const unsigned full = bits / 64;
    for (unsigned i = 0; i < full; ++i) w.write(words[i], 64);
    const unsigned rem = bits % 64;
    if (rem != 0) {
      w.write(words[full] & ((std::uint64_t{1} << rem) - 1), rem);
    }
  }
  return seal(std::move(w));
}

std::optional<RoundFrame> decode_round(std::span<const std::uint8_t> frame,
                                       const Graph& g,
                                       std::uint32_t max_msg_bits) {
  CheckedReader r(frame);
  FrameHeader h;
  if (!get_header(r, h) || h.kind != FrameKind::kRound) return std::nullopt;
  RoundFrame f;
  f.src = h.src;
  f.round = h.round;
  std::uint64_t count = 0;
  if (!r.read_count(count, 32, kMinWireMsgBits) || count > kMaxBatchMsgs) {
    return std::nullopt;
  }
  f.msgs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    WireMsg m;
    std::uint64_t v = 0;
    if (!r.read(v, 32) || v >= static_cast<std::uint64_t>(g.node_count())) {
      return std::nullopt;
    }
    m.dst = static_cast<NodeId>(v);
    if (!r.read(v, 16) || v >= static_cast<std::uint64_t>(g.degree(m.dst))) {
      return std::nullopt;
    }
    m.port = static_cast<int>(v);
    if (!r.read(v, 32) || v <= h.round || v > h.round + kMaxDelaySpan) {
      return std::nullopt;
    }
    m.deliver_round = static_cast<int>(v);
    if (!r.read(v, 32) || v > h.round) return std::nullopt;
    m.origin_round = static_cast<int>(v);
    // The cap bounds the payload before any of it is stored.
    if (!r.read(v, 32) || v > max_msg_bits) return std::nullopt;
    BitWriter payload;
    for (auto left = static_cast<std::uint32_t>(v); left > 0;) {
      const unsigned take = std::min<std::uint32_t>(64, left);
      std::uint64_t word = 0;
      if (!r.read(word, take)) return std::nullopt;
      payload.write(word, take);
      left -= take;
    }
    m.msg = congest::Message::from_writer(std::move(payload));
    f.msgs.push_back(std::move(m));
  }
  return f;
}

std::vector<std::uint8_t> encode_count(const CountFrame& f) {
  BitWriter w;
  put_header(w, FrameKind::kCount, f.src, f.round);
  w.write(f.active, 64);
  w.write(f.extras, 64);
  w.write(f.msgs, 64);
  w.write(f.bits, 64);
  w.write(f.rejoin_rank & 0xFF, 8);
  return seal(std::move(w));
}

std::optional<CountFrame> decode_count(std::span<const std::uint8_t> frame) {
  CheckedReader r(frame);
  FrameHeader h;
  if (!get_header(r, h) || h.kind != FrameKind::kCount) return std::nullopt;
  CountFrame f;
  f.src = h.src;
  f.round = h.round;
  std::uint64_t v = 0;
  if (!r.read(f.active, 64) || !r.read(f.extras, 64) || !r.read(f.msgs, 64) ||
      !r.read(f.bits, 64) || !r.read(v, 8)) {
    return std::nullopt;
  }
  f.rejoin_rank = static_cast<unsigned>(v);
  return f;
}

std::vector<std::uint8_t> encode_result(const ResultFrame& f) {
  BitWriter w;
  put_header(w, FrameKind::kResult, f.src, 0);
  w.write_bool(f.tripped);
  put_stats(w, f.stats);
  put_registers(w, f.reg_lo, f.registers);
  w.write(f.metrics.size(), 16);
  for (const auto& m : f.metrics) {
    w.write(static_cast<std::uint64_t>(m.kind), 8);
    w.write(m.name.size(), 16);
    for (const char c : m.name) w.write(static_cast<std::uint8_t>(c), 8);
    if (m.kind == obs::MetricKind::kHistogramLog2) {
      w.write(m.count, 64);
      w.write(m.sum, 64);
      w.write(m.buckets.size(), 8);
      for (const std::uint64_t b : m.buckets) w.write(b, 64);
    } else {
      w.write(m.value, 64);
    }
  }
  return seal(std::move(w));
}

std::optional<ResultFrame> decode_result(std::span<const std::uint8_t> frame,
                                         NodeId n) {
  CheckedReader r(frame);
  FrameHeader h;
  if (!get_header(r, h) || h.kind != FrameKind::kResult) return std::nullopt;
  ResultFrame f;
  f.src = h.src;
  std::uint64_t v = 0;
  if (!r.read(v, 1)) return std::nullopt;
  f.tripped = v != 0;
  if (!get_stats(r, f.stats)) return std::nullopt;
  if (!get_registers(r, n, f.reg_lo, f.registers)) return std::nullopt;
  std::uint64_t mcount = 0;
  if (!r.read_count(mcount, 16, kMinMetricBits) || mcount > kMaxMetrics) {
    return std::nullopt;
  }
  f.metrics.resize(static_cast<std::size_t>(mcount));
  for (auto& m : f.metrics) {
    if (!r.read(v, 8) ||
        v > static_cast<std::uint64_t>(obs::MetricKind::kHistogramLog2)) {
      return std::nullopt;
    }
    m.kind = static_cast<obs::MetricKind>(v);
    std::uint64_t len = 0;
    if (!r.read_count(len, 16, 8) || len > kMaxNameLen) return std::nullopt;
    m.name.resize(static_cast<std::size_t>(len));
    for (char& c : m.name) {
      if (!r.read(v, 8)) return std::nullopt;
      c = static_cast<char>(v);
    }
    if (m.kind == obs::MetricKind::kHistogramLog2) {
      std::uint64_t nb = 0;
      if (!r.read(m.count, 64) || !r.read(m.sum, 64) ||
          !r.read_count(nb, 8, 64) || nb > obs::MetricsRegistry::kHistBuckets) {
        return std::nullopt;
      }
      m.buckets.resize(static_cast<std::size_t>(nb));
      for (std::uint64_t& b : m.buckets) {
        if (!r.read(b, 64)) return std::nullopt;
      }
    } else if (!r.read(m.value, 64)) {
      return std::nullopt;
    }
  }
  return f;
}

std::vector<std::uint8_t> encode_checkpoint(const CheckpointFrame& f) {
  BitWriter w;
  put_header(w, FrameKind::kCheckpoint, f.src, f.round);
  put_registers(w, f.reg_lo, f.registers);
  return seal(std::move(w));
}

std::optional<CheckpointFrame> decode_checkpoint(
    std::span<const std::uint8_t> frame, NodeId n) {
  CheckedReader r(frame);
  FrameHeader h;
  if (!get_header(r, h) || h.kind != FrameKind::kCheckpoint) {
    return std::nullopt;
  }
  CheckpointFrame f;
  f.src = h.src;
  f.round = h.round;
  if (!get_registers(r, n, f.reg_lo, f.registers)) return std::nullopt;
  return f;
}

std::vector<std::uint8_t> encode_resume(const ResumeFrame& f) {
  BitWriter w;
  put_header(w, FrameKind::kResume, 0, f.round);
  w.write(f.nonce, 64);
  put_registers(w, f.reg_lo, f.registers);
  w.write(f.rank_dead.size(), 8);
  for (const char d : f.rank_dead) w.write_bool(d != 0);
  return seal(std::move(w));
}

std::optional<ResumeFrame> decode_resume(std::span<const std::uint8_t> frame,
                                         NodeId n) {
  CheckedReader r(frame);
  FrameHeader h;
  if (!get_header(r, h) || h.kind != FrameKind::kResume) return std::nullopt;
  ResumeFrame f;
  f.round = h.round;
  if (!r.read(f.nonce, 64)) return std::nullopt;
  if (!get_registers(r, n, f.reg_lo, f.registers)) return std::nullopt;
  std::uint64_t count = 0;
  if (!r.read_count(count, 8, 1)) return std::nullopt;
  f.rank_dead.resize(static_cast<std::size_t>(count));
  for (char& d : f.rank_dead) {
    std::uint64_t v = 0;
    if (!r.read(v, 1)) return std::nullopt;
    d = v != 0 ? 1 : 0;
  }
  return f;
}

std::vector<std::uint8_t> encode_abort(unsigned src, std::uint32_t round) {
  BitWriter w;
  put_header(w, FrameKind::kAbort, src, round);
  return seal(std::move(w));
}

std::vector<std::uint8_t> encode_rejoin(unsigned src) {
  BitWriter w;
  put_header(w, FrameKind::kRejoin, src, 0);
  return seal(std::move(w));
}

}  // namespace dmatch::mp
