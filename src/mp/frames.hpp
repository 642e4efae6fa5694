// Wire frames of the multi-process shard protocol (docs/PROTOCOLS.md,
// "Multi-process sharding").
//
// Every frame is a byte string built on the bit-exact support/wire
// encoder: a fixed header {magic:16, kind:8, src:8, round:32} followed
// by a kind-specific payload. Encoding is canonical (same fields, same
// widths, same order on every rank), so frames can be compared and
// replayed; decoding is defensive — every read is bounds-checked
// against the byte budget and every decoded field is validated against
// the topology, so a truncated or garbage frame yields std::nullopt,
// never undefined behavior. The peer-batch ROUND frame is the data
// plane: all messages one rank's nodes sent to another rank's nodes in
// one simulator round, flushed as a single frame at the round boundary.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

namespace dmatch::mp {

inline constexpr std::uint64_t kFrameMagic = 0xD3A7;
/// rejoin_rank value meaning "no rank rejoined this round".
inline constexpr unsigned kNoRank = 0xFF;

enum class FrameKind : std::uint8_t {
  kHello = 1,       // config handshake (n, seed, cap, plan digest)
  kRound = 2,       // peer batch: cross-shard messages of one round
  kCount = 3,       // quiescence counts + per-round stats piggyback
  kResult = 4,      // worker -> coordinator: stats, registers, metrics
  kAbort = 5,       // protocol contract tripped; all ranks roll back
  kRejoin = 6,      // restarted worker -> coordinator: let me back in
  kResume = 7,      // coordinator -> rejoiner: checkpoint + round
  kCheckpoint = 8,  // worker -> coordinator: periodic register image
};

struct FrameHeader {
  FrameKind kind = FrameKind::kAbort;
  unsigned src = 0;
  std::uint32_t round = 0;
};

/// Header of a frame, or nullopt if it is shorter than a header or the
/// magic does not match.
[[nodiscard]] std::optional<FrameHeader> peek_header(
    std::span<const std::uint8_t> frame);

/// One cross-shard message inside a ROUND frame: the kernel's delivery
/// for a node another process steps. `dst` is owned by the destination
/// rank; `deliver_round` exceeds the frame's round + 1 only for delayed
/// and duplicated deliveries.
using WireMsg = congest::kernel::LateMsg;

struct RoundFrame {
  unsigned src = 0;
  std::uint32_t round = 0;
  std::vector<WireMsg> msgs;
};

struct CountFrame {
  unsigned src = 0;
  std::uint32_t round = 0;    // counts are valid for entering this round
  std::uint64_t active = 0;   // nodes scheduled on this rank
  std::uint64_t extras = 0;   // deliveries parked in this rank's delay ring
  std::uint64_t msgs = 0;     // messages this rank's nodes sent last round
  std::uint64_t bits = 0;     // bits this rank's nodes sent last round
  unsigned rejoin_rank = kNoRank;  // coordinator: rank rejoining next round
};

struct HelloFrame {
  unsigned src = 0;
  NodeId n = 0;
  std::uint64_t seed = 0;
  std::uint32_t cap_bits = 0;
  std::uint64_t plan_digest = 0;
  unsigned procs = 0;
};

struct ResultFrame {
  unsigned src = 0;
  bool tripped = false;
  congest::RunStats stats;
  NodeId reg_lo = 0;               // first node of the register image
  std::vector<int> registers;      // owned mate-port registers (-1 = unmatched)
  std::vector<obs::MetricsRegistry::Merged> metrics;  // empty without obs
};

struct CheckpointFrame {
  unsigned src = 0;
  std::uint32_t round = 0;
  NodeId reg_lo = 0;
  std::vector<int> registers;
};

struct ResumeFrame {
  std::uint32_t round = 0;         // first round the rejoiner participates in
  std::uint64_t nonce = 0;         // advanced fault-stream nonce for the replay
  NodeId reg_lo = 0;
  std::vector<int> registers;      // last checkpoint of the rejoiner's range
  std::vector<char> rank_dead;     // current liveness view, size = group size
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const HelloFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_round(const RoundFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_count(const CountFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_result(const ResultFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const CheckpointFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_resume(const ResumeFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_abort(unsigned src,
                                                     std::uint32_t round);
[[nodiscard]] std::vector<std::uint8_t> encode_rejoin(unsigned src);

[[nodiscard]] std::optional<HelloFrame> decode_hello(
    std::span<const std::uint8_t> frame);
/// `max_msg_bits` is the largest payload the decoder accepts per message
/// (the CONGEST cap, or a generous bound under Model::kLocal); `dst` and
/// `port` are validated against `g`.
[[nodiscard]] std::optional<RoundFrame> decode_round(
    std::span<const std::uint8_t> frame, const Graph& g,
    std::uint32_t max_msg_bits);
[[nodiscard]] std::optional<CountFrame> decode_count(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<ResultFrame> decode_result(
    std::span<const std::uint8_t> frame, NodeId n);
[[nodiscard]] std::optional<CheckpointFrame> decode_checkpoint(
    std::span<const std::uint8_t> frame, NodeId n);
[[nodiscard]] std::optional<ResumeFrame> decode_resume(
    std::span<const std::uint8_t> frame, NodeId n);

}  // namespace dmatch::mp
