#include "congest/resilient.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "support/assert.hpp"
#include "support/wire.hpp"

namespace dmatch::congest {

namespace {

constexpr unsigned kVrBits = 20;
constexpr unsigned kAckBits = 20;
constexpr unsigned kSackBits = 16;
constexpr unsigned kKindBits = 2;
constexpr unsigned kCntBits = 4;   // parity group size - 1
constexpr unsigned kLenBits = 16;  // payload bit count inside an encoding
constexpr std::uint32_t kVrMax = (std::uint32_t{1} << kVrBits) - 1;

// Frame kinds (the 2-bit field after the ack section).
constexpr std::uint64_t kKindNone = 0;    // pure ack
constexpr std::uint64_t kKindData = 1;    // one inner-protocol frame
constexpr std::uint64_t kKindParity = 2;  // XOR parity over a vr range

// Receiver-side encodings retained per port for parity reconstruction.
// A parity group spans <= 16 frames starting at the sender's oldest
// unacked frame, which trails the receiver's cumulative counter by at
// most a window; 48 covers that with margin.
constexpr std::size_t kFecHistory = 48;

void append_payload(BitWriter& w, const Message& msg) {
  BitReader r = msg.reader();
  while (r.remaining() > 0) {
    const unsigned take = std::min(64u, r.remaining());
    w.write(r.read(take), take);
  }
}

Message read_payload(BitReader& r) {
  BitWriter w;
  while (r.remaining() > 0) {
    const unsigned take = std::min(64u, r.remaining());
    w.write(r.read(take), take);
  }
  return Message::from_writer(std::move(w));
}

/// Length-framed encoding of one data frame, the unit the FEC parity is
/// XORed over: halt(1) has_payload(1) payload_len(16) payload. The
/// explicit length makes the XOR of variable-length payloads invertible
/// (the reconstructed frame knows exactly where its payload ends even
/// though the parity body is padded to the longest group member).
Message encode_protected(bool halt, bool has_payload, const Message& payload) {
  BitWriter w;
  w.write_bool(halt);
  w.write_bool(has_payload);
  w.write(has_payload ? payload.bits() : 0, kLenBits);
  if (has_payload) append_payload(w, payload);
  return Message::from_writer(std::move(w));
}

/// Context handed to the wrapped process: identical to the real one
/// except that time is the virtual-round clock and sends are captured
/// for framing instead of hitting the wire directly.
class ResilientContext final : public Context {
 public:
  ResilientContext(Context& real, int vround,
                   std::vector<std::pair<bool, Message>>& out)
      : real_(real), vround_(vround), out_(out) {}

  [[nodiscard]] NodeId id() const override { return real_.id(); }
  [[nodiscard]] int degree() const override { return real_.degree(); }
  [[nodiscard]] NodeId neighbor_id(int port) const override {
    return real_.neighbor_id(port);
  }
  [[nodiscard]] Weight edge_weight(int port) const override {
    return real_.edge_weight(port);
  }
  [[nodiscard]] NodeId n_bound() const override { return real_.n_bound(); }
  [[nodiscard]] int round() const override { return vround_; }
  Rng& rng() override { return real_.rng(); }

  void send(int port, Message msg) override {
    DMATCH_EXPECTS(port >= 0 &&
                   port < static_cast<int>(out_.size()));
    DMATCH_EXPECTS(!out_[static_cast<std::size_t>(port)].first);
    out_[static_cast<std::size_t>(port)] = {true, std::move(msg)};
  }

  [[nodiscard]] int mate_port() const override { return real_.mate_port(); }
  void set_mate_port(int port) override { real_.set_mate_port(port); }
  void clear_mate() override { real_.clear_mate(); }
  [[nodiscard]] obs::ShardObs* obs() noexcept override { return real_.obs(); }

 private:
  Context& real_;
  int vround_;
  std::vector<std::pair<bool, Message>>& out_;
};

}  // namespace

ResilientProcess::ResilientProcess(std::unique_ptr<Process> inner, int degree,
                                   ResilientOptions opts)
    : inner_(std::move(inner)), opts_(opts) {
  DMATCH_EXPECTS(inner_ != nullptr);
  DMATCH_EXPECTS(degree >= 0);
  opts_.window = std::clamp(opts_.window, 1, static_cast<int>(kSackBits));
  opts_.min_rto = std::max(opts_.min_rto, 1);
  opts_.initial_rto = std::max(opts_.initial_rto, opts_.min_rto);
  opts_.max_timeout = std::max(opts_.max_timeout, opts_.initial_rto);
  opts_.fec_group =
      std::clamp(opts_.fec_group, 0, static_cast<int>(kSackBits));
  opts_.spec_retx = std::clamp(opts_.spec_retx, 0, 2);
  opts_.rto_var_mult = std::max(opts_.rto_var_mult, 1);
  ports_.resize(static_cast<std::size_t>(degree));
  // A process born halted is never scheduled by the engine; it only ever
  // wakes when a frame arrives, and then announces its halt reactively.
  reactive_ = inner_->halted();
  inner_halted_ = reactive_;
}

bool ResilientProcess::halted() const { return reactive_ || done_; }

void ResilientProcess::rtt_sample(PortState& p, int sample) {
  // BSD fixed point: srtt is the smoothed RTT × 8, rttvar the mean
  // deviation × 4, so the EWMA gains 1/8 and 1/4 survive integer math
  // at round-scale magnitudes. The gains themselves are model-agnostic
  // (they track whatever distribution feeds them); what the delay model
  // changes is the variance multiplier in port_rto below.
  if (!p.have_rtt) {
    p.srtt = sample << 3;
    p.rttvar = sample << 1;
    p.have_rtt = true;
    return;
  }
  int err = sample - (p.srtt >> 3);
  p.srtt += err;
  if (p.srtt < 1) p.srtt = 1;
  if (err < 0) err = -err;
  p.rttvar += err - (p.rttvar >> 2);
}

int ResilientProcess::port_rto(const PortState& p) const {
  if (!p.have_rtt) return opts_.initial_rto;
  const int rto =
      (p.srtt >> 3) + std::max(1, (p.rttvar >> 2) * opts_.rto_var_mult);
  return std::clamp(rto, opts_.min_rto, opts_.max_timeout);
}

int ResilientProcess::frame_timeout(const PortState& p,
                                    const OutFrame& f) const {
  // Exponential backoff per retransmission, capped.
  const int shift = std::min(f.retries, 16);
  const long long t = static_cast<long long>(port_rto(p)) << shift;
  return t >= opts_.max_timeout ? opts_.max_timeout : static_cast<int>(t);
}

void ResilientProcess::note_accept(PortState& p, std::uint32_t vr, bool halt,
                                   bool has_payload, const Message& payload) {
  if (opts_.fec_group <= 0) return;
  // Keep the encoding for parity reconstruction, in ascending vr
  // (arrivals may be out of order), pruned to a fixed depth.
  Message enc = encode_protected(halt, has_payload, payload);
  auto it = p.enc_history.end();
  while (it != p.enc_history.begin() && std::prev(it)->first > vr) --it;
  p.enc_history.insert(it, {vr, std::move(enc)});
  while (p.enc_history.size() > kFecHistory) p.enc_history.pop_front();
}

void ResilientProcess::accept_data(Context& ctx, std::size_t port,
                                   PortState& p, std::uint32_t vr, bool halt,
                                   bool has_payload, Message payload) {
  DMATCH_OBS(obs::ShardObs* const o = ctx.obs();)
  p.owe_ack = true;  // every data frame is (re-)acked
  if (halt && !p.peer_halted) {
    p.peer_halted = true;
    p.peer_halt_vr = vr;
  }
  if (vr < p.next_vr) {
    // Duplicate: discard, idempotent receive. Whatever produced this
    // copy — a duplicate fault or any flavor of retransmit — was
    // unnecessary, which is exactly the spurious-retransmit verdict.
    DMATCH_OBS(if (o != nullptr) o->count(o->ids().arq_spurious_rx);)
    return;
  }
  // A novel arrival below the highest vr ever accepted fills a gap the
  // link had already skipped past: a retransmission (or late original)
  // that was genuinely needed.
  [[maybe_unused]] const bool gap_fill = p.seen_any && vr < p.max_seen_vr;
  if (vr == p.next_vr) {
    note_accept(p, vr, halt, has_payload, payload);
    DMATCH_OBS(if (o != nullptr && gap_fill) {
      o->count(o->ids().arq_useful_rx);
    })
    InFrame f;
    f.vr = vr;
    f.has_payload = has_payload;
    f.payload = std::move(payload);
    p.inq.push_back(std::move(f));
    ++p.next_vr;
    // The gap just closed: drain every buffered successor in order.
    auto it = p.ooo.begin();
    while (it != p.ooo.end() && it->vr == p.next_vr) {
      p.inq.push_back(std::move(*it));
      ++p.next_vr;
      ++it;
    }
    p.ooo.erase(p.ooo.begin(), it);
  } else if (vr - p.next_vr > kSackBits) {
    // Beyond any legal sender window, so this is not reordering: one
    // side restarted. Skip ahead — the gap vrounds are lost — and drop
    // the stale reorder buffer plus any FEC state keyed to it.
    p.ooo.clear();
    p.enc_history.clear();
    p.parity_pending = false;
    note_accept(p, vr, halt, has_payload, payload);
    InFrame f;
    f.vr = vr;
    f.has_payload = has_payload;
    f.payload = std::move(payload);
    p.inq.push_back(std::move(f));
    p.next_vr = vr + 1;
  } else {
    // In-window, out of order: buffer once, advertise in the sack bitmap.
    auto it = p.ooo.begin();
    while (it != p.ooo.end() && it->vr < vr) ++it;
    if (it != p.ooo.end() && it->vr == vr) {
      DMATCH_OBS(if (o != nullptr) o->count(o->ids().arq_spurious_rx);)
      return;  // already held
    }
    note_accept(p, vr, halt, has_payload, payload);
    DMATCH_OBS(if (o != nullptr && gap_fill) {
      o->count(o->ids().arq_useful_rx);
    })
    InFrame f;
    f.vr = vr;
    f.has_payload = has_payload;
    f.payload = std::move(payload);
    p.ooo.insert(it, std::move(f));
  }
  if (!p.seen_any || vr > p.max_seen_vr) {
    p.seen_any = true;
    p.max_seen_vr = vr;
  }
  // A novel acceptance may be the last piece a pending parity needed.
  if (opts_.fec_group > 0) try_reconstruct(ctx, port, p);
}

void ResilientProcess::try_reconstruct(Context& ctx, std::size_t port,
                                       PortState& p) {
  if (!p.parity_pending) return;
  const std::uint32_t base = p.parity_base;
  const std::uint32_t end = base + p.parity_cnt;
  if (end <= p.next_vr) {  // group fully delivered: nothing to recover
    p.parity_pending = false;
    return;
  }
  // Exactly one frame of the group must be missing from the retained
  // encodings for the XOR to be invertible. (A delivered frame whose
  // encoding was pruned also counts as missing — then reconstruction is
  // skipped rather than risked; the history depth makes that rare.)
  const auto find_enc = [&p](std::uint32_t vr) -> const Message* {
    for (const auto& [hv, enc] : p.enc_history) {
      if (hv == vr) return &enc;
      if (hv > vr) break;
    }
    return nullptr;
  };
  std::uint32_t missing_vr = 0;
  int missing = 0;
  for (std::uint32_t vr = base; vr != end; ++vr) {
    if (find_enc(vr) != nullptr) continue;
    missing_vr = vr;
    if (++missing > 1) return;  // keep the parity, retry on next arrival
  }
  if (missing == 0) {
    p.parity_pending = false;
    return;
  }
  // XOR every held encoding back out of the parity body; what remains is
  // the missing frame's zero-padded encoding.
  Message rec = p.parity_body;
  const std::span<std::uint64_t> rw = rec.words();
  for (std::uint32_t vr = base; vr != end; ++vr) {
    if (vr == missing_vr) continue;
    const std::span<const std::uint64_t> ew = find_enc(vr)->words();
    for (std::size_t i = 0; i < ew.size() && i < rw.size(); ++i) {
      rw[i] ^= ew[i];
    }
  }
  p.parity_pending = false;
  BitReader r = rec.reader();
  if (r.remaining() < 2 + kLenBits) return;  // malformed: ignore
  const bool halt = r.read_bool();
  const bool has_payload = r.read_bool();
  const auto len = static_cast<std::uint32_t>(r.read(kLenBits));
  if (len > r.remaining() || (!has_payload && len != 0)) return;
  BitWriter pw;
  std::uint32_t left = len;
  while (left > 0) {
    const unsigned take = std::min(64u, left);
    pw.write(r.read(take), take);
    left -= take;
  }
  DMATCH_OBS(if (obs::ShardObs* const o = ctx.obs(); o != nullptr) {
    o->trace(obs::EventType::kFecReconstruct,
             static_cast<std::uint32_t>(ctx.id()), port, missing_vr);
    o->count(o->ids().fec_reconstructions);
  })
  accept_data(ctx, port, p, missing_vr, halt, has_payload,
              Message::from_writer(std::move(pw)));
}

void ResilientProcess::absorb_frame(Context& ctx, const Envelope& env) {
  PortState& p = ports_[static_cast<std::size_t>(env.port)];
  if (p.dead) return;
  p.silence = 0;
  BitReader r = env.msg.reader();
  if (r.read_bool()) {
    const auto ack = static_cast<std::uint32_t>(r.read(kAckBits));
    const auto sack = static_cast<std::uint32_t>(r.read(kSackBits));
    if (ack > p.last_ack) {
      // Fresh cumulative progress: everything below `ack` arrived.
      while (!p.outq.empty() && p.outq.front().vr < ack) {
        const OutFrame& f = p.outq.front();
        if (f.txed && f.rtt_eligible) rtt_sample(p, f.since_tx + 1);
        p.outq.pop_front();
      }
      p.last_ack = ack;
      p.dup_acks = 0;
      p.fast_pending = false;
    } else if (ack == p.last_ack && !p.outq.empty() &&
               p.outq.front().txed && p.outq.front().vr == ack) {
      // The peer re-acked without progress while our oldest frame is in
      // flight: evidence it is missing.
      ++p.dup_acks;
    }
    if (ack == p.last_ack) {
      // Sack bits are relative to this cumulative ack; a stale ack's
      // bitmap would mislabel frames, so only the current one counts.
      bool sacked_any = false;
      for (unsigned i = 0; i < kSackBits; ++i) {
        if (((sack >> i) & 1u) == 0) continue;
        const std::uint32_t sv = ack + 1 + i;
        for (OutFrame& f : p.outq) {
          if (f.vr > sv) break;
          if (f.vr == sv) {
            if (f.txed && !f.acked) {
              f.acked = true;
              f.rtt_eligible = false;  // arrival time now unknowable
            }
            sacked_any = true;
            break;
          }
        }
      }
      if (!p.outq.empty() && p.outq.front().txed &&
          p.outq.front().vr == ack &&
          (sacked_any || p.dup_acks >= opts_.dupack_threshold)) {
        p.fast_pending = true;
      }
    }
  }
  const auto kind = r.read(kKindBits);
  if (kind == kKindData) {
    const auto vr = static_cast<std::uint32_t>(r.read(kVrBits));
    const bool halt = r.read_bool();
    const bool has_payload = r.read_bool();
    Message payload;
    if (has_payload) payload = read_payload(r);
    accept_data(ctx, static_cast<std::size_t>(env.port), p, vr, halt,
                has_payload, std::move(payload));
  } else if (kind == kKindParity) {
    const auto base = static_cast<std::uint32_t>(r.read(kVrBits));
    const auto cnt = static_cast<std::uint32_t>(r.read(kCntBits)) + 1;
    // A parity frame means the sender still misses an ack from us.
    p.owe_ack = true;
    if (opts_.fec_group > 0) {
      p.parity_pending = true;
      p.parity_base = base;
      p.parity_cnt = cnt;
      p.parity_body = read_payload(r);
      try_reconstruct(ctx, static_cast<std::size_t>(env.port), p);
    }
  }
}

bool ResilientProcess::can_advance() const {
  if (inner_halted_) return false;
  const std::uint32_t v = vround_;
  if (v == 0) return true;  // round 0 consumes no input
  for (const PortState& p : ports_) {
    if (p.dead) continue;
    if (!p.inq.empty()) continue;
    if (p.peer_halted && v - 1 > p.peer_halt_vr) continue;  // silent by halt
    return false;
  }
  return true;
}

void ResilientProcess::advance_inner(Context& ctx) {
  const std::uint32_t v = vround_;
  DMATCH_EXPECTS(v < kVrMax);
  const auto deg = ports_.size();
  inner_inbox_.clear();
  if (v > 0) {
    for (std::size_t port = 0; port < deg; ++port) {
      PortState& p = ports_[port];
      if (p.inq.empty()) continue;
      InFrame f = std::move(p.inq.front());
      p.inq.pop_front();
      if (f.has_payload) {
        inner_inbox_.push_back({static_cast<int>(port), std::move(f.payload)});
      }
    }
  }
  std::vector<std::pair<bool, Message>> outs(deg);
  ResilientContext ictx(ctx, static_cast<int>(v), outs);
  inner_->on_round(ictx, inner_inbox_);
  vround_ = v + 1;
  inner_halted_ = inner_->halted();
  for (std::size_t port = 0; port < deg; ++port) {
    PortState& p = ports_[port];
    // Dead links get nothing; halted peers cannot change state anyway.
    if (p.dead || p.peer_halted) continue;
    OutFrame f;
    f.vr = v;
    f.halt = inner_halted_;
    f.has_payload = outs[port].first;
    if (f.has_payload) f.payload = std::move(outs[port].second);
    p.outq.push_back(std::move(f));
  }
}

void ResilientProcess::transmit(Context& ctx) {
  DMATCH_OBS(obs::ShardObs* const o = ctx.obs();)
  const auto deg = ports_.size();
  for (std::size_t port = 0; port < deg; ++port) {
    PortState& p = ports_[port];
    if (p.dead) continue;
    if (p.peer_halted) {
      p.outq.clear();
      p.fast_pending = false;
      p.dup_acks = 0;
    }
    for (OutFrame& f : p.outq) {
      if (f.txed && !f.acked) ++f.since_tx;
    }
    // Writes the current cumulative + selective ack; shared by the data
    // and parity emitters below.
    const auto write_ack = [&p](BitWriter& w) {
      std::uint32_t sack = 0;
      for (const InFrame& f : p.ooo) {
        const std::uint32_t idx = f.vr - p.next_vr - 1;
        if (idx < kSackBits) sack |= std::uint32_t{1} << idx;
      }
      w.write(p.next_vr, kAckBits);
      w.write(sack, kSackBits);
    };
    // At most one frame per real round (the engine's one message per
    // port per round), chosen by urgency: fast retransmit, then the
    // oldest timed-out frame, then a speculative SACK-hole retransmit,
    // then the next fresh frame in the window; an otherwise idle round
    // carries a parity frame (FEC) or an eager tail resend.
    OutFrame* send = nullptr;
    bool timeout_retx = false;
    bool spec_retx = false;
    if (p.fast_pending) {
      p.fast_pending = false;
      p.dup_acks = 0;
      if (!p.outq.empty() && p.outq.front().txed) {
        send = &p.outq.front();
        DMATCH_OBS(if (o != nullptr) {
          o->trace(obs::EventType::kArqFastRetransmit,
                   static_cast<std::uint32_t>(ctx.id()), port, send->vr);
          o->count(o->ids().arq_fast_retransmits);
        })
      }
    }
    if (send == nullptr) {
      for (OutFrame& f : p.outq) {
        if (!f.txed || f.acked) continue;
        if (f.since_tx < frame_timeout(p, f)) continue;
        if (f.retries >= opts_.max_retries) {
          // Peer unresponsive: give the link up for dead.
          p.dead = true;
          DMATCH_OBS(if (o != nullptr) {
            o->trace(obs::EventType::kArqLinkDead,
                     static_cast<std::uint32_t>(ctx.id()), port, 0);
            o->count(o->ids().arq_dead_links);
          })
          break;
        }
        send = &f;
        timeout_retx = true;
        DMATCH_OBS(if (o != nullptr) {
          o->trace(obs::EventType::kArqTimeoutRetransmit,
                   static_cast<std::uint32_t>(ctx.id()), port, f.vr);
          o->count(o->ids().arq_timeout_retransmits);
        })
        break;
      }
      if (p.dead) {
        p.outq.clear();
        continue;
      }
    }
    if (send == nullptr && opts_.spec_retx >= 1 && !p.outq.empty()) {
      // A selectively acked frame above an unsacked hole proves the hole
      // left the sender at least an RTT ago: resend it once, without
      // waiting for the RTO or a dupack quorum. One shot per frame —
      // the timeout path (whose clock keeps running) covers a re-loss.
      std::uint32_t top_sacked = 0;
      bool any_sacked = false;
      for (const OutFrame& f : p.outq) {
        if (f.acked) {
          top_sacked = f.vr;
          any_sacked = true;
        }
      }
      if (any_sacked) {
        for (OutFrame& f : p.outq) {
          if (f.vr >= top_sacked) break;
          if (!f.txed || f.acked || f.spec_txed) continue;
          send = &f;
          spec_retx = true;
          break;
        }
      }
    }
    if (send == nullptr && !p.outq.empty()) {
      // Frames go out strictly in vr order, so the first untransmitted
      // frame is the only launch candidate; the window (measured from
      // the oldest unacked frame) gates it.
      const std::uint32_t limit =
          p.outq.front().vr + static_cast<std::uint32_t>(opts_.window);
      for (OutFrame& f : p.outq) {
        if (f.txed) continue;
        if (f.vr < limit) send = &f;
        break;
      }
    }
    // Eager tail resend candidate: the oldest unacked frame, resent at
    // most once per real round. Covers phase tails where no later frame
    // exists to generate sack evidence, and the multi-loss residue a
    // single parity frame cannot repair. The RTO clock keeps running so
    // dead-link detection is unaffected.
    const auto pick_eager = [&p]() -> OutFrame* {
      for (OutFrame& f : p.outq) {
        if (f.acked) continue;
        if (f.txed && f.since_tx >= 1) return &f;
        break;
      }
      return nullptr;
    };
    // When FEC and eager resend both want an idle slot, alternate them:
    // parity repairs any single loss per group, the resend chips at the
    // multi-loss residue. The counter is per-port protocol state, so
    // the choice is a pure function of the delivery history.
    bool eager_first = false;
    if (send == nullptr && !p.outq.empty() && opts_.fec_group > 0 &&
        opts_.spec_retx >= 2) {
      eager_first = (p.idle_slots++ & 1) != 0;
    }
    if (send == nullptr && eager_first) {
      send = pick_eager();
      if (send != nullptr) spec_retx = true;
    }
    if (send == nullptr && opts_.fec_group > 0 && !p.outq.empty()) {
      // Idle round with frames in flight — exactly the shape of a loss
      // stall. Emit one parity frame over the oldest <= fec_group
      // transmitted frames so the receiver can reconstruct any single
      // loss of the group without waiting for a retransmission. The
      // parity body is at most 20 bits wider than the group's largest
      // data frame (see PROTOCOLS.md), so it never breaches a cap the
      // data frames respected with that margin.
      std::uint32_t cnt = 0;
      unsigned max_bits = 0;
      bool encodable = true;
      for (const OutFrame& f : p.outq) {
        if (!f.txed || cnt == static_cast<std::uint32_t>(opts_.fec_group)) {
          break;
        }
        const std::uint32_t pb = f.has_payload ? f.payload.bits() : 0;
        if (pb >= (std::uint32_t{1} << kLenBits)) {
          encodable = false;  // un-length-framable payload: skip parity
          break;
        }
        max_bits = std::max(max_bits, 2 + kLenBits + pb);
        ++cnt;
      }
      if (encodable && cnt > 0) {
        std::vector<std::uint64_t> acc((max_bits + 63) / 64, 0);
        std::uint32_t i = 0;
        for (const OutFrame& f : p.outq) {
          if (i == cnt) break;
          const Message enc =
              encode_protected(f.halt, f.has_payload, f.payload);
          const std::span<const std::uint64_t> ew = enc.words();
          for (std::size_t wi = 0; wi < ew.size(); ++wi) acc[wi] ^= ew[wi];
          ++i;
        }
        const std::uint32_t base = p.outq.front().vr;
        BitWriter w;
        w.write_bool(p.owe_ack);
        if (p.owe_ack) write_ack(w);
        w.write(kKindParity, kKindBits);
        w.write(base, kVrBits);
        w.write(cnt - 1, kCntBits);
        unsigned left = max_bits;
        std::size_t wi = 0;
        while (left > 0) {
          const unsigned take = std::min(64u, left);
          const std::uint64_t word = acc[wi++];
          w.write(take == 64 ? word
                             : word & ((std::uint64_t{1} << take) - 1),
                  take);
          left -= take;
        }
        DMATCH_OBS(if (o != nullptr) {
          o->trace(obs::EventType::kFecParity,
                   static_cast<std::uint32_t>(ctx.id()), port, base);
          o->count(o->ids().fec_parity_sent);
        })
        p.owe_ack = false;
        ctx.send(static_cast<int>(port), Message::from_writer(std::move(w)));
        continue;
      }
    }
    if (send == nullptr && opts_.spec_retx >= 2 && !p.outq.empty()) {
      send = pick_eager();
      if (send != nullptr) spec_retx = true;
    }
    const bool send_data = send != nullptr;
    if (!send_data && !p.owe_ack) continue;
    BitWriter w;
    w.write_bool(p.owe_ack);
    if (p.owe_ack) write_ack(w);
    w.write(send_data ? kKindData : kKindNone, kKindBits);
    if (send_data) {
      w.write(send->vr, kVrBits);
      w.write_bool(send->halt);
      w.write_bool(send->has_payload);
      if (send->has_payload) append_payload(w, send->payload);
      if (send->txed) send->rtt_eligible = false;  // Karn: ambiguous ack
      if (timeout_retx) ++send->retries;
      if (spec_retx) {
        send->spec_txed = true;
        DMATCH_OBS(if (o != nullptr) {
          o->trace(obs::EventType::kArqSpecRetransmit,
                   static_cast<std::uint32_t>(ctx.id()), port, send->vr);
          o->count(o->ids().arq_spec_retransmits);
        })
      } else {
        send->since_tx = 0;
      }
      send->txed = true;
    }
    p.owe_ack = false;
    ctx.send(static_cast<int>(port), Message::from_writer(std::move(w)));
  }
}

void ResilientProcess::reactive_round(Context& ctx,
                                      std::span<const Envelope> inbox) {
  // Under faults one port can appear twice in the inbox (a delayed or
  // duplicated frame next to a regular one), but the engine allows one
  // send per port per round — coalesce to a single reply per port.
  for (const Envelope& env : inbox) {
    PortState& p = ports_[static_cast<std::size_t>(env.port)];
    BitReader r = env.msg.reader();
    if (r.read_bool()) {  // acks need no reply
      r.read(kAckBits);
      r.read(kSackBits);
    }
    const auto kind = r.read(kKindBits);
    if (kind == kKindNone) continue;
    if (kind == kKindData) {
      const auto vr = static_cast<std::uint32_t>(r.read(kVrBits));
      if (vr >= p.next_vr) p.next_vr = vr + 1;
    }
    // Data and parity frames both prove the peer misses our ack.
    p.owe_ack = true;
  }
  for (std::size_t port = 0; port < ports_.size(); ++port) {
    PortState& p = ports_[port];
    if (!p.owe_ack) continue;
    p.owe_ack = false;
    // Combined ack + "halted since virtual round 0" announcement.
    BitWriter w;
    w.write_bool(true);
    w.write(p.next_vr, kAckBits);
    w.write(0, kSackBits);
    w.write(kKindData, kKindBits);
    w.write(0, kVrBits);
    w.write_bool(true);   // halt
    w.write_bool(false);  // no payload
    ctx.send(static_cast<int>(port), Message::from_writer(std::move(w)));
  }
}

void ResilientProcess::post_done_round(Context& ctx,
                                       std::span<const Envelope> inbox) {
  // Our last frame is acked and our queues are empty; all that remains
  // is re-acking peers whose view of us is behind (lost acks, restarts).
  for (const Envelope& env : inbox) {
    PortState& p = ports_[static_cast<std::size_t>(env.port)];
    if (p.dead) continue;
    BitReader r = env.msg.reader();
    if (r.read_bool()) {
      r.read(kAckBits);
      r.read(kSackBits);
    }
    const auto kind = r.read(kKindBits);
    if (kind == kKindNone) continue;
    if (kind == kKindData) {
      const auto vr = static_cast<std::uint32_t>(r.read(kVrBits));
      if (vr >= p.next_vr) p.next_vr = vr + 1;
    }
    p.owe_ack = true;
  }
  // One reply per port even if faults put two frames from it in this
  // inbox (the engine rejects a second same-port send in one round).
  for (std::size_t port = 0; port < ports_.size(); ++port) {
    PortState& p = ports_[port];
    if (!p.owe_ack) continue;
    p.owe_ack = false;
    BitWriter w;
    w.write_bool(true);
    w.write(p.next_vr, kAckBits);
    w.write(0, kSackBits);
    w.write(kKindNone, kKindBits);
    ctx.send(static_cast<int>(port), Message::from_writer(std::move(w)));
  }
}

void ResilientProcess::on_round(Context& ctx,
                                std::span<const Envelope> inbox) {
  if (reactive_) {
    reactive_round(ctx, inbox);
    return;
  }
  if (done_) {
    post_done_round(ctx, inbox);
    return;
  }
  for (const Envelope& env : inbox) absorb_frame(ctx, env);
  if (can_advance()) advance_inner(ctx);
  transmit(ctx);
  // Silence accounting: a port that blocks the next virtual round
  // without ever delivering a frame is eventually written off.
  if (!inner_halted_ && vround_ > 0) {
    for (std::size_t port = 0; port < ports_.size(); ++port) {
      PortState& p = ports_[port];
      if (p.dead || !p.inq.empty()) continue;
      if (p.peer_halted && vround_ - 1 > p.peer_halt_vr) continue;
      if (++p.silence > opts_.silence_limit) {
        p.dead = true;
        DMATCH_OBS(if (obs::ShardObs* const o = ctx.obs(); o != nullptr) {
          o->trace(obs::EventType::kArqLinkDead,
                   static_cast<std::uint32_t>(ctx.id()), port, 1);
          o->count(o->ids().arq_dead_links);
        })
      }
    }
  }
  if (inner_halted_) {
    done_ = true;
    for (const PortState& p : ports_) {
      if (!p.dead && !p.outq.empty()) {
        done_ = false;
        break;
      }
    }
  }
}

ProcessFactory resilient_factory(ProcessFactory inner, ResilientOptions opts) {
  return [inner = std::move(inner), opts](NodeId v, const Graph& g) {
    return std::make_unique<ResilientProcess>(inner(v, g), g.degree(v), opts);
  };
}

int resilient_round_budget(int inner_budget) {
  if (inner_budget <= 0) return 256;
  const long long budget = 2LL * inner_budget + 256;
  return budget > 1'000'000'000LL ? 1'000'000'000
                                  : static_cast<int>(budget);
}

}  // namespace dmatch::congest
