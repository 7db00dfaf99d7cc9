// Message channels over simulated links.
//
// Two transports, mirroring the distinction the paper draws in §3.1:
//  * DatagramChannel — UDP-like, lossy, unordered. This is what 3GPP's GTP
//    runs over; it is fragile on bad backhaul.
//  * ReliableChannel — TCP-like: retransmission, cumulative ACKs, in-order
//    delivery. This is what gRPC inherits and why Magma's control traffic
//    survives satellite backhaul.
//
// The reliable transport is RFC-faithful so that the backhaul experiments
// measure real TCP behaviour rather than a caricature:
//
//  * RTT estimation (RFC 6298) — ACKs yield samples R. The first sample
//    seeds SRTT = R, RTTVAR = R/2; later samples update
//    RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R| and SRTT = 7/8·SRTT + 1/8·R
//    (alpha = 1/8, beta = 1/4).
//  * RTO — SRTT + max(G, 4·RTTVAR), clamped to [kMinRto, kMaxRto]. Until
//    the first sample arrives, `initial_rto` is used. A segment whose timer
//    fires backs its own RTO off exponentially (bounded by kMaxRto; the
//    `rto_at_cap` counter records timeouts that fired with the backoff
//    already clamped — a gateway "sitting at kMaxRto" is page-worthy);
//    fresh sends always start from the connection's current estimate.
//  * Karn's rule / TSopt — without timestamps, segments that were ever
//    retransmitted never contribute RTT samples (their ACK is ambiguous
//    between original and retry). With `timestamps` on (the default, RFC
//    7323 TSopt analogue) every DATA segment carries its transmit time and
//    the ACK echoes it, so even retransmitted segments yield unambiguous
//    samples — Karn's rule is relaxed and the estimator reconverges within
//    a handful of samples after an outage instead of waiting for fresh,
//    never-retransmitted traffic.
//  * Congestion control (NewReno-style, gated by `congestion_control`) —
//    the window is counted in segments (one message = one segment = one
//    "MSS"). Slow start grows cwnd by one segment per newly acked segment
//    below ssthresh, congestion avoidance by one segment per window above
//    it. A fast retransmit halves ssthresh to max(flight/2, 2) and enters
//    fast recovery (cwnd = ssthresh + kDupackThreshold, inflated per extra
//    dup ACK, deflated to ssthresh on the ACK that covers `recover`); a
//    retransmission timeout collapses cwnd to 1. New data is admitted only
//    while flight_size < cwnd (property-tested: `window_violations` stays
//    0 and cwnd never drops below 1 segment); messages beyond the window
//    queue in order and are released as ACKs open it — this is the
//    backpressure a satellite config push actually experiences.
//  * Fast retransmit — the receiver acks every DATA segment cumulatively;
//    `kDupackThreshold` (3) duplicate ACKs for the same sequence
//    trigger one immediate retransmission of that segment without waiting
//    for the RTO, once per duplicate burst.
//  * Selective ACKs (gated by `sack`) — every ACK carries up to
//    `kMaxSackBlocks` ranges of out-of-order data held in the reorder
//    buffer. The sender marks sacked segments (they leave the flight and
//    are never retransmitted) and retransmits any hole with >=
//    kDupackThreshold sacked segments above it immediately
//    (`sack_retransmits`), so a multi-loss burst repairs in about one RTT
//    where cumulative ACKs alone would pay one RTO per hole.
//  * Piggybacked ACKs — every DATA segment carries the sender's cumulative
//    receive point (plus the epoch it refers to), exactly as every TCP
//    segment carries the ACK field. Pure ACKs are unreliable; when a run
//    of them is lost, the reverse direction's data keeps the forward
//    direction's window moving. Without this, one stuck segment whose ACKs
//    keep getting unlucky backs its RTO off to kMaxRto and starves a
//    bidirectional RPC channel for minutes while the other direction is
//    perfectly healthy.
//  * Reset semantics — a segment exhausting `max_retries` resets the
//    connection (the RST-after-repeated-RTO analogue): every outstanding
//    message — including ones still queued behind the congestion window —
//    is handed to the `set_send_failure_handler` callback (never silently
//    dropped), the epoch is bumped, and an RST notification is sent so the
//    peer clears its reorder buffer for the dead epoch. Traffic sent after
//    the reset flows on the fresh epoch with fresh congestion state.
//
// Accounting invariant (property-tested): at quiescence every sent message
// is either acked or failed, i.e. messages_sent == messages_acked +
// failures on the sending endpoint, and everything acked was delivered
// in order, exactly once, at the peer. (A message can be *delivered* yet
// counted failed if its ACK was lost before a reset — TCP has the same
// ambiguity — so receiver-side messages_delivered >= sender-side
// messages_acked.)
//
// Channels carry discrete messages (the RPC layer does its own framing).
// Segment headers cross the simulated wire through the codec below
// (encode_segment_header / decode_segment_header): the sender encodes, the
// receiver decodes and drops anything malformed, and the TCP-equivalent
// option cost (10 B timestamps, 2+8n B SACK) is billed to the link.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "sim/kernel.h"
#include "sim/link.h"
#include "sim/random.h"

namespace magma::net {

// One side of a bidirectional message pipe.
class Channel {
 public:
  virtual ~Channel() = default;
  // Fire-and-forget. Delivery semantics depend on the transport.
  virtual void send(common::Bytes message) = 0;
  virtual void set_receiver(std::function<void(common::Bytes)> receiver) = 0;
  // Invoked once per message the transport gives up on (connection reset),
  // with the original payload. Transports without failure detection
  // (datagrams) never invoke it; the default sink discards.
  virtual void set_send_failure_handler(
      std::function<void(common::Bytes)> handler) {
    (void)handler;
  }
  // Backpressure signal: messages accepted by send() but not yet
  // acknowledged (queued behind the congestion window or in flight).
  // Datagram transports have no queue and report 0. Applications shipping
  // best-effort traffic should shed when this grows — piling telemetry onto
  // a congested backhaul starves the control RPCs sharing the channel.
  virtual std::size_t send_backlog() const { return 0; }
};

// A duplex path: two unidirectional links with independent queues.
struct DuplexLink {
  DuplexLink(sim::Kernel& kernel, sim::Rng& rng, const sim::LinkConfig& cfg)
      : forward(kernel, rng.fork(), cfg), reverse(kernel, rng.fork(), cfg) {}
  sim::Link forward;
  sim::Link reverse;
};

struct ChannelPair {
  std::unique_ptr<Channel> a;  // sends on forward, receives on reverse
  std::unique_ptr<Channel> b;  // sends on reverse, receives on forward
};

// Unreliable transport. Per-message overhead models IP+UDP headers.
ChannelPair make_datagram_pair(sim::Kernel& kernel, DuplexLink& path);

// Clamp for the adaptive RTO estimate (RFC 6298 §2.4 uses 1 s for the lower
// bound; we go lower because simulated control links are cleaner than the
// 2004 Internet).
inline constexpr sim::Duration kMinRto = 100 * sim::kMillisecond;
inline constexpr sim::Duration kMaxRto = 30 * sim::kSecond;
// IP+TCP (options billed separately).
inline constexpr std::uint64_t kHeaderOverhead = 40;
// Duplicate cumulative ACKs that trigger a fast retransmit. Also the SACK
// loss threshold: a hole with this many sacked segments above it is
// considered lost and retransmitted.
inline constexpr int kDupackThreshold = 3;
// SACK blocks per ACK: TCP fits 3-4 blocks in the options space.
inline constexpr int kMaxSackBlocks = 4;

struct ReliableConfig {
  // RTO before the first RTT sample (and forever when adaptive_rto=false).
  // RFC 6298 §2.1 mandates 1 s, and the value matters more than it looks:
  // with Karn's rule, an initial RTO below the path RTT retransmits every
  // segment before its ACK can arrive, so no segment ever yields a sample
  // and the estimator never seeds — the old fixed 200 ms default locked
  // satellite links (≥500 ms RTT) into a permanent spurious-retransmission
  // storm. (Timestamps break that deadlock, but the mandate stands.)
  sim::Duration initial_rto = 1 * sim::kSecond;
  int max_retries = 12;  // after this, the connection resets
  // RFC 6298 SRTT/RTTVAR estimator with Karn's rule. false = the fixed-RTO
  // baseline (pure exponential backoff from initial_rto), kept for the
  // ablation benches.
  bool adaptive_rto = true;
  // --- congestion control (NewReno-style; window counted in segments) ----
  // false = the pre-cwnd transport: every message transmits the instant it
  // is sent, however many are in flight (kept for the ablation benches —
  // the "unbounded burst" a satellite config push must not be).
  bool congestion_control = true;
  std::uint64_t initial_cwnd = 4;       // IW (RFC 6928 spirit), segments
  std::uint64_t initial_ssthresh = 64;  // slow start until loss, in effect
  std::uint64_t max_cwnd = 256;         // receive-window stand-in
  // Selective acknowledgements on every ACK (RFC 2018 analogue).
  bool sack = true;
  // TSopt-style per-segment timestamps (RFC 7323 analogue): RTT samples
  // from retransmitted segments, relaxing Karn's rule.
  bool timestamps = true;
};

struct ReliableStats {
  std::uint64_t messages_sent = 0;
  // Receiver side: messages handed to the application (in order, once).
  std::uint64_t messages_delivered = 0;
  // Sender side: messages confirmed by a cumulative ACK.
  std::uint64_t messages_acked = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;  // subset of retransmissions
  // Holes retransmitted from SACK information alone (no cumulative
  // progress, not the front hole) — also a subset of retransmissions.
  std::uint64_t sack_retransmits = 0;
  // Receiver side: DATA segments that duplicated already-received data —
  // the wire-visible cost of a too-short RTO.
  std::uint64_t spurious_retransmits = 0;
  std::uint64_t failures = 0;  // messages abandoned by a connection reset
  std::uint64_t resets = 0;    // connection resets (epoch bumps)
  std::uint64_t rtt_samples = 0;
  sim::Duration srtt = 0;      // smoothed RTT; 0 until the first sample
  sim::Duration rttvar = 0;
  sim::Duration rto = 0;       // current connection RTO
  // Timeouts that fired with their per-segment backoff already clamped at
  // kMaxRto — the control channel is "sitting at kMaxRto" (ROADMAP alert).
  std::uint64_t rto_at_cap = 0;
  // --- congestion state (segments; cwnd/ssthresh 0 when disabled) --------
  std::uint64_t cwnd = 0;
  std::uint64_t ssthresh = 0;
  std::uint64_t flight_size = 0;      // transmitted, neither acked nor sacked
  std::uint64_t max_flight_size = 0;  // high watermark over the connection
  std::uint64_t min_cwnd = 0;         // low watermark (invariant: >= 1)
  // New-data transmissions admitted while flight_size >= cwnd. The sender
  // checks the window at every send decision; this must stay 0.
  std::uint64_t window_violations = 0;
};

// Reliable, in-order transport (simplified TCP). Returned channels expose
// stats via stats().
class ReliableChannel : public Channel {
 public:
  virtual const ReliableStats& stats() const = 0;
  // Out-of-order payloads currently buffered awaiting the in-order prefix.
  // A peer reset purges this via the RST notification; tests and telemetry
  // (the transport_reorder_backlog gauge) use it to catch stale payloads
  // lingering from a dead epoch.
  virtual std::size_t reorder_backlog() const = 0;
};

struct ReliablePair {
  std::unique_ptr<ReliableChannel> a;
  std::unique_ptr<ReliableChannel> b;
};

ReliablePair make_reliable_pair(sim::Kernel& kernel, DuplexLink& path,
                                ReliableConfig config = {});

// ---------------------------------------------------------------------------
// Segment header wire codec
// ---------------------------------------------------------------------------
//
// The reliable endpoints serialize every segment header through this codec
// before it crosses the simulated link and decode it on arrival (malformed
// headers are dropped like line noise), so the SACK and timestamp options
// are real wire state, not shared memory. Fuzzed in tests/fuzz_codec_test.

// Half-open range [start, end) of out-of-order sequence numbers the
// receiver holds beyond the cumulative ACK point.
struct SackBlock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool operator==(const SackBlock&) const = default;
};

struct SegmentHeader {
  std::uint64_t epoch = 0;  // incarnation of the seq/data stream
  std::uint64_t seq = 0;  // DATA only; 0 on ACK/RST
  // Cumulative acknowledgment: all seq < ack of the peer's data stream
  // received. Carried by pure ACKs *and piggybacked on every DATA segment*
  // (like TCP, where every segment has the ACK field) — without this, a
  // run of lost pure ACKs wedges one direction behind an exponentially
  // backed-off RTO even while the other direction flows normally.
  std::uint64_t ack = 0;
  // Incarnation of the stream `ack` refers to (the *peer's* epoch). The
  // receiver of the ack info ignores it unless this matches its own
  // epoch — sequence numbers restart at 0 after a reset, so a stale
  // in-flight ack would otherwise confirm fresh segments it never covered.
  std::uint64_t ack_epoch = 0;
  bool is_ack = false;
  bool is_rst = false;  // reset notification: peer drops the dead epoch
  bool has_ts = false;  // timestamp option present
  sim::TimePoint tsval = 0;  // transmit time of this segment
  sim::TimePoint tsecr = 0;  // ACK only: echoed tsval of the acked data
  std::vector<SackBlock> sack;  // ACK only: ascending, disjoint, non-empty
};

common::Bytes encode_segment_header(const SegmentHeader& header);
// Fail-soft: arbitrary bytes must never crash; structurally invalid input
// (reserved flags, unordered/empty SACK blocks, trailing bytes) is an error.
common::Result<SegmentHeader> decode_segment_header(common::BytesView data);
// TCP-equivalent option cost billed to the link on top of kHeaderOverhead:
// 10 bytes for the timestamp option, 2 + 8·n for n SACK blocks.
std::uint64_t segment_option_bytes(const SegmentHeader& header);

}  // namespace magma::net
