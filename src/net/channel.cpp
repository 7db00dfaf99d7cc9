#include "net/channel.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

#include "common/log.h"
#include "common/pool.h"
#include "obs/host_profiler.h"
#include "rpc/wire.h"

namespace magma::net {

namespace {

// Node-pooled ordered map: the retransmit and reorder windows churn one map
// node per segment in steady state, so their nodes cycle through a per-map
// freelist instead of the heap (DESIGN.md §9).
template <typename K, typename V>
using PooledMap =
    std::map<K, V, std::less<K>,
             common::PoolAllocator<std::pair<const K, V>>>;

constexpr std::uint64_t kDatagramOverhead = 28;  // IP + UDP headers

// Clock granularity G of RFC 6298: the minimum variance term in the RTO.
constexpr sim::Duration kRtoGranularity = 1 * sim::kMillisecond;

// Segment header flag bits (wire format).
constexpr std::uint8_t kFlagAck = 0x01;
constexpr std::uint8_t kFlagRst = 0x02;
constexpr std::uint8_t kFlagTs = 0x04;
constexpr std::uint8_t kFlagReservedMask =
    static_cast<std::uint8_t>(~(kFlagAck | kFlagRst | kFlagTs));

// Decoder bound on SACK blocks: more than TCP's option space could ever
// carry is wire garbage, not a bigger reorder buffer.
constexpr std::uint64_t kDecodeSackLimit = 16;

// Cap on RTO backoff doubling (2^20 ~ 1e6x) — kMaxRto clamps long before
// this; the cap only guards the shift against undefined behavior.
constexpr int kMaxBackoffShift = 20;

// ---------------------------------------------------------------------------
// Datagram transport
// ---------------------------------------------------------------------------

class DatagramEndpoint final : public Channel {
 public:
  explicit DatagramEndpoint(sim::Link& tx) : tx_(tx) {}

  void set_peer(DatagramEndpoint* peer) {
    peer_ = peer;
    peer_alive_ = peer ? std::weak_ptr<const void>(peer->alive_)
                       : std::weak_ptr<const void>();
  }

  void send(common::Bytes message) override {
    const std::uint64_t wire_size = message.size() + kDatagramOverhead;
    // The delivery closure outlives this call (it sits in the kernel's event
    // queue for the link's latency); the peer's liveness token turns a
    // delivery to a destroyed endpoint into a silent drop.
    tx_.transmit(wire_size, [peer = peer_, guard = peer_alive_,
                             msg = std::move(message)]() mutable {
      if (peer == nullptr || guard.expired()) return;
      if (peer->receiver_) peer->receiver_(std::move(msg));
    });
  }

  void set_receiver(std::function<void(common::Bytes)> receiver) override {
    receiver_ = std::move(receiver);
  }

 private:
  sim::Link& tx_;
  DatagramEndpoint* peer_ = nullptr;
  // Liveness token: in-flight segments hold a weak reference and drop
  // themselves if the destination died before arrival.
  std::shared_ptr<const void> alive_ = std::make_shared<int>(0);
  std::weak_ptr<const void> peer_alive_;
  std::function<void(common::Bytes)> receiver_;
};

// ---------------------------------------------------------------------------
// Reliable transport
// ---------------------------------------------------------------------------
//
// Discrete-message simplification of TCP: every DATA segment carries a
// sequence number; the peer responds with a cumulative ACK (plus SACK
// blocks for out-of-order data); the oldest unacked segment retransmits on
// an RFC 6298 adaptive RTO. New data is admitted against a NewReno
// congestion window. See channel.h for the estimator, Karn's rule / TSopt,
// fast retransmit, SACK repair, and reset semantics. Messages deliver in
// order, exactly once per epoch.
//
// Like TCP (RFC 6298 §5), the connection keeps ONE retransmission timer,
// covering the oldest transmitted-and-unsacked segment, restarted whenever
// an ACK makes progress. Per-segment timers armed at transmit time look
// equivalent but are not: under a pipelined window, a hole that takes one
// RTT to repair leaves every later segment to expire on a timer measured
// from its own transmission, and the resulting retransmission storm
// collapses cwnd on perfectly healthy links. The single timer measures
// *silence*, which is the only thing an RTO is for.

class ReliableEndpoint final : public ReliableChannel {
 public:
  ReliableEndpoint(sim::Kernel& kernel, sim::Link& tx, ReliableConfig config)
      : kernel_(kernel), tx_(tx), config_(config) {
    stats_.rto = config_.initial_rto;
    if (config_.congestion_control) {
      cwnd_ = std::max<std::uint64_t>(config_.initial_cwnd, 1);
      ssthresh_ = std::max<std::uint64_t>(config_.initial_ssthresh, 2);
      stats_.min_cwnd = cwnd_;
    }
    sync_cc_stats();
  }

  ~ReliableEndpoint() override {
    // In-flight link deliveries are defused by the liveness token; the
    // retransmission timer still references `this` and must be cancelled.
    if (timer_armed_) kernel_.cancel(retx_timer_);
  }

  void set_peer(ReliableEndpoint* peer) {
    peer_ = peer;
    peer_alive_ = peer ? std::weak_ptr<const void>(peer->alive_)
                       : std::weak_ptr<const void>();
  }

  void send(common::Bytes message) override {
    ++stats_.messages_sent;
    const std::uint64_t seq = next_seq_++;
    Pending& pending = outstanding_[seq];
    pending.payload = std::move(message);
    send_queue_.push_back(seq);
    try_send();
  }

  void set_receiver(std::function<void(common::Bytes)> receiver) override {
    receiver_ = std::move(receiver);
  }

  void set_send_failure_handler(
      std::function<void(common::Bytes)> handler) override {
    on_send_failed_ = std::move(handler);
  }

  const ReliableStats& stats() const override { return stats_; }

  std::size_t reorder_backlog() const override { return reorder_.size(); }

  // Everything sent but not yet cumulatively acked: segments in flight or
  // sacked plus messages still queued behind the congestion window.
  std::size_t send_backlog() const override { return outstanding_.size(); }

 private:
  struct Pending {
    common::Bytes payload;
    int retries = 0;
    bool transmitted = false;  // left the send queue at least once
    bool retransmitted = false;  // Karn's rule (non-timestamp mode)
    bool sacked = false;       // SACK-covered, awaiting cumulative ACK
    bool lost_marked = false;  // already loss-retransmitted this episode
    sim::TimePoint sent_at = 0;  // last (re)transmission time
  };
  using PendingMap = PooledMap<std::uint64_t, Pending>;

  bool cc_on() const { return config_.congestion_control; }

  sim::Duration current_rto() const {
    if (!config_.adaptive_rto || stats_.rtt_samples == 0) {
      return config_.initial_rto;
    }
    return stats_.rto;
  }

  // The armed timeout: the estimator's RTO doubled once per consecutive
  // timeout (exponential backoff), clamped to kMaxRto.
  sim::Duration backoff_rto() const {
    const int shift = std::min(consecutive_timeouts_, kMaxBackoffShift);
    const sim::Duration base = current_rto();
    sim::Duration rto = base;
    for (int i = 0; i < shift && rto < kMaxRto; ++i) rto *= 2;
    return std::min(rto, kMaxRto);
  }

  void sync_cc_stats() {
    stats_.flight_size = flight_;
    stats_.max_flight_size = std::max(stats_.max_flight_size, flight_);
    if (cc_on()) {
      stats_.cwnd = cwnd_;
      stats_.ssthresh = ssthresh_;
      stats_.min_cwnd = std::min(stats_.min_cwnd, cwnd_);
    }
  }

  void sample_rtt(sim::Duration r) {
    if (!config_.adaptive_rto) return;
    if (stats_.rtt_samples == 0) {
      stats_.srtt = r;
      stats_.rttvar = r / 2;
    } else {
      const sim::Duration err =
          stats_.srtt > r ? stats_.srtt - r : r - stats_.srtt;
      stats_.rttvar = (3 * stats_.rttvar + err) / 4;
      stats_.srtt = (7 * stats_.srtt + r) / 8;
    }
    ++stats_.rtt_samples;
    stats_.rto = std::clamp(
        stats_.srtt + std::max(kRtoGranularity, 4 * stats_.rttvar),
        kMinRto, kMaxRto);
  }

  // Oldest segment the retransmission timer is responsible for: the lowest
  // transmitted, not-yet-SACKed sequence still outstanding.
  PendingMap::iterator oldest_unsacked() {
    for (auto it = outstanding_.begin(); it != outstanding_.end(); ++it) {
      if (it->second.transmitted && !it->second.sacked) return it;
    }
    return outstanding_.end();
  }

  // RFC 6298 §5 timer management. start-if-idle after sends; restart on
  // ACK progress; stop when nothing transmitted-and-unsacked remains.
  void update_retx_timer(bool restart) {
    if (oldest_unsacked() == outstanding_.end()) {
      if (timer_armed_) kernel_.cancel(retx_timer_);
      timer_armed_ = false;
      return;
    }
    if (timer_armed_ && !restart) return;
    if (timer_armed_) kernel_.cancel(retx_timer_);
    timer_armed_ = true;
    retx_timer_ = kernel_.schedule(backoff_rto(), [this]() { on_timeout(); });
  }

  // Release queued messages while the congestion window has room. This is
  // the send decision the flight_size <= cwnd invariant is checked at.
  void try_send() {
    while (!send_queue_.empty()) {
      if (cc_on() && flight_ >= cwnd_) break;
      const std::uint64_t seq = send_queue_.front();
      send_queue_.pop_front();
      auto it = outstanding_.find(seq);
      if (it == outstanding_.end()) continue;  // failed by a reset
      if (cc_on() && flight_ >= cwnd_) ++stats_.window_violations;
      it->second.transmitted = true;
      ++flight_;
      highest_transmitted_ = std::max(highest_transmitted_, seq);
      transmit_data(seq);
    }
    sync_cc_stats();
    update_retx_timer(/*restart=*/false);
  }

  void transmit_data(std::uint64_t seq) {
    MAGMA_HOST_SCOPE("net.channel", "transmit_data");
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;  // already acked
    it->second.sent_at = kernel_.now();
    SegmentHeader header;
    header.epoch = epoch_;
    header.seq = seq;
    // Piggyback our cumulative receive point (TCP: every segment carries
    // the ACK field) so the peer's window moves even when its pure ACKs
    // toward us keep getting lost.
    header.ack = recv_next_;
    header.ack_epoch = recv_epoch_;
    if (config_.timestamps) {
      header.has_ts = true;
      header.tsval = kernel_.now();
    }
    const std::uint64_t wire = it->second.payload.size() +
                               kHeaderOverhead +
                               segment_option_bytes(header);
    // The header crosses the wire encoded; the payload is copied so the
    // original stays in `outstanding_` for retransmission.
    tx_.transmit(wire, [peer = peer_, guard = peer_alive_,
                        bytes = encode_segment_header(header),
                        payload = it->second.payload]() mutable {
      if (peer == nullptr || guard.expired()) return;
      peer->on_segment(bytes, std::move(payload));
    });
  }

  void on_timeout() {
    timer_armed_ = false;
    auto it = oldest_unsacked();
    if (it == outstanding_.end()) return;
    Pending& p = it->second;
    if (++p.retries > config_.max_retries) {
      reset_connection();
      return;
    }
    ++stats_.retransmissions;
    p.retransmitted = true;
    p.lost_marked = false;  // the RTO owns recovery of this segment now
    consecutive_timeouts_ = std::min(consecutive_timeouts_ + 1,
                                     kMaxBackoffShift);
    if (backoff_rto() >= kMaxRto) ++stats_.rto_at_cap;
    if (cc_on()) {
      // RFC 5681 §3.1: a timeout is a full loss event — collapse to one
      // segment and leave fast recovery (the retransmit below restarts it).
      ssthresh_ = std::max<std::uint64_t>(flight_ / 2, 2);
      cwnd_ = 1;
      ca_credit_ = 0;
      in_recovery_ = false;
      dup_acks_ = 0;
      sync_cc_stats();
    }
    transmit_data(it->first);
    update_retx_timer(/*restart=*/true);
  }

  // Connection reset (the TCP analogue of RST after repeated RTO): every
  // unacknowledged message on this incarnation — transmitted or still
  // queued behind the window — is handed to the failure callback (never
  // silently dropped) and a fresh epoch starts so post-outage traffic
  // isn't wedged behind the sequence gap. An RST notification tells the
  // peer to discard reorder state buffered for the dead epoch. Callers
  // above (RPC) fail outstanding calls immediately.
  void reset_connection() {
    stats_.failures += outstanding_.size();
    ++stats_.resets;
    std::vector<common::Bytes> failed;
    failed.reserve(outstanding_.size());
    for (auto& [seq, pending] : outstanding_) {
      failed.push_back(std::move(pending.payload));
    }
    outstanding_.clear();
    send_queue_.clear();
    if (timer_armed_) kernel_.cancel(retx_timer_);
    timer_armed_ = false;
    consecutive_timeouts_ = 0;
    ++epoch_;
    next_seq_ = 0;
    highest_ack_ = 0;
    highest_transmitted_ = 0;
    dup_acks_ = 0;
    flight_ = 0;
    in_recovery_ = false;
    ca_credit_ = 0;
    if (cc_on()) {
      cwnd_ = std::max<std::uint64_t>(config_.initial_cwnd, 1);
      ssthresh_ = std::max<std::uint64_t>(config_.initial_ssthresh, 2);
    }
    sync_cc_stats();
    send_rst();
    if (on_send_failed_) {
      // After the state above is clean: the handler may re-send.
      for (auto& payload : failed) on_send_failed_(std::move(payload));
    }
  }

  void send_rst() {
    SegmentHeader header;
    header.epoch = epoch_;
    header.is_rst = true;
    tx_.transmit(kHeaderOverhead,
                 [peer = peer_, guard = peer_alive_,
                  bytes = encode_segment_header(header)]() {
                   if (peer == nullptr || guard.expired()) return;
                   peer->on_segment(bytes, {});
                 });
  }

  void send_ack(std::uint64_t trigger_seq) {
    SegmentHeader header;
    header.epoch = recv_epoch_;
    header.is_ack = true;
    header.ack = recv_next_;
    header.ack_epoch = recv_epoch_;
    if (have_ts_echo_) {
      header.has_ts = true;
      header.tsval = kernel_.now();
      header.tsecr = ts_recent_;
    }
    if (config_.sack) build_sack_blocks(trigger_seq, header.sack);
    tx_.transmit(kHeaderOverhead + segment_option_bytes(header),
                 [peer = peer_, guard = peer_alive_,
                  bytes = encode_segment_header(header)]() {
                   if (peer == nullptr || guard.expired()) return;
                   peer->on_segment(bytes, {});
                 });
  }

  // Coalesce the reorder buffer into [start, end) ranges. Per RFC 2018 the
  // FIRST block must contain the segment that triggered this ACK — the
  // sender learns about the newest arrival even when the buffer holds more
  // ranges than kMaxSackBlocks can report; remaining slots are filled
  // lowest-first so the oldest holes' neighbors stay visible too.
  void build_sack_blocks(std::uint64_t trigger_seq,
                         std::vector<SackBlock>& out) const {
    std::vector<SackBlock> ranges;
    for (auto it = reorder_.begin(); it != reorder_.end();) {
      SackBlock block{it->first, it->first + 1};
      for (++it; it != reorder_.end() && it->first == block.end; ++it) {
        ++block.end;
      }
      ranges.push_back(block);
    }
    std::size_t first = ranges.size();
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      if (ranges[i].start <= trigger_seq && trigger_seq < ranges[i].end) {
        first = i;
        break;
      }
    }
    const std::size_t cap = static_cast<std::size_t>(kMaxSackBlocks);
    if (first < ranges.size()) out.push_back(ranges[first]);
    for (std::size_t i = 0; i < ranges.size() && out.size() < cap; ++i) {
      if (i != first) out.push_back(ranges[i]);
    }
    // The wire format requires ascending, disjoint blocks; the trigger
    // block jumped the queue, so restore order.
    std::sort(out.begin(), out.end(),
              [](const SackBlock& a, const SackBlock& b) {
                return a.start < b.start;
              });
  }

  void enter_recovery() {
    if (!cc_on() || in_recovery_) return;
    ssthresh_ = std::max<std::uint64_t>(flight_ / 2, 2);
    cwnd_ = std::min<std::uint64_t>(
        ssthresh_ + static_cast<std::uint64_t>(kDupackThreshold),
        config_.max_cwnd);
    ca_credit_ = 0;
    in_recovery_ = true;
    // Recovery ends once the ACK passes the highest seq actually on the
    // wire when the loss was detected — NOT next_seq_, which also counts
    // messages still queued behind the window (using it would pin the
    // channel in recovery for the rest of the transfer and turn every
    // partial ACK into a spurious retransmission of healthy data).
    recover_ = highest_transmitted_;
    sync_cc_stats();
  }

  // Retransmit `seq` because loss was detected by feedback (dup ACKs, SACK,
  // or a partial ACK in recovery) rather than by the timer: no RTO backoff.
  // Returns false if the segment is gone, sacked, or already repaired.
  bool loss_retransmit(std::uint64_t seq) {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return false;
    Pending& p = it->second;
    if (!p.transmitted || p.sacked || p.lost_marked) return false;
    p.retransmitted = true;
    p.lost_marked = true;
    ++stats_.retransmissions;
    transmit_data(seq);
    return true;
  }

  // A hole with >= kDupackThreshold sacked segments above it is lost (the
  // RFC 6675 DupThresh rule): retransmit every such hole immediately,
  // without waiting for cumulative progress to expose them one at a time.
  void sack_loss_scan() {
    if (!config_.sack) return;
    std::vector<std::uint64_t> lost;
    int sacked_above = 0;
    for (auto it = outstanding_.rbegin(); it != outstanding_.rend(); ++it) {
      if (it->second.sacked) {
        ++sacked_above;
        continue;
      }
      if (!it->second.transmitted || it->second.lost_marked) continue;
      if (sacked_above >= kDupackThreshold) lost.push_back(it->first);
    }
    // Ascending order: repair the oldest hole first.
    for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
      enter_recovery();
      if (loss_retransmit(*it)) ++stats_.sack_retransmits;
    }
  }

  void on_ack(const SegmentHeader& seg) {
    process_ack_info(seg, /*pure=*/true);
  }

  // Consume the cumulative-ACK information a segment carries. Pure ACKs
  // (`pure` = true) drive the full machinery; piggybacked ack fields on DATA
  // segments (`pure` = false) advance the window, grow cwnd, and restart the
  // silence timer, but are excluded from dup-ACK counting (a DATA arrival is
  // not a "same cumulative point again" loss signal) and from TSopt RTT
  // sampling (a DATA segment's tsval is the peer's send time, not an echo of
  // ours). Piggybacking matters under asymmetric loss: when a run of pure
  // ACKs dies on the wire, the peer's own DATA flowing the other way still
  // confirms delivery — without it the stuck segment's RTO backs off toward
  // kMaxRto while perfectly healthy traffic crosses the same link.
  void process_ack_info(const SegmentHeader& seg, bool pure) {
    // The ack refers to an incarnation of *our* seq stream; ignore it unless
    // it is the current one (seqs restart at 0 on reset, so a stale ack
    // could otherwise confirm new-epoch segments it never saw).
    if (seg.ack_epoch != epoch_) return;
    // Cumulative ACK: everything below seg.ack is confirmed delivered.
    bool advanced = false;
    std::uint64_t newly_acked = 0;
    while (!outstanding_.empty() && outstanding_.begin()->first < seg.ack) {
      auto it = outstanding_.begin();
      if (it->second.transmitted && !it->second.sacked) --flight_;
      if (!config_.timestamps && !it->second.retransmitted) {
        sample_rtt(kernel_.now() - it->second.sent_at);
      }
      ++stats_.messages_acked;
      ++newly_acked;
      outstanding_.erase(it);
      advanced = true;
    }
    // TSopt: one unambiguous sample per advancing ACK, retransmitted or
    // not — this is what reconverges the estimator right after an outage.
    if (pure && config_.timestamps && seg.has_ts && advanced &&
        kernel_.now() >= seg.tsecr) {
      sample_rtt(kernel_.now() - seg.tsecr);
    }
    // SACK: out-of-order data held at the receiver leaves the flight and
    // is never retransmitted; it stays outstanding until cumulatively
    // acked (a reset before that still fails it — see channel.h).
    bool sack_progress = false;
    if (config_.sack) {
      for (const SackBlock& block : seg.sack) {
        for (auto it = outstanding_.lower_bound(block.start);
             it != outstanding_.end() && it->first < block.end; ++it) {
          Pending& p = it->second;
          if (!p.transmitted || p.sacked) continue;
          p.sacked = true;
          sack_progress = true;
          --flight_;
        }
      }
    }

    if (advanced) consecutive_timeouts_ = 0;

    if (seg.ack > highest_ack_ || advanced) {
      highest_ack_ = std::max(highest_ack_, seg.ack);
      dup_acks_ = 0;
      if (cc_on()) {
        if (in_recovery_) {
          if (seg.ack > recover_) {
            // Full ACK: recovery is over, deflate to ssthresh.
            in_recovery_ = false;
            cwnd_ = std::max<std::uint64_t>(ssthresh_, 1);
          } else if (!config_.sack) {
            // Partial ACK (NewReno): the next hole starts at seg.ack;
            // repair it immediately without leaving recovery. With SACK
            // on this blind retransmit is skipped — the scoreboard scan
            // below retransmits only holes the blocks prove lost, so a
            // segment that is merely still in flight isn't duplicated.
            if (loss_retransmit(seg.ack)) ++stats_.fast_retransmits;
          }
        } else if (cwnd_ < ssthresh_) {
          cwnd_ = std::min(cwnd_ + newly_acked, config_.max_cwnd);  // slow start
        } else {
          // Congestion avoidance: +1 segment per cwnd's worth of ACKs.
          ca_credit_ += newly_acked;
          while (ca_credit_ >= cwnd_ && cwnd_ < config_.max_cwnd) {
            ca_credit_ -= cwnd_;
            ++cwnd_;
          }
        }
      }
    } else if (pure && seg.ack == highest_ack_) {
      // Duplicate cumulative ACK for data still outstanding: the peer is
      // receiving *later* segments while this one is missing.
      auto hole = outstanding_.find(seg.ack);
      if (hole != outstanding_.end() && hole->second.transmitted &&
          !hole->second.sacked) {
        ++dup_acks_;
        if (cc_on() && in_recovery_) {
          // Inflation: each further dup ACK means a segment left the wire.
          cwnd_ = std::min(cwnd_ + 1, config_.max_cwnd);
        }
        if (dup_acks_ == kDupackThreshold) {
          enter_recovery();
          if (loss_retransmit(seg.ack)) ++stats_.fast_retransmits;
        }
      }
    }
    // else: reordered old ACK — ignore.

    sack_loss_scan();
    sync_cc_stats();
    // Progress of any kind (cumulative or SACK) restarts the silence
    // timer; a pure duplicate leaves the armed deadline in place.
    update_retx_timer(/*restart=*/advanced || sack_progress);
    try_send();
  }

  void on_segment(const common::Bytes& header_bytes, common::Bytes payload) {
    MAGMA_HOST_SCOPE("net.channel", "on_segment");
    // The header crossed the simulated wire encoded; anything that does
    // not decode is line noise and is dropped (fail-soft, like a bad TCP
    // checksum).
    common::Result<SegmentHeader> decoded =
        decode_segment_header(header_bytes);
    if (!decoded.ok()) return;
    const SegmentHeader& seg = decoded.value();
    if (seg.is_ack) {
      on_ack(seg);
      return;
    }
    if (seg.is_rst) {
      // Peer reset: drop everything buffered for the dead epoch so stale
      // payloads can't linger (they would otherwise sit in reorder_ until
      // the next DATA arrival, potentially forever on a quiet channel).
      if (seg.epoch > recv_epoch_) {
        recv_epoch_ = seg.epoch;
        recv_next_ = 0;
        reorder_.clear();
      }
      return;
    }
    // DATA path.
    if (seg.epoch < recv_epoch_) return;  // stale incarnation
    if (seg.epoch > recv_epoch_) {
      // Peer reset the connection: adopt the new incarnation.
      recv_epoch_ = seg.epoch;
      recv_next_ = 0;
      reorder_.clear();
    }
    // The ack fields piggybacked on every DATA segment confirm our own
    // outbound data — process them before the payload so the window and
    // the retransmission timer see the progress even if every pure ACK
    // toward us is being lost.
    process_ack_info(seg, /*pure=*/false);
    if (seg.has_ts) {
      ts_recent_ = seg.tsval;
      have_ts_echo_ = true;
    }
    if (seg.seq < recv_next_ || reorder_.find(seg.seq) != reorder_.end()) {
      // Duplicate of data we already hold: the sender's RTO fired although
      // the original arrived (or its ACK is still in flight).
      ++stats_.spurious_retransmits;
    }
    if (seg.seq >= recv_next_) {
      reorder_.emplace(seg.seq, std::move(payload));
      // Drain in-order prefix.
      while (!reorder_.empty() && reorder_.begin()->first == recv_next_) {
        auto node = reorder_.extract(reorder_.begin());
        ++recv_next_;
        ++stats_.messages_delivered;
        if (receiver_) receiver_(std::move(node.mapped()));
      }
    }
    send_ack(seg.seq);
  }

  sim::Kernel& kernel_;
  sim::Link& tx_;
  ReliableConfig config_;
  ReliableEndpoint* peer_ = nullptr;
  // Liveness token (see DatagramEndpoint): segments in flight toward an
  // endpoint destroyed before arrival are dropped instead of dereferencing
  // a dangling pointer.
  std::shared_ptr<const void> alive_ = std::make_shared<int>(0);
  std::weak_ptr<const void> peer_alive_;
  std::function<void(common::Bytes)> receiver_;
  std::function<void(common::Bytes)> on_send_failed_;

  std::uint64_t epoch_ = 0;
  std::uint64_t next_seq_ = 0;
  PendingMap outstanding_;
  std::deque<std::uint64_t> send_queue_;  // seqs awaiting first transmission
  std::uint64_t highest_ack_ = 0;
  std::uint64_t highest_transmitted_ = 0;  // highest seq ever on the wire
  int dup_acks_ = 0;

  // The connection's single retransmission timer (RFC 6298 §5).
  sim::EventId retx_timer_;
  bool timer_armed_ = false;
  int consecutive_timeouts_ = 0;  // backoff exponent, reset on progress

  // Congestion state (segments). cwnd_/ssthresh_ are live only when
  // config_.congestion_control; flight_ is tracked regardless.
  std::uint64_t cwnd_ = 0;
  std::uint64_t ssthresh_ = 0;
  std::uint64_t flight_ = 0;
  std::uint64_t ca_credit_ = 0;  // fractional cwnd growth accumulator
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;  // highest seq on the wire at loss detection

  std::uint64_t recv_epoch_ = 0;
  std::uint64_t recv_next_ = 0;
  PooledMap<std::uint64_t, common::Bytes> reorder_;
  sim::TimePoint ts_recent_ = 0;  // tsval of the last DATA segment received
  bool have_ts_echo_ = false;

  ReliableStats stats_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Segment header wire codec
// ---------------------------------------------------------------------------

common::Bytes encode_segment_header(const SegmentHeader& header) {
  rpc::Writer w;
  // Exact encoded size: one reservation instead of log2(size) regrows.
  w.reserve(1 + 4 * 8 + (header.has_ts ? 16 : 0) + 1 + 16 * header.sack.size());
  std::uint8_t flags = 0;
  if (header.is_ack) flags |= kFlagAck;
  if (header.is_rst) flags |= kFlagRst;
  if (header.has_ts) flags |= kFlagTs;
  w.u8(flags);
  w.u64(header.epoch);
  w.u64(header.seq);
  w.u64(header.ack);
  w.u64(header.ack_epoch);
  if (header.has_ts) {
    w.i64(header.tsval);
    w.i64(header.tsecr);
  }
  w.u8(static_cast<std::uint8_t>(header.sack.size()));
  for (const SackBlock& block : header.sack) {
    w.u64(block.start);
    w.u64(block.end);
  }
  return std::move(w).take();
}

common::Result<SegmentHeader> decode_segment_header(common::BytesView data) {
  rpc::Reader r(data);
  SegmentHeader header;
  const std::uint8_t flags = r.u8();
  if ((flags & kFlagReservedMask) != 0) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "reserved segment flags"};
  }
  header.is_ack = (flags & kFlagAck) != 0;
  header.is_rst = (flags & kFlagRst) != 0;
  header.has_ts = (flags & kFlagTs) != 0;
  header.epoch = r.u64();
  header.seq = r.u64();
  header.ack = r.u64();
  header.ack_epoch = r.u64();
  if (header.has_ts) {
    header.tsval = r.i64();
    header.tsecr = r.i64();
  }
  const std::uint8_t blocks = r.u8();
  if (blocks > kDecodeSackLimit) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "oversized SACK list"};
  }
  std::uint64_t prev_end = 0;
  for (std::uint8_t i = 0; i < blocks && r.ok(); ++i) {
    SackBlock block;
    block.start = r.u64();
    block.end = r.u64();
    // Blocks must be non-empty, ascending, and disjoint.
    if (block.start >= block.end || (i > 0 && block.start < prev_end)) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "malformed SACK block"};
    }
    prev_end = block.end;
    header.sack.push_back(block);
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt segment header"};
  }
  return header;
}

std::uint64_t segment_option_bytes(const SegmentHeader& header) {
  std::uint64_t bytes = 0;
  if (header.has_ts) bytes += 10;  // kind + len + 2 x 32-bit timestamps
  if (!header.sack.empty()) bytes += 2 + 8 * header.sack.size();
  return bytes;
}

ChannelPair make_datagram_pair(sim::Kernel& kernel, DuplexLink& path) {
  (void)kernel;
  auto a = std::make_unique<DatagramEndpoint>(path.forward);
  auto b = std::make_unique<DatagramEndpoint>(path.reverse);
  a->set_peer(b.get());
  b->set_peer(a.get());
  return ChannelPair{std::move(a), std::move(b)};
}

ReliablePair make_reliable_pair(sim::Kernel& kernel, DuplexLink& path,
                                ReliableConfig config) {
  auto a = std::make_unique<ReliableEndpoint>(kernel, path.forward, config);
  auto b = std::make_unique<ReliableEndpoint>(kernel, path.reverse, config);
  a->set_peer(b.get());
  b->set_peer(a.get());
  return ReliablePair{std::move(a), std::move(b)};
}

}  // namespace magma::net
