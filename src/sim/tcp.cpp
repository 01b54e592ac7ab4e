#include "sim/tcp.h"

#include <algorithm>
#include <cmath>

namespace fastflex::sim {
namespace {
constexpr SimTime kMaxRto = 60 * kSecond;
}

TcpSender::TcpSender(Network* net, Host* host, FlowId flow, Address peer,
                     std::uint16_t src_port, std::uint16_t dst_port, const TcpParams& params)
    : net_(net),
      host_(host),
      flow_(flow),
      peer_(peer),
      src_port_(src_port),
      dst_port_(dst_port),
      params_(params),
      cwnd_(params.init_cwnd),
      next_seq_(params.isn + 1),
      snd_una_(params.isn + 1),
      sack_base_(params.isn),
      rto_(params.min_rto) {
  if (params_.total_bytes > 0) {
    total_segments_ = (params_.total_bytes + params_.mss - 1) / params_.mss;
  }
}

void TcpSender::Start() {
  running_ = true;
  TrySend();
}

void TcpSender::Stop() {
  running_ = false;
  ++rto_epoch_;  // cancel pending timer
}

void TcpSender::TrySend() {
  if (!running_ || completed_) return;
  const double wnd = std::min(cwnd_, params_.max_cwnd);
  const auto window_end = snd_una_ + static_cast<std::uint64_t>(std::max(1.0, wnd));
  while (next_seq_ < window_end) {
    if (total_segments_ > 0 && next_seq_ > params_.isn + total_segments_) break;
    SendSegment(next_seq_, /*is_retx=*/false);
    ++next_seq_;
  }
}

void TcpSender::SendSegment(std::uint64_t seq, bool is_retx) {
  Packet pkt;
  pkt.kind = PacketKind::kData;
  pkt.flow = flow_;
  pkt.src = host_->address();
  pkt.dst = peer_;
  pkt.src_port = src_port_;
  pkt.dst_port = dst_port_;
  pkt.size_bytes = params_.mss + params_.wire_overhead;
  pkt.seq = seq;
  pkt.sent_at = net_->Now();
  const bool was_idle = (snd_una_ == next_seq_) && !is_retx;
  host_->SendPacket(std::move(pkt));
  if (is_retx) {
    ++retransmits_;
    net_->RecordRetransmit(flow_);
    retx_outstanding_ = true;
  }
  if (was_idle || is_retx) ArmRto();
}

void TcpSender::ArmRto() {
  EventQueue& q = net_->events();
  rto_armed_epoch_ = ++rto_epoch_;
  rto_at_ = q.Now() + rto_;
  rto_seq_ = q.ReserveSeq();
  if (timer_pending_) {
    // The pending event comes first (its seq is older): it re-admits
    // itself at the new deadline when it fires.
    if (timer_at_ <= rto_at_) return;
    ++timer_gen_;  // the deadline moved earlier: retire it
  }
  AdmitRtoTimer(q);
}

void TcpSender::AdmitRtoTimer(EventQueue& q) {
  timer_pending_ = true;
  timer_at_ = rto_at_;
  q.ScheduleAtSeq(rto_at_, rto_seq_, [this, gen = timer_gen_] { OnRtoTimer(gen); });
}

void TcpSender::OnRtoTimer(std::uint64_t gen) {
  if (gen != timer_gen_) return;  // superseded by an earlier deadline
  timer_pending_ = false;
  if (rto_armed_epoch_ != rto_epoch_) return;  // cancelled: nothing to re-admit
  // This event's own queue: the one the deadline was reserved on (all of a
  // sender's timers run on its host's queue).
  EventQueue& q = net_->events();
  if (q.CurrentSeq() != rto_seq_) {
    AdmitRtoTimer(q);  // fired before the deadline
    return;
  }
  OnRto(rto_armed_epoch_);
}

void TcpSender::OnRto(std::uint64_t epoch) {
  if (epoch != rto_epoch_ || !running_ || completed_) return;
  if (snd_una_ >= next_seq_) return;  // nothing outstanding
  // Timeout: multiplicative backoff, collapse to one segment, and enter
  // recovery so partial ACKs drive retransmission of the rest of the
  // outstanding window.
  net_->RecordCwndSample(cwnd_);
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  in_recovery_ = true;
  recover_ = next_seq_ - 1;
  retx_frontier_ = snd_una_;
  rto_ = std::min<SimTime>(rto_ * 2, kMaxRto);
  SendSegment(snd_una_, /*is_retx=*/true);
  retx_frontier_ = snd_una_ + 1;
}

void TcpSender::OnLossEvent() {
  net_->RecordCwndSample(cwnd_);
  ssthresh_ = std::max(std::min(cwnd_, params_.max_cwnd) / 2.0, 2.0);
  cwnd_ = ssthresh_;
  in_recovery_ = true;
  recover_ = next_seq_ - 1;
  retx_frontier_ = snd_una_;
}

bool TcpSender::SackReceived(std::uint64_t seq) const {
  if (seq <= sack_base_) return false;  // at or below the cumulative ACK
  const std::uint64_t offset = seq - sack_base_ - 1;
  if (offset >= 64) return false;
  return (sack_bitmap_ >> offset) & 1ULL;
}

void TcpSender::RecoveryRetransmit(int budget) {
  // Sweep the outstanding window once, ACK-clocked, skipping segments the
  // receiver's SACK bitmap already covers.  The budget respects packet
  // conservation (roughly one new transmission per delivery signal);
  // anything more aggressive re-overflows the very queue whose overflow
  // caused the loss burst, losing the retransmissions themselves.
  retx_frontier_ = std::max(retx_frontier_, snd_una_);
  while (budget > 0 && retx_frontier_ <= recover_ && retx_frontier_ < next_seq_) {
    if (!SackReceived(retx_frontier_)) {
      SendSegment(retx_frontier_, /*is_retx=*/true);
      --budget;
    }
    ++retx_frontier_;
  }
}

void TcpSender::OnPacket(const Packet& pkt) {
  if (pkt.kind != PacketKind::kAck || !running_ || completed_) return;
  const std::uint64_t ack = pkt.ack;  // highest in-order segment received
  if (ack >= sack_base_) {
    sack_base_ = ack;
    sack_bitmap_ = pkt.TagOr(tag::kSackBitmap, 0);
  }

  if (ack + 1 > snd_una_) {
    // New data acknowledged.
    snd_una_ = ack + 1;
    dup_acks_ = 0;
    retx_outstanding_ = false;

    // RTT sample from the echoed send timestamp (Karn: the receiver echoes
    // the timestamp of the segment that advanced rcv_next; retransmitted
    // segments are excluded by the retx_outstanding_ guard at send time).
    if (pkt.sent_at > 0) {
      const double rtt = ToSeconds(net_->Now() - pkt.sent_at);
      if (srtt_ == 0.0) {
        srtt_ = rtt;
        rttvar_ = rtt / 2.0;
      } else {
        rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt);
        srtt_ = 0.875 * srtt_ + 0.125 * rtt;
      }
      rto_ = std::max(params_.min_rto, FromSeconds(srtt_ + 4.0 * rttvar_));
    }

    if (in_recovery_ && snd_una_ > recover_) in_recovery_ = false;
    if (in_recovery_) {
      RecoveryRetransmit(/*budget=*/2);  // the advance freed pipe capacity
    } else {
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1.0;  // slow start
      } else {
        cwnd_ += 1.0 / std::max(1.0, cwnd_);  // congestion avoidance
      }
    }

    if (total_segments_ > 0 && snd_una_ > params_.isn + total_segments_) {
      completed_ = true;
      ++rto_epoch_;
      auto& stats = net_->flow_stats(flow_);
      stats.completed = true;
      stats.completed_at = net_->Now();
      if (on_complete_) on_complete_(flow_);
      return;
    }
    if (snd_una_ < next_seq_) ArmRto();
    TrySend();
  } else if (ack + 1 == snd_una_ && snd_una_ < next_seq_) {
    // Duplicate ACK.
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      OnLossEvent();
      RecoveryRetransmit(/*budget=*/2);
    } else if (in_recovery_) {
      RecoveryRetransmit(/*budget=*/1);  // keep the sweep ACK-clocked
    }
  }
}

TcpReceiver::TcpReceiver(Network* net, Host* host, FlowId flow, Address peer,
                         std::uint16_t src_port, std::uint16_t dst_port, std::uint32_t mss,
                         std::uint64_t isn)
    : net_(net),
      host_(host),
      flow_(flow),
      peer_(peer),
      src_port_(src_port),
      dst_port_(dst_port),
      mss_(mss),
      isn_(isn),
      rcv_next_(isn + 1) {}

void TcpReceiver::OnPacket(const Packet& pkt) {
  if (pkt.kind != PacketKind::kData) return;
  std::uint64_t advanced = 0;
  if (pkt.seq == rcv_next_) {
    ++rcv_next_;
    ++advanced;
    while (!out_of_order_.empty() && *out_of_order_.begin() == rcv_next_) {
      out_of_order_.erase(out_of_order_.begin());
      ++rcv_next_;
      ++advanced;
    }
  } else if (pkt.seq > rcv_next_) {
    out_of_order_.insert(pkt.seq);
  }
  if (advanced > 0) net_->RecordGoodput(flow_, advanced * mss_);

  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.flow = flow_;
  ack.src = host_->address();
  ack.dst = peer_;
  ack.src_port = dst_port_;
  ack.dst_port = src_port_;
  ack.size_bytes = 40;
  ack.ack = rcv_next_ - 1;
  // SACK: which of the 64 segments after the cumulative ACK are buffered.
  if (!out_of_order_.empty()) {
    std::uint64_t bitmap = 0;
    for (std::uint64_t s : out_of_order_) {
      const std::uint64_t offset = s - rcv_next_;
      if (offset >= 64) break;
      bitmap |= 1ULL << offset;
    }
    if (bitmap != 0) ack.SetTag(tag::kSackBitmap, bitmap);
  }
  // Echo the timestamp only when this segment advanced the window, so the
  // sender's RTT sample reflects a non-retransmitted delivery.
  ack.sent_at = advanced > 0 ? pkt.sent_at : 0;
  host_->SendPacket(std::move(ack));
}

}  // namespace fastflex::sim
