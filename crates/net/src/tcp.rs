//! A Reno TCP sender/receiver pair.
//!
//! The paper's end-to-end results hinge on TCP dynamics: Enhanced
//! 802.11r's throughput "drops to zero at about 2.5 s … TCP timeout occurs
//! at around 5.86 s, causing the TCP connection to break" (Fig. 14), while
//! WGTT's rapid switching keeps the pipe full. To reproduce that shape we
//! model classic Reno with the pieces that matter at these timescales:
//!
//! * slow start and congestion avoidance,
//! * fast retransmit / fast recovery on three duplicate ACKs,
//! * RFC 6298 RTO estimation (SRTT/RTTVAR, exponential backoff, 200 ms
//!   floor as in Linux) with Karn's rule (no RTT samples from
//!   retransmitted segments),
//! * an out-of-order reassembly receiver generating cumulative ACKs and
//!   duplicate ACKs.
//!
//! Stream positions are `u64` byte offsets (no 32-bit wraparound to get
//! wrong at simulated data volumes); the 32-bit wire sequence number is a
//! projection the packet layer makes.

use std::collections::BTreeMap;
use wgtt_sim::time::{SimDuration, SimTime};

/// Maximum segment size, bytes (1500 MTU − 40 headers − options ≈ 1448).
pub const MSS: u64 = 1448;

/// Tunables of the sender.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size, bytes.
    pub mss: u64,
    /// Initial congestion window, bytes (RFC 6928: 10 segments).
    pub initial_cwnd: u64,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_threshold: u32,
    /// Minimum retransmission timeout (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Maximum retransmission timeout.
    pub max_rto: SimDuration,
    /// Receiver-advertised window cap, bytes.
    pub receive_window: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: MSS,
            initial_cwnd: 10 * MSS,
            dupack_threshold: 3,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            receive_window: 1_000_000,
        }
    }
}

/// A segment the sender wants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Stream offset of the first payload byte.
    pub seq: u64,
    /// Payload length, bytes.
    pub len: u64,
    /// True if this is a retransmission.
    pub retransmit: bool,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    len: u64,
    sent_at: SimTime,
    retransmitted: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CongState {
    SlowStart,
    Avoidance,
    FastRecovery,
}

/// The sending endpoint of one TCP connection.
#[derive(Debug)]
pub struct TcpSender {
    cfg: TcpConfig,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to send fresh (may rewind after an RTO).
    snd_nxt: u64,
    /// Highest byte ever sent — the bound for acceptable ACK numbers,
    /// which must survive RTO rewinds of `snd_nxt`.
    snd_max: u64,
    /// Application bytes available to send; `u64::MAX` models a bulk
    /// (iperf-style) source that always has data.
    app_limit: u64,
    cwnd: u64,
    ssthresh: u64,
    state: CongState,
    /// NewReno (RFC 6582) recovery point: fast recovery ends only when
    /// this offset is cumulatively acknowledged; partial ACKs retransmit
    /// the next hole immediately instead of exiting.
    recover: u64,
    dupacks: u32,
    in_flight: BTreeMap<u64, InFlight>,
    /// Queued retransmissions (fast retransmit or RTO).
    retx_queue: Vec<Segment>,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rto_backoff: u32,
    rto_deadline: Option<SimTime>,
    /// Counters for diagnostics.
    pub stats: TcpStats,
}

/// Sender-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStats {
    /// Fresh segments emitted.
    pub segments_sent: u64,
    /// Retransmissions emitted.
    pub retransmits: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// Fast retransmit events.
    pub fast_retransmits: u64,
}

impl TcpSender {
    /// A bulk sender with unlimited application data.
    pub fn bulk(cfg: TcpConfig) -> Self {
        Self::with_limit(cfg, u64::MAX)
    }

    /// A sender with exactly `bytes` of application data (web objects,
    /// video segments).
    pub fn with_limit(cfg: TcpConfig, bytes: u64) -> Self {
        TcpSender {
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            app_limit: bytes,
            cwnd: cfg.initial_cwnd,
            ssthresh: u64::MAX / 2,
            state: CongState::SlowStart,
            recover: 0,
            dupacks: 0,
            in_flight: BTreeMap::new(),
            retx_queue: Vec::new(),
            srtt: None,
            rttvar: 0.0,
            rto: SimDuration::from_secs(1), // RFC 6298 initial RTO
            rto_backoff: 0,
            rto_deadline: None,
            stats: TcpStats::default(),
        }
    }

    /// Current congestion window, bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Bytes in flight.
    pub fn flight_size(&self) -> u64 {
        self.in_flight.values().map(|s| s.len).sum()
    }

    /// Oldest unacknowledged stream offset.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Whether the whole (finite) application stream is delivered.
    pub fn is_complete(&self) -> bool {
        self.app_limit != u64::MAX && self.snd_una >= self.app_limit
    }

    /// Current smoothed RTT estimate, if any.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }

    /// Current RTO value.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// When the retransmission timer fires (None when nothing in flight).
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    fn effective_window(&self) -> u64 {
        self.cwnd.min(self.cfg.receive_window)
    }

    /// Emit every segment currently allowed by the window: queued
    /// retransmissions first, then fresh data. Call after `on_ack` or
    /// `on_rto`.
    pub fn poll_send(&mut self, now: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        // Retransmissions ignore cwnd gating beyond being sent one window
        // at a time; they re-enter in_flight with Karn's mark.
        for seg in std::mem::take(&mut self.retx_queue) {
            self.in_flight.insert(
                seg.seq,
                InFlight {
                    len: seg.len,
                    sent_at: now,
                    retransmitted: true,
                },
            );
            self.stats.retransmits += 1;
            out.push(seg);
        }
        // Fresh data under the window.
        while self.snd_nxt < self.app_limit {
            let window_room = self
                .effective_window()
                .saturating_sub(self.snd_nxt - self.snd_una);
            if window_room < self.cfg.mss.min(self.app_limit - self.snd_nxt) {
                break;
            }
            let len = self.cfg.mss.min(self.app_limit - self.snd_nxt);
            let seg = Segment {
                seq: self.snd_nxt,
                len,
                retransmit: false,
            };
            self.in_flight.insert(
                seg.seq,
                InFlight {
                    len,
                    sent_at: now,
                    retransmitted: false,
                },
            );
            self.snd_nxt += len;
            self.snd_max = self.snd_max.max(self.snd_nxt);
            self.stats.segments_sent += 1;
            out.push(seg);
        }
        if !out.is_empty() && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
        out
    }

    /// Process a cumulative acknowledgement for stream offset `ack_no`
    /// (the next byte the receiver expects).
    pub fn on_ack(&mut self, ack_no: u64, now: SimTime) {
        if ack_no > self.snd_max {
            return; // corrupt/reordered beyond sent data: ignore
        }
        // An ACK above a rewound snd_nxt means the receiver already holds
        // those bytes (stashed out-of-order before the RTO): resume fresh
        // sending from there.
        if ack_no > self.snd_nxt {
            self.snd_nxt = ack_no;
        }
        if ack_no <= self.snd_una {
            // Duplicate ACK.
            if self.state == CongState::FastRecovery {
                // Window inflation per Reno.
                self.cwnd += self.cfg.mss;
            } else if self.flight_size() > 0 {
                self.dupacks += 1;
                if self.dupacks == self.cfg.dupack_threshold {
                    self.enter_fast_retransmit();
                }
            }
            return;
        }

        // New data acknowledged.
        let newly_acked = ack_no - self.snd_una;
        // RTT sample from the newest fully-acked, never-retransmitted
        // segment (Karn's algorithm).
        let mut rtt_sample: Option<f64> = None;
        let acked_keys: Vec<u64> = self
            .in_flight
            .range(..ack_no)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in acked_keys {
            let Some(seg) = self.in_flight.get(&seq) else {
                continue;
            };
            if seq + seg.len <= ack_no {
                if !seg.retransmitted {
                    rtt_sample = Some(now.saturating_since(seg.sent_at).as_secs_f64());
                }
                self.in_flight.remove(&seq);
            }
        }
        if let Some(r) = rtt_sample {
            self.update_rtt(r);
        }
        // Any new ACK clears exponential backoff (as Linux does); without
        // this a lossy path can pin the RTO at max_rto even while making
        // progress, because Karn's rule never lets retransmitted segments
        // refresh the estimator.
        if self.rto_backoff > 0 {
            self.rto_backoff = 0;
            self.rto = match self.srtt {
                Some(srtt) => SimDuration::from_secs_f64(srtt + 4.0 * self.rttvar)
                    .max(self.cfg.min_rto)
                    .min(self.cfg.max_rto),
                None => SimDuration::from_secs(1),
            };
        }
        self.snd_una = ack_no;
        self.dupacks = 0;
        // Drop queued retransmissions that are now acknowledged.
        self.retx_queue.retain(|s| s.seq + s.len > ack_no);

        match self.state {
            CongState::FastRecovery => {
                if ack_no >= self.recover {
                    // Full acknowledgement: recovery complete (RFC 6582).
                    self.cwnd = self.ssthresh;
                    self.state = CongState::Avoidance;
                } else {
                    // Partial ACK: the next hole is also lost — retransmit
                    // it immediately and stay in recovery. This is what
                    // lets the sender repair an AP-switch burst loss in
                    // roughly one RTT instead of one RTT per segment.
                    if let Some((&seq, seg)) = self.in_flight.iter().next() {
                        let len = seg.len;
                        self.in_flight.remove(&seq);
                        if !self.retx_queue.iter().any(|r| r.seq == seq) {
                            self.retx_queue.push(Segment {
                                seq,
                                len,
                                retransmit: true,
                            });
                        }
                    }
                    // Deflate by the newly acked amount, plus one MSS for
                    // the retransmission just queued.
                    self.cwnd =
                        self.cwnd.saturating_sub(newly_acked).max(self.cfg.mss) + self.cfg.mss;
                }
            }
            CongState::SlowStart => {
                self.cwnd += newly_acked.min(self.cfg.mss);
                if self.cwnd >= self.ssthresh {
                    self.state = CongState::Avoidance;
                }
            }
            CongState::Avoidance => {
                // cwnd += mss²/cwnd per ACK ≈ one mss per RTT.
                let add = (self.cfg.mss * self.cfg.mss) / self.cwnd.max(1);
                self.cwnd += add.max(1);
            }
        }

        // Restart the retransmission timer.
        self.rto_deadline = if self.in_flight.is_empty() {
            None
        } else {
            Some(now + self.rto)
        };
    }

    fn enter_fast_retransmit(&mut self) {
        self.stats.fast_retransmits += 1;
        let flight = self.flight_size();
        self.ssthresh = (flight / 2).max(2 * self.cfg.mss);
        self.cwnd = self.ssthresh + 3 * self.cfg.mss;
        self.recover = self.snd_max;
        self.state = CongState::FastRecovery;
        // Retransmit the first unacknowledged segment.
        if let Some((&seq, seg)) = self.in_flight.iter().next() {
            let len = seg.len;
            self.in_flight.remove(&seq);
            self.retx_queue.push(Segment {
                seq,
                len,
                retransmit: true,
            });
        }
    }

    /// The retransmission timer fired: collapse the window and queue the
    /// first unacknowledged segment, doubling the RTO.
    pub fn on_rto(&mut self, now: SimTime) {
        self.stats.timeouts += 1;
        self.ssthresh = (self.flight_size() / 2).max(2 * self.cfg.mss);
        self.cwnd = self.cfg.mss;
        self.state = CongState::SlowStart;
        self.dupacks = 0;
        self.rto_backoff = (self.rto_backoff + 1).min(10);
        let backed = SimDuration::from_nanos((self.rto.as_nanos()).saturating_mul(2));
        self.rto = backed.min(self.cfg.max_rto);
        // Everything in flight is presumed lost; retransmit from snd_una.
        if let Some((&seq, seg)) = self.in_flight.iter().next() {
            let len = seg.len;
            self.in_flight.clear();
            self.retx_queue.push(Segment {
                seq,
                len,
                retransmit: true,
            });
            // Later bytes will be re-sent as fresh data.
            self.snd_nxt = seq + len;
        }
        self.rto_deadline = Some(now + self.rto);
    }

    fn update_rtt(&mut self, sample: f64) {
        // RFC 6298.
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample);
            }
        }
        let rto = self.srtt.expect("just set") + 4.0 * self.rttvar;
        self.rto = SimDuration::from_secs_f64(rto)
            .max(self.cfg.min_rto)
            .min(self.cfg.max_rto);
    }
}

/// The receiving endpoint: in-order delivery tracking plus out-of-order
/// reassembly, producing cumulative ACK numbers.
#[derive(Debug, Default)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    /// Out-of-order segments: seq → end (exclusive).
    ooo: BTreeMap<u64, u64>,
    /// Total in-order bytes delivered to the application.
    pub delivered: u64,
}

impl TcpReceiver {
    /// A fresh receiver expecting offset 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next expected byte (the cumulative ACK number to send).
    pub fn ack_no(&self) -> u64 {
        self.rcv_nxt
    }

    /// Process an arriving segment. Returns the new cumulative ACK number
    /// (equal to the old one for out-of-order arrivals, which the sender
    /// counts as duplicate ACKs). Newly contiguous bytes are added to
    /// `delivered`.
    pub fn on_segment(&mut self, seq: u64, len: u64) -> u64 {
        let end = seq + len;
        if end <= self.rcv_nxt {
            return self.rcv_nxt; // pure duplicate
        }
        let start = seq.max(self.rcv_nxt);
        if start > self.rcv_nxt {
            // Out of order: stash (merging handled lazily below).
            let e = self.ooo.entry(start).or_insert(end);
            if *e < end {
                *e = end;
            }
            return self.rcv_nxt;
        }
        // In-order (possibly partially duplicate).
        self.advance_to(end);
        // Pull any now-contiguous stashed segments.
        while let Some((&s, &e)) = self.ooo.range(..=self.rcv_nxt).next_back() {
            self.ooo.remove(&s);
            if e > self.rcv_nxt {
                self.advance_to(e);
            }
        }
        self.rcv_nxt
    }

    fn advance_to(&mut self, end: u64) {
        debug_assert!(end >= self.rcv_nxt);
        self.delivered += end - self.rcv_nxt;
        self.rcv_nxt = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn ack_all(s: &mut TcpSender, segs: &[Segment], rx: &mut TcpReceiver, now: SimTime) {
        for seg in segs {
            let ack = rx.on_segment(seg.seq, seg.len);
            s.on_ack(ack, now);
        }
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let mut s = TcpSender::bulk(TcpConfig::default());
        let segs = s.poll_send(ms(0));
        assert_eq!(segs.len(), 10);
        assert!(segs.iter().all(|g| g.len == MSS));
        assert_eq!(s.flight_size(), 10 * MSS);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        // After acking the first window, the next window should be about
        // twice as large.
        let mut s = TcpSender::bulk(TcpConfig::default());
        let mut rx = TcpReceiver::new();
        let first = s.poll_send(ms(0));
        let w0 = first.len();
        ack_all(&mut s, &first, &mut rx, ms(50));
        let second = s.poll_send(ms(50));
        assert!(
            second.len() >= 2 * w0 - 2,
            "slow start: {} then {}",
            w0,
            second.len()
        );
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let cfg = TcpConfig {
            initial_cwnd: 4 * MSS,
            ..TcpConfig::default()
        };
        let mut s = TcpSender::bulk(cfg);
        s.ssthresh = 4 * MSS; // start directly in CA territory
        let mut rx = TcpReceiver::new();
        let mut t = ms(0);
        let mut last_cwnd = s.cwnd();
        for _ in 0..5 {
            let segs = s.poll_send(t);
            t += SimDuration::from_millis(50);
            ack_all(&mut s, &segs, &mut rx, t);
            let grown = s.cwnd() - last_cwnd;
            assert!(grown <= 2 * MSS, "CA must grow ≈1 MSS/RTT, grew {grown}");
            last_cwnd = s.cwnd();
        }
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = TcpSender::bulk(TcpConfig::default());
        let segs = s.poll_send(ms(0));
        let mut rx = TcpReceiver::new();
        // First segment lost; deliver the rest → dupacks.
        for seg in &segs[1..] {
            let ack = rx.on_segment(seg.seq, seg.len);
            assert_eq!(ack, 0, "OOO must not advance the ACK");
            s.on_ack(ack, ms(10));
        }
        assert_eq!(s.stats.fast_retransmits, 1);
        let retx = s.poll_send(ms(11));
        assert!(retx.iter().any(|g| g.retransmit && g.seq == 0));
        // Receiver fills the hole → ACK jumps over everything.
        let ack = rx.on_segment(0, MSS);
        assert_eq!(ack, 10 * MSS);
    }

    #[test]
    fn fast_recovery_halves_window() {
        let mut s = TcpSender::bulk(TcpConfig::default());
        let segs = s.poll_send(ms(0));
        let flight = s.flight_size();
        let mut rx = TcpReceiver::new();
        for seg in &segs[1..] {
            let ack = rx.on_segment(seg.seq, seg.len);
            s.on_ack(ack, ms(10));
        }
        // Recovery exit on the hole-filling new ACK.
        let hole_ack = rx.on_segment(0, MSS);
        s.on_ack(hole_ack, ms(20));
        assert!(
            s.cwnd() <= flight / 2 + MSS,
            "cwnd {} after recovery vs flight {flight}",
            s.cwnd()
        );
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut s = TcpSender::bulk(TcpConfig::default());
        let _ = s.poll_send(ms(0));
        let rto0 = s.rto();
        let deadline = s.rto_deadline().expect("timer armed");
        s.on_rto(deadline);
        assert_eq!(s.cwnd(), MSS);
        assert_eq!(s.rto(), SimDuration::from_nanos(rto0.as_nanos() * 2));
        let retx = s.poll_send(deadline);
        assert_eq!(retx.len(), 1);
        assert!(retx[0].retransmit);
        assert_eq!(retx[0].seq, 0);
        // Second timeout doubles again.
        s.on_rto(s.rto_deadline().unwrap());
        assert_eq!(s.rto(), SimDuration::from_nanos(rto0.as_nanos() * 4));
    }

    #[test]
    fn rtt_estimation_converges() {
        let mut s = TcpSender::bulk(TcpConfig::default());
        let mut rx = TcpReceiver::new();
        let mut t = ms(0);
        for _ in 0..30 {
            let segs = s.poll_send(t);
            t += SimDuration::from_millis(40); // constant 40 ms RTT
            ack_all(&mut s, &segs, &mut rx, t);
        }
        let srtt = s.srtt().expect("sampled").as_millis_f64();
        assert!((srtt - 40.0).abs() < 8.0, "srtt = {srtt} ms");
        // RTO floors at min_rto for a smooth channel.
        assert_eq!(s.rto(), TcpConfig::default().min_rto);
    }

    #[test]
    fn karn_ignores_retransmitted_samples() {
        let mut s = TcpSender::bulk(TcpConfig::default());
        let _ = s.poll_send(ms(0));
        s.on_rto(s.rto_deadline().unwrap());
        let retx = s.poll_send(ms(1000));
        assert!(retx[0].retransmit);
        // Ack the retransmitted segment much later: no RTT sample taken,
        // so srtt remains unset.
        s.on_ack(MSS, ms(5000));
        assert!(s.srtt().is_none());
    }

    #[test]
    fn finite_stream_completes() {
        let mut s = TcpSender::with_limit(TcpConfig::default(), 3 * MSS + 100);
        let mut rx = TcpReceiver::new();
        let mut t = ms(0);
        while !s.is_complete() {
            let segs = s.poll_send(t);
            t += SimDuration::from_millis(20);
            ack_all(&mut s, &segs, &mut rx, t);
        }
        assert_eq!(rx.delivered, 3 * MSS + 100);
        assert!(s.rto_deadline().is_none(), "timer off when idle");
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut rx = TcpReceiver::new();
        assert_eq!(rx.on_segment(1448, 1448), 0);
        assert_eq!(rx.on_segment(4344, 1448), 0);
        assert_eq!(rx.on_segment(0, 1448), 2896);
        assert_eq!(rx.on_segment(2896, 1448), 5792);
        assert_eq!(rx.delivered, 5792);
    }

    #[test]
    fn receiver_ignores_stale_duplicates() {
        let mut rx = TcpReceiver::new();
        rx.on_segment(0, 1000);
        assert_eq!(rx.on_segment(0, 1000), 1000);
        assert_eq!(rx.delivered, 1000, "duplicate adds nothing");
        // Partial overlap counts only the new part.
        assert_eq!(rx.on_segment(500, 1000), 1500);
        assert_eq!(rx.delivered, 1500);
    }

    #[test]
    fn bulk_transfer_over_lossy_channel_delivers_everything() {
        // End-to-end soak: 3 % loss, all data eventually arrives in order.
        let mut s = TcpSender::bulk(TcpConfig::default());
        let mut rx = TcpReceiver::new();
        let mut rng = wgtt_sim::rng::RngStream::root(42).derive("loss").rng();
        let mut t = ms(0);
        let target = 300 * MSS;
        let mut guard = 0;
        while rx.delivered < target {
            guard += 1;
            assert!(guard < 20_000, "transfer stalled");
            let segs = s.poll_send(t);
            t += SimDuration::from_millis(20);
            let mut acks = Vec::new();
            for seg in segs {
                if rng.chance(0.03) {
                    continue; // lost
                }
                acks.push(rx.on_segment(seg.seq, seg.len));
            }
            for a in acks {
                s.on_ack(a, t);
            }
            if let Some(d) = s.rto_deadline() {
                if d <= t {
                    s.on_rto(t);
                }
            }
        }
        assert!(rx.delivered >= target);
        assert!(
            s.stats.retransmits > 0,
            "losses must have caused retransmits"
        );
    }
}
