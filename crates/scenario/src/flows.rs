//! The traffic that rides the network: both ends of every flow.
//!
//! A [`Flow`] owns the source and the sink of one workload — CBR source
//! and UDP sink, TCP sender and receiver, conference source, reassembly
//! and fps sink — whichever side of the air each sits on. `World` only
//! carries its packets: it calls the flow when a tick, a timer, a packet
//! or a feedback instant comes up, routes what the flow put out, in
//! order, and schedules the wake-ups it [`Asks`] for.

use std::ops::Range;

use wgtt_apps::conference::{ConferenceSink, ConferenceSource};
use wgtt_mac::frame::NodeId;
use wgtt_net::packet::{FlowId, Packet, PacketFactory, Transport};
use wgtt_net::tcp::{TcpConfig, TcpReceiver, TcpSender};
use wgtt_net::traffic::CbrUdpSource;
use wgtt_net::wire::Ipv4Addr;
use wgtt_sim::metrics::ThroughputMeter;
use wgtt_sim::time::{SimDuration, SimTime};

use crate::world::{set_at, RunReport};

/// A traffic workload attached to one client.
#[derive(Debug, Clone, Copy)]
pub enum FlowSpec {
    /// Server → client constant-bit-rate UDP.
    DownlinkUdp {
        /// Offered load, Mbit/s.
        rate_mbps: f64,
    },
    /// Client → server constant-bit-rate UDP.
    UplinkUdp {
        /// Offered load, Mbit/s.
        rate_mbps: f64,
    },
    /// Server → client bulk TCP (iperf-style; also progressive video
    /// download).
    DownlinkTcpBulk,
    /// Server → client finite TCP transfer (web objects).
    DownlinkTcpBytes {
        /// Transfer size.
        bytes: u64,
    },
    /// Server → client conferencing video over UDP.
    DownlinkConference {
        /// Adaptive (Hangouts-like) vs fixed (Skype-like) frame sizing.
        adaptive: bool,
    },
    /// Client → server conferencing video over UDP.
    UplinkConference {
        /// Adaptive vs fixed frame sizing.
        adaptive: bool,
    },
}

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
/// UDP payload size used by the CBR sources (iperf3-style).
const UDP_LEN: u16 = 1500;
/// Conference UDP chunk payload size.
const CONF_CHUNK: u32 = 1200;
/// Conference loss-feedback cadence.
const CONF_FEEDBACK: SimDuration = SimDuration::from_secs(1);

/// Conference frame reassembly bookkeeping. Sources number their frames
/// and the flow numbers its chunks from zero, so both tables are indexed
/// directly.
#[derive(Debug, Default)]
struct FrameAssembly {
    /// Per frame id: (chunks needed, chunks received). A frame is pending
    /// while it has received fewer chunks than it needs.
    frames: Vec<(u32, u32)>,
    /// Per chunk sequence number: the frame it belongs to, recorded at
    /// send time.
    seq_to_frame: Vec<u64>,
    /// Frames fully generated in the current feedback window.
    window_sent: u64,
    /// Frames completed in the current feedback window.
    window_done: u64,
}

impl FrameAssembly {
    /// Record a generated frame of `chunks` chunks and hand back the
    /// sequence numbers to send them under, starting at `*next_seq`.
    fn on_frame_sent(&mut self, frame: u64, chunks: u32, next_seq: &mut u32) -> Range<u32> {
        set_at(&mut self.frames, frame as usize, (chunks, 0), (0, 0));
        self.window_sent += 1;
        let first = *next_seq;
        *next_seq += chunks;
        for seq in first..*next_seq {
            set_at(&mut self.seq_to_frame, seq as usize, frame, u64::MAX);
        }
        first..*next_seq
    }

    /// A chunk arrived; returns whether it completed its frame. Chunks
    /// of unknown or already complete frames change nothing.
    fn on_chunk(&mut self, seq: u32) -> bool {
        let Some(e) = self
            .seq_to_frame
            .get(seq as usize)
            .and_then(|&frame| self.frames.get_mut(usize::try_from(frame).ok()?))
        else {
            return false;
        };
        if e.1 >= e.0 {
            return false;
        }
        e.1 += 1;
        let done = e.1 == e.0;
        self.window_done += u64::from(done);
        done
    }
}

#[allow(clippy::large_enum_variant)] // built once, never moved; boxing buys nothing
enum FlowKind {
    Udp {
        src: CbrUdpSource,
        meter: ThroughputMeter,
        /// Arrivals at the sink, copies of one datagram included.
        received: u64,
    },
    DownTcp {
        snd: TcpSender,
        rcv: TcpReceiver,
        meter: ThroughputMeter,
        /// Total application bytes; `u64::MAX`, which no delivery
        /// reaches, for a bulk transfer.
        limit: u64,
        /// When the client held the last of `limit` bytes.
        completed: Option<SimTime>,
    },
    Conf {
        src: ConferenceSource,
        asm: FrameAssembly,
        sink: ConferenceSink,
        next_seq: u32,
    },
}

/// One flow, both ends. Its data travels `from` → `to`, the server and
/// the client in either order; TCP's acknowledgements travel back.
pub(crate) struct Flow {
    pub(crate) id: FlowId,
    pub(crate) client: NodeId,
    from: Ipv4Addr,
    to: Ipv4Addr,
    kind: FlowKind,
}

/// When a flow asks to be called again. The packets it wants carried it
/// has by then pushed, in sending order, onto the `out` it was handed.
#[derive(Default)]
pub(crate) struct Asks {
    /// The source's next [`Flow::on_tick`].
    pub(crate) tick: Option<SimTime>,
    /// Where the retransmission deadline now stands ([`Flow::on_timer`]).
    pub(crate) timer: Option<SimTime>,
    /// The next [`Flow::on_feedback`].
    pub(crate) feedback: Option<SimTime>,
}

/// The stream offset congruent to `wire` mod 2³² that lies nearest
/// `near`, the receiving endpoint's own position: the 32-bit numbers on
/// the wire wrap every 4 GiB, the endpoints' `u64` state does not.
fn widen(wire: u32, near: u64) -> u64 {
    let ahead = wire.wrapping_sub(near as u32) as i32;
    // Below zero only for a number behind a position still under 2³¹:
    // no such offset exists, and the number as it stands is the nearest.
    near.checked_add_signed(i64::from(ahead))
        .unwrap_or(u64::from(wire))
}

impl Flow {
    pub(crate) fn new(id: FlowId, client: NodeId, client_ip: Ipv4Addr, spec: FlowSpec) -> Self {
        use FlowSpec::*;
        let (from, to) = match spec {
            UplinkUdp { .. } | UplinkConference { .. } => (client_ip, SERVER_IP),
            _ => (SERVER_IP, client_ip),
        };
        let tcp = |limit| FlowKind::DownTcp {
            snd: TcpSender::with_limit(TcpConfig::default(), limit),
            rcv: TcpReceiver::new(),
            meter: ThroughputMeter::new(),
            limit,
            completed: None,
        };
        let kind = match spec {
            DownlinkUdp { rate_mbps } | UplinkUdp { rate_mbps } => FlowKind::Udp {
                src: CbrUdpSource::new(id, from, to, rate_mbps, UDP_LEN, SimTime::ZERO),
                meter: ThroughputMeter::new(),
                received: 0,
            },
            // The sender's own sentinel for unlimited application data.
            DownlinkTcpBulk => tcp(u64::MAX),
            DownlinkTcpBytes { bytes } => tcp(bytes),
            DownlinkConference { adaptive } | UplinkConference { adaptive } => FlowKind::Conf {
                src: if adaptive {
                    ConferenceSource::adaptive(SimTime::ZERO)
                } else {
                    ConferenceSource::fixed(SimTime::ZERO)
                },
                asm: FrameAssembly::default(),
                sink: ConferenceSink::new(),
                next_seq: 0,
            },
        };
        Flow {
            id,
            client,
            from,
            to,
            kind,
        }
    }

    /// Start the flow at `t0`: nothing is sent before it and nothing is
    /// back-filled at it.
    pub(crate) fn start_at(&mut self, t0: SimTime) -> Asks {
        let feedback = match &mut self.kind {
            FlowKind::Udp { src, .. } => {
                src.defer_start(t0);
                None
            }
            FlowKind::Conf { src, .. } => {
                src.defer_start(t0);
                Some(t0 + CONF_FEEDBACK)
            }
            FlowKind::DownTcp { .. } => None,
        };
        Asks {
            tick: Some(t0),
            feedback,
            ..Asks::default()
        }
    }

    /// Whatever the TCP window allows now, and where the retransmission
    /// deadline stands after it: the one place the sender is polled.
    fn tcp_send(
        &mut self,
        now: SimTime,
        factory: &mut PacketFactory,
        out: &mut Vec<Packet>,
    ) -> Asks {
        let FlowKind::DownTcp { snd, .. } = &mut self.kind else {
            return Asks::default();
        };
        for s in snd.poll_send(now) {
            let (seq, len) = (s.seq as u32, s.len as u32);
            out.push(factory.tcp(self.id, self.from, self.to, seq, len, 0, false, now));
        }
        Asks {
            timer: snd.rto_deadline(),
            ..Asks::default()
        }
    }

    /// The source is due: everything it emits up to `now`. A TCP flow
    /// ticks once, to emit its initial window.
    pub(crate) fn on_tick(
        &mut self,
        now: SimTime,
        factory: &mut PacketFactory,
        out: &mut Vec<Packet>,
    ) -> Asks {
        let tick = match &mut self.kind {
            FlowKind::Udp { src, .. } => {
                out.append(&mut src.poll(now, factory));
                src.next_due()
            }
            FlowKind::DownTcp { .. } => return self.tcp_send(now, factory, out),
            FlowKind::Conf {
                src, asm, next_seq, ..
            } => {
                let len = (CONF_CHUNK + 28) as u16;
                for f in src.poll(now) {
                    let chunks = f.bytes.div_ceil(CONF_CHUNK);
                    for seq in asm.on_frame_sent(f.id, chunks, next_seq) {
                        out.push(factory.udp(self.id, self.from, self.to, seq, len, now));
                    }
                }
                src.next_due()
            }
        };
        Asks {
            tick: Some(tick),
            ..Asks::default()
        }
    }

    /// A retransmission timer armed for this flow came up.
    pub(crate) fn on_timer(
        &mut self,
        now: SimTime,
        factory: &mut PacketFactory,
        out: &mut Vec<Packet>,
    ) -> Asks {
        match &mut self.kind {
            FlowKind::DownTcp { snd, .. } if snd.rto_deadline().is_some_and(|d| d <= now) => {
                snd.on_rto(now);
                self.tcp_send(now, factory, out)
            }
            // Stale: the deadline moved after this timer was armed, and
            // whoever moved it asked for one at the new deadline (each of
            // the three that can: the first tick, an ACK's arrival, the
            // RTO above).
            _ => Asks::default(),
        }
    }

    /// `packet` reached the end of the flow it was addressed to: the
    /// client, decoded and MAC-deduplicated, or the server, past the
    /// controller's de-duplication.
    pub(crate) fn on_arrival(
        &mut self,
        packet: &Packet,
        now: SimTime,
        factory: &mut PacketFactory,
        out: &mut Vec<Packet>,
    ) -> Asks {
        match (&mut self.kind, packet.transport) {
            (
                FlowKind::Udp {
                    meter, received, ..
                },
                Transport::Udp { .. },
            ) => {
                *received += 1;
                meter.record(now, u64::from(packet.len));
            }
            (FlowKind::Conf { asm, sink, .. }, Transport::Udp { seq }) => {
                let completes = asm.on_chunk(seq);
                if completes {
                    sink.on_frame_complete(now);
                }
            }
            // A segment at the client: deliver, acknowledge.
            (
                FlowKind::DownTcp {
                    rcv,
                    meter,
                    limit,
                    completed,
                    ..
                },
                Transport::Tcp { seq, payload, .. },
            ) if packet.dst == self.to => {
                let before = rcv.delivered;
                let ack_no = rcv.on_segment(widen(seq, rcv.ack_no()), u64::from(payload));
                let newly = rcv.delivered - before;
                if newly > 0 {
                    meter.record(now, newly);
                    if rcv.delivered >= *limit {
                        completed.get_or_insert(now);
                    }
                }
                let ack_no = ack_no as u32;
                out.push(factory.tcp(self.id, self.to, self.from, 0, 0, ack_no, true, now));
            }
            // Its acknowledgement at the server.
            (FlowKind::DownTcp { snd, .. }, Transport::Tcp { ack_no, is_ack, .. }) if is_ack => {
                snd.on_ack(widen(ack_no, snd.snd_una()), now);
                return self.tcp_send(now, factory, out);
            }
            _ => {}
        }
        Asks::default()
    }

    /// The conference receiver's periodic report: the share of the
    /// period's frames that did not complete goes back to the source.
    pub(crate) fn on_feedback(&mut self, now: SimTime) -> Asks {
        let FlowKind::Conf { src, asm, .. } = &mut self.kind else {
            return Asks::default();
        };
        let (sent, done) = (asm.window_sent, asm.window_done);
        if sent > 0 {
            src.on_loss_feedback(1.0 - (done.min(sent) as f64 / sent as f64));
        }
        (asm.window_sent, asm.window_done) = (0, 0);
        Asks {
            feedback: Some(now + CONF_FEEDBACK),
            ..Asks::default()
        }
    }

    /// Whether the flow still has downlink data to deliver: open-ended
    /// downlink demand or an unfinished finite transfer. A client none
    /// of whose flows does has gone legitimately quiet.
    pub(crate) fn wants_downlink(&self) -> bool {
        match &self.kind {
            FlowKind::DownTcp { completed, .. } => completed.is_none(),
            _ => self.from == SERVER_IP,
        }
    }

    /// Write the flow's observables into `report` (whose `duration` is
    /// the run's).
    pub(crate) fn fold_into(&self, report: &mut RunReport) {
        match &self.kind {
            FlowKind::Udp {
                src,
                meter,
                received,
            } => {
                let counts = (u64::from(src.emitted()), *received);
                report.udp_counts.insert(self.id, counts);
                report.flow_meters.insert(self.id, meter.clone());
            }
            FlowKind::DownTcp {
                snd,
                meter,
                completed,
                ..
            } => {
                report.flow_meters.insert(self.id, meter.clone());
                report.tcp_timeouts.insert(self.id, snd.stats.timeouts);
                if let Some(at) = *completed {
                    report.tcp_completion.insert(self.id, at);
                }
            }
            FlowKind::Conf { sink, .. } => {
                let secs = report.duration.as_secs_f64().ceil() as usize;
                let fps = sink.fps_per_second(SimTime::ZERO, secs);
                report.conference_sinks.insert(self.id, fps);
            }
        }
    }

    /// The TCP sender of a TCP flow.
    #[cfg(test)]
    pub(crate) fn tcp_sender(&self) -> &TcpSender {
        match &self.kind {
            FlowKind::DownTcp { snd, .. } => snd,
            _ => panic!("not a TCP flow"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::tcp::MSS;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 100);
    const ID: FlowId = FlowId(0);

    /// A flow and the factory its packets come from; each call hands
    /// back what the flow asked for and what it put out.
    struct Rig {
        flow: Flow,
        factory: PacketFactory,
    }

    fn rig(spec: FlowSpec) -> Rig {
        Rig {
            flow: Flow::new(ID, NodeId(100), CLIENT_IP, spec),
            factory: PacketFactory::new(),
        }
    }

    impl Rig {
        fn tick(&mut self, now: SimTime) -> (Asks, Vec<Packet>) {
            let mut out = Vec::new();
            (self.flow.on_tick(now, &mut self.factory, &mut out), out)
        }

        fn timer(&mut self, now: SimTime) -> (Asks, Vec<Packet>) {
            let mut out = Vec::new();
            (self.flow.on_timer(now, &mut self.factory, &mut out), out)
        }

        fn arrive(&mut self, p: &Packet, now: SimTime) -> (Asks, Vec<Packet>) {
            let mut out = Vec::new();
            let asks = self.flow.on_arrival(p, now, &mut self.factory, &mut out);
            (asks, out)
        }

        fn folded(&self, secs: u64) -> RunReport {
            let mut report = RunReport {
                duration: SimDuration::from_secs(secs),
                ..RunReport::default()
            };
            self.flow.fold_into(&mut report);
            report
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// A TCP packet's (seq, payload, ack number, ACK flag).
    fn tcp_fields(p: &Packet) -> (u32, u32, u32, bool) {
        match p.transport {
            Transport::Tcp {
                seq,
                payload,
                ack_no,
                is_ack,
            } => (seq, payload, ack_no, is_ack),
            Transport::Udp { .. } => panic!("not TCP: {p:?}"),
        }
    }

    fn udp_seqs(pkts: &[Packet]) -> Vec<u32> {
        pkts.iter()
            .map(|p| match p.transport {
                Transport::Udp { seq } => seq,
                Transport::Tcp { .. } => panic!("not UDP: {p:?}"),
            })
            .collect()
    }

    // ------------------------------------------------------------- wire

    #[test]
    fn widening_is_the_identity_below_two_to_the_31() {
        for (wire, near) in [(0, 0), (500, 1000), (1000, 500), (u32::MAX >> 1, 0)] {
            assert_eq!(widen(wire, near), u64::from(wire), "{wire} near {near}");
        }
    }

    #[test]
    fn widening_follows_the_endpoint_across_the_wrap() {
        const WRAP: u64 = 1 << 32;
        let window = TcpConfig::default().receive_window;
        for laps in [1, 2, 1000] {
            let edge = laps * WRAP;
            // Ahead of the endpoint and behind it, the wrap between them.
            assert_eq!(widen(500, edge - 1000), edge + 500);
            assert_eq!(widen((edge - 1000) as u32, edge + 500), edge - 1000);
            // A full window either way of a position on the wrap itself
            // and of one well clear of it.
            for near in [edge, edge + WRAP / 2 + 7] {
                for at in [near - window, near, near + window] {
                    assert_eq!(widen(at as u32, near), at, "{at} near {near}");
                }
            }
        }
    }

    // -------------------------------------------------------------- TCP

    #[test]
    fn tcp_bootstrap_emits_the_initial_window_and_a_deadline_one_rto_out() {
        let mut tcp = rig(FlowSpec::DownlinkTcpBulk);
        let t0 = ms(1500);
        let start = tcp.flow.start_at(t0);
        assert_eq!(
            (start.tick, start.timer, start.feedback),
            (Some(t0), None, None)
        );

        let rto = tcp.flow.tcp_sender().rto();
        let (asks, pkts) = tcp.tick(t0);
        assert_eq!((asks.tick, asks.timer), (None, Some(t0 + rto)));
        assert_eq!(pkts.len() as u64, TcpConfig::default().initial_cwnd / MSS);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!((p.src, p.dst, p.created), (SERVER_IP, CLIENT_IP, t0));
            let at = (i as u64 * MSS) as u32;
            assert_eq!(tcp_fields(p), (at, MSS as u32, 0, false));
        }
        // A timer that comes up early is stale; on the deadline it is not.
        let (early, none) = tcp.timer(t0 + rto - SimDuration::from_nanos(1));
        assert!(early.timer.is_none() && none.is_empty());
        let (due, again) = tcp.timer(t0 + rto);
        assert_eq!(due.timer, Some(t0 + rto + rto.times(2)));
        assert_eq!(tcp_fields(&again[0]), (0, MSS as u32, 0, false));
    }

    #[test]
    fn an_ack_releases_segments_and_moves_the_deadline_and_a_repeat_releases_none() {
        let mut tcp = rig(FlowSpec::DownlinkTcpBulk);
        let (_, window) = tcp.tick(ms(0));

        // The first segment reaches the client, which acknowledges it.
        let (asks, acks) = tcp.arrive(&window[0], ms(10));
        assert_eq!((asks.tick, asks.timer), (None, None));
        assert_eq!(acks.len(), 1);
        assert_eq!((acks[0].src, acks[0].dst), (CLIENT_IP, SERVER_IP));
        assert_eq!(tcp_fields(&acks[0]), (0, 0, MSS as u32, true));

        // At the server it opens the window: slow start, two for one.
        let (asks, fresh) = tcp.arrive(&acks[0], ms(20));
        let rto = tcp.flow.tcp_sender().rto();
        assert_eq!(asks.timer, Some(ms(20) + rto));
        let next = (window.len() as u64 * MSS) as u32;
        assert_eq!(fresh.len(), 2);
        assert_eq!(tcp_fields(&fresh[0]), (next, MSS as u32, 0, false));

        // The same ACK again: a duplicate. Nothing to send, the deadline
        // where it was.
        let (asks, none) = tcp.arrive(&acks[0], ms(30));
        assert_eq!(asks.timer, Some(ms(20) + rto));
        assert!(none.is_empty());
        // And an older one still, once a later ACK has moved past it.
        let (_, second) = tcp.arrive(&window[1], ms(31));
        tcp.arrive(&second[0], ms(40));
        let deadline = tcp.flow.tcp_sender().rto_deadline();
        let (asks, none) = tcp.arrive(&acks[0], ms(50));
        assert_eq!(asks.timer, deadline);
        assert!(none.is_empty());
    }

    #[test]
    fn a_finite_transfer_completes_once_on_the_arrival_that_crosses_its_limit() {
        let bytes = 2 * MSS + 100;
        let mut web = rig(FlowSpec::DownlinkTcpBytes { bytes });
        let (_, segs) = web.tick(ms(0));
        assert_eq!(segs.len(), 3);
        assert_eq!(tcp_fields(&segs[2]), ((2 * MSS) as u32, 100, 0, false));

        // Out of order: the last byte arrives first and completes nothing.
        for (seg, at) in [(2, 5), (0, 6)] {
            web.arrive(&segs[seg], ms(at));
            assert!(web.flow.wants_downlink());
            assert!(web.folded(1).tcp_completion.is_empty());
        }
        let (_, ack) = web.arrive(&segs[1], ms(7));
        assert_eq!(tcp_fields(&ack[0]), (0, 0, bytes as u32, true));
        assert!(!web.flow.wants_downlink());
        // A retransmitted copy later does not move the instant.
        web.arrive(&segs[1], ms(9));
        let report = web.folded(1);
        assert_eq!(report.tcp_completion[&ID], ms(7));
        assert_eq!(report.flow_meters[&ID].total_bytes(), bytes);
        assert_eq!(report.tcp_timeouts[&ID], 0);
        // Bulk demand never closes.
        assert!(rig(FlowSpec::DownlinkTcpBulk).flow.wants_downlink());
    }

    // -------------------------------------------------------------- UDP

    #[test]
    fn a_deferred_cbr_flow_is_silent_before_t0_and_does_not_back_fill_at_it() {
        // 12 Mbit/s of 1500 B datagrams: one per millisecond.
        let mut cbr = rig(FlowSpec::UplinkUdp { rate_mbps: 12.0 });
        let t0 = ms(500);
        assert_eq!(cbr.flow.start_at(t0).tick, Some(t0));
        let (before, none) = cbr.tick(ms(499));
        assert_eq!(before.tick, Some(t0));
        assert!(none.is_empty());

        let (at, pkts) = cbr.tick(t0);
        assert_eq!(at.tick, Some(ms(501)));
        assert_eq!(udp_seqs(&pkts), [0]);
        assert_eq!((pkts[0].src, pkts[0].dst), (CLIENT_IP, SERVER_IP));
        assert_eq!((pkts[0].len, pkts[0].created), (UDP_LEN, t0));

        // The far end counts it; uplink demand is no downlink demand.
        cbr.arrive(&pkts[0], ms(503));
        let report = cbr.folded(1);
        assert_eq!(report.udp_counts[&ID], (1, 1));
        assert_eq!(report.flow_meters[&ID].total_bytes(), u64::from(UDP_LEN));
        assert!(!cbr.flow.wants_downlink());
        let down = rig(FlowSpec::DownlinkUdp { rate_mbps: 1.0 });
        assert!(down.flow.wants_downlink());
    }

    // ------------------------------------------------------- conference

    #[test]
    fn conference_chunks_are_contiguous_and_a_frame_completes_on_its_last() {
        let mut conf = rig(FlowSpec::DownlinkConference { adaptive: false });
        let start = conf.flow.start_at(ms(0));
        assert_eq!((start.tick, start.feedback), (Some(ms(0)), Some(ms(1000))));
        // 10 kB frames in 1200 B chunks: nine apiece.
        let (asks, first) = conf.tick(ms(0));
        let due = asks.tick.expect("a conference keeps ticking");
        assert_eq!(due, ms(0) + SimDuration::from_secs_f64(1.0 / 30.0));
        let (_, second) = conf.tick(due);
        assert_eq!(udp_seqs(&first), (0..9).collect::<Vec<_>>());
        assert_eq!(udp_seqs(&second), (9..18).collect::<Vec<_>>());
        assert!(first.iter().all(|p| p.len == 1228 && p.dst == CLIENT_IP));

        let frames = |c: &Rig| c.folded(1).conference_sinks[&ID][0];
        for p in &first[..8] {
            conf.arrive(p, ms(40));
        }
        assert_eq!(frames(&conf), 0.0);
        // A sequence number no frame was sent under.
        let mut unknown = first[0];
        unknown.transport = Transport::Udp { seq: 1000 };
        conf.arrive(&unknown, ms(41));
        assert_eq!(frames(&conf), 0.0);
        conf.arrive(&first[8], ms(42));
        assert_eq!(frames(&conf), 1.0);
        // Copies of a complete frame's chunks (the MAC and the controller
        // de-duplicate those of a pending one before they get here).
        conf.arrive(&first[8], ms(43));
        conf.arrive(&first[0], ms(43));
        assert_eq!(frames(&conf), 1.0);
        assert!(conf.flow.wants_downlink());
    }

    #[test]
    fn a_period_of_total_loss_halves_an_adaptive_conference_and_not_a_fixed_one() {
        // ROADMAP reads fig24's identical apps as "the adaptation path is
        // never entered". The path is sound — feedback of loss 1.0 reaches
        // the source and the next frame is half the size — so what fig24
        // lacks is a feedback period with over 10 % of its frames lost.
        for (adaptive, chunks_after) in [(true, 5), (false, 9)] {
            let mut conf = rig(FlowSpec::UplinkConference { adaptive });
            let feedback_at = conf.flow.start_at(ms(0)).feedback.expect("set");
            // Every chunk of the period is lost: none arrives.
            let (mut due, mut per_tick) = (ms(0), Vec::new());
            while due < feedback_at {
                let (asks, pkts) = conf.tick(due);
                due = asks.tick.expect("a conference keeps ticking");
                per_tick.push(pkts.len());
            }
            assert_eq!(per_tick, [9; 31], "adaptive={adaptive}");
            let next = conf.flow.on_feedback(feedback_at);
            assert_eq!(next.feedback, Some(ms(2000)));
            let (_, after) = conf.tick(due);
            assert_eq!(after.len(), chunks_after, "adaptive={adaptive}");
            assert_eq!(udp_seqs(&after)[0], 31 * 9, "numbering carries on");
        }
    }
}
