//! Differential harness for the controller dataplane rewrite.
//!
//! The seed controller is retained verbatim as the oracle in
//! `tests/oracle/controller.rs`; the shipping [`Controller`] replaced its
//! per-call `Vec` returns with a caller-provided output `Vec`, and its
//! scan-everyone `next_timeout`/`poll` with a min-heap of switch-ack
//! deadlines that never cancels (stale entries are skipped by a liveness
//! check).
//! None of that may be observable: this suite replays randomized event
//! interleavings — downlink packets, uplink duplicate bursts, CSI
//! reports, switch acks (fresh and stale), polls at arbitrary instants
//! and at exact deadlines — through both controllers and asserts, after
//! *every* event:
//!
//! * identical action sequences (order included),
//! * identical [`ControllerStats`] (counters, and bit-identical
//!   switch-duration moments),
//! * identical `next_timeout()`,
//! * identical per-client serving APs.
//!
//! Alongside the differential suite live the deterministic accounting
//! regressions nothing previously pinned (`downlink_no_ap`, uplink
//! conservation, the 10-retry stop budget), the 10⁵-source dedup-split
//! scaling contract, and a source whose IP ident wraps.

mod oracle;

use oracle::controller::Controller as ReferenceController;
use proptest::prelude::*;
use std::collections::HashMap;
use wgtt::controller::{Controller, ControllerAction, ControllerStats, FANOUT_GRACE};
use wgtt::messages::BackhaulMsg;
use wgtt::{SwitchPolicyKind, WgttConfig};
use wgtt_mac::frame::NodeId;
use wgtt_net::packet::{FlowId, Packet, PacketFactory};
use wgtt_net::wire::Ipv4Addr;
use wgtt_sim::time::{SimDuration, SimTime};

const N_CLIENTS: u32 = 4;
const N_APS: u32 = 5;
const SERVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

fn aps() -> Vec<NodeId> {
    (1..=N_APS).map(NodeId).collect()
}

fn client(i: u8) -> NodeId {
    NodeId(100 + u32::from(i) % N_CLIENTS)
}

fn ap(i: u8) -> NodeId {
    NodeId(1 + u32::from(i) % N_APS)
}

fn client_ip(c: NodeId) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 0, c.0 as u8)
}

/// Drives the shipping controller and the retained oracle in lockstep,
/// comparing everything observable after each event.
struct Diff {
    ship: Controller,
    oracle: ReferenceController,
    now: SimTime,
    factory: PacketFactory,
    /// Latest Stop seen per client (switch id + target AP), harvested
    /// from the oracle's action stream so acks can be made valid.
    last_stop: HashMap<NodeId, (u64, NodeId)>,
    seq: u32,
}

#[allow(clippy::type_complexity)]
fn stats_sig(s: &ControllerStats) -> (u64, u64, u64, u64, u64, u64, u64, usize, u64, u64, u64) {
    (
        s.switches_started,
        s.switches_completed,
        s.stop_retransmits,
        s.downlink_no_ap,
        s.uplink_duplicates,
        s.uplink_forwarded,
        s.max_ap_load,
        s.switch_durations.len(),
        s.switch_durations.mean().unwrap_or(0.0).to_bits(),
        s.switch_durations.std_dev().unwrap_or(0.0).to_bits(),
        s.switch_durations.quantile(0.5).unwrap_or(0.0).to_bits(),
    )
}

impl Diff {
    fn new() -> Self {
        Self::with_cfg(WgttConfig::default())
    }

    fn with_cfg(cfg: WgttConfig) -> Self {
        Diff {
            ship: Controller::new(cfg, aps()),
            oracle: ReferenceController::new(cfg, aps()),
            now: SimTime::ZERO,
            factory: PacketFactory::new(),
            last_stop: HashMap::new(),
            seq: 0,
        }
    }

    fn packet(&mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Packet {
        let seq = self.seq;
        self.seq += 1;
        self.factory.udp(FlowId(0), src, dst, seq, 1500, self.now)
    }

    /// Run one event through both controllers and check equivalence.
    fn step(&mut self, kind: u8, a: u8, b: u8, v: u16) {
        let (ship_actions, oracle_actions) = match kind {
            0 => {
                let (c, via) = (client(a), ap(b));
                let mut s = Vec::new();
                self.ship.on_client_associated(c, via, self.now, &mut s);
                (s, self.oracle.on_client_associated(c, via, self.now))
            }
            1 => {
                let msg = BackhaulMsg::CsiReport {
                    client: client(a),
                    ap: ap(b),
                    esnr_db: f64::from(v % 320) / 10.0,
                    at: self.now,
                };
                let mut s = Vec::new();
                self.ship.on_msg(msg.clone(), self.now, &mut s);
                (s, self.oracle.on_msg(msg, self.now))
            }
            2 => {
                let c = client(a);
                let p = self.packet(SERVER, client_ip(c));
                let mut s = Vec::new();
                self.ship.on_downlink(c, p, self.now, &mut s);
                (s, self.oracle.on_downlink(c, p, self.now))
            }
            3 => {
                // Uplink burst: 1–3 copies of one packet via different
                // APs — the dedup path, duplicates included.
                let c = client(a);
                let p = self.packet(client_ip(c), SERVER);
                let copies = 1 + v % 3;
                let mut s = Vec::new();
                let mut o = Vec::new();
                for i in 0..copies {
                    let msg = BackhaulMsg::UplinkData {
                        ap: ap(b + i as u8),
                        packet: p,
                    };
                    self.ship.on_msg(msg.clone(), self.now, &mut s);
                    o.extend(self.oracle.on_msg(msg, self.now));
                }
                (s, o)
            }
            4 => {
                // Switch ack for the client's last observed Stop; every
                // fourth is made stale (wrong id) and must be ignored.
                let c = client(a);
                let Some(&(sid, next_ap)) = self.last_stop.get(&c) else {
                    return;
                };
                let sid = if v.is_multiple_of(4) {
                    sid ^ 0x5a5a
                } else {
                    sid
                };
                let msg = BackhaulMsg::SwitchAck {
                    client: c,
                    ap: next_ap,
                    switch_id: sid,
                };
                let mut s = Vec::new();
                self.ship.on_msg(msg.clone(), self.now, &mut s);
                (s, self.oracle.on_msg(msg, self.now))
            }
            5 => {
                let mut s = Vec::new();
                self.ship.poll(self.now, &mut s);
                (s, self.oracle.poll(self.now))
            }
            6 => {
                // Poll at the exact pending deadline — the boundary the
                // deadline heap must hit neither early nor late.
                let t = self.oracle.next_timeout();
                assert_eq!(self.ship.next_timeout(), t, "next_timeout diverged");
                let Some(t) = t else { return };
                self.now = self.now.max(t);
                let mut s = Vec::new();
                self.ship.poll(self.now, &mut s);
                (s, self.oracle.poll(self.now))
            }
            _ => (Vec::new(), Vec::new()), // pure time advance
        };
        self.check(&ship_actions, &oracle_actions);
        self.now += SimDuration::from_micros(u64::from(v) % 5000);
    }

    fn check(&mut self, ship: &[ControllerAction], oracle: &[ControllerAction]) {
        assert_eq!(ship, oracle, "action sequences diverged");
        for a in oracle {
            if let ControllerAction::Send {
                msg:
                    BackhaulMsg::Stop {
                        client,
                        next_ap,
                        switch_id,
                    },
                ..
            } = a
            {
                self.last_stop.insert(*client, (*switch_id, *next_ap));
            }
        }
        assert_eq!(
            self.ship.next_timeout(),
            self.oracle.next_timeout(),
            "next_timeout diverged"
        );
        assert_eq!(
            stats_sig(&self.ship.stats),
            stats_sig(&self.oracle.stats),
            "stats diverged"
        );
        for i in 0..N_CLIENTS as u8 {
            let c = client(i);
            assert_eq!(
                self.ship.serving(c),
                self.oracle.serving(c),
                "serving({c:?}) diverged"
            );
        }
    }

    /// Drain every pending timeout through both controllers: polls at
    /// successive deadlines until both agree nothing is armed.
    fn drain(&mut self) {
        for _ in 0..64 {
            let t = self.oracle.next_timeout();
            assert_eq!(
                self.ship.next_timeout(),
                t,
                "next_timeout diverged in drain"
            );
            let Some(t) = t else { return };
            self.now = self.now.max(t);
            let mut s = Vec::new();
            self.ship.poll(self.now, &mut s);
            let o = self.oracle.poll(self.now);
            self.check(&s, &o);
        }
        panic!("timeouts failed to drain within 64 polls");
    }
}

proptest! {
    /// The headline contract: arbitrary interleavings of every
    /// controller entry point are observationally identical between the
    /// shipping dataplane and the seed oracle.
    #[test]
    fn rewrite_matches_reference_under_random_interleavings(
        script in proptest::collection::vec((0u8..8, 0u8..16, 0u8..16, 0u16..5000), 1..100)
    ) {
        let mut d = Diff::new();
        for (kind, a, b, v) in script {
            d.step(kind, a, b, v);
        }
        d.drain();
    }

    /// Switch-protocol-heavy interleavings: only CSI flips, acks, and
    /// exact-deadline polls, so retry chains run deep enough to cross
    /// the 10-retransmit abandon budget with the deadline heap re-arming at
    /// every step.
    #[test]
    fn switch_protocol_paths_match_reference(
        script in proptest::collection::vec((0u8..3, 0u8..16, 0u8..16, 0u16..5000), 1..120)
    ) {
        let mut d = Diff::new();
        for i in 0..N_CLIENTS as u8 {
            d.step(0, i, i, 700); // associate everyone first
        }
        for (kind, a, b, v) in script {
            // 0 → csi, 1 → ack, 2 → poll at deadline.
            d.step(match kind { 0 => 1, 1 => 4, _ => 6 }, a, b, v);
        }
        d.drain();
    }

    /// The same contract under every switch rule: both controllers set
    /// `cfg.switch_policy` on their selectors and feed them the same
    /// load table, so LoadAware runs must stay observationally
    /// identical too — including the `max_ap_load` high-water mark in
    /// the stats signature.
    #[test]
    fn policy_configs_match_reference_under_random_interleavings(
        kind_idx in 0usize..SwitchPolicyKind::all().len(),
        script in proptest::collection::vec((0u8..8, 0u8..16, 0u8..16, 0u16..5000), 1..80)
    ) {
        let cfg = WgttConfig {
            switch_policy: SwitchPolicyKind::all()[kind_idx],
            ..Default::default()
        };
        let mut d = Diff::with_cfg(cfg);
        for i in 0..N_CLIENTS as u8 {
            d.step(0, i, i, 700); // associate everyone first
        }
        for (kind, a, b, v) in script {
            d.step(kind, a, b, v);
        }
        d.drain();
    }
}

// ------------------------------------------------------------------
// Deterministic `ControllerStats` accounting regressions (nothing
// previously pinned these).
// ------------------------------------------------------------------

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

struct Ctl {
    c: Controller,
    factory: PacketFactory,
    seq: u32,
}

impl Ctl {
    fn new() -> Self {
        Ctl {
            c: Controller::new(WgttConfig::default(), aps()),
            factory: PacketFactory::new(),
            seq: 0,
        }
    }

    fn downlink(&mut self, c: NodeId, at: SimTime) -> Vec<ControllerAction> {
        let seq = self.seq;
        self.seq += 1;
        let p = self
            .factory
            .udp(FlowId(0), SERVER, client_ip(c), seq, 1500, at);
        let mut out = Vec::new();
        self.c.on_downlink(c, p, at, &mut out);
        out
    }
}

#[test]
fn downlink_no_ap_increments_once_per_undeliverable_packet() {
    let mut t = Ctl::new();
    let c = client(0);
    // Never associated, never heard: every packet is undeliverable.
    for i in 0..5u64 {
        let acts = t.downlink(c, ms(i));
        assert!(acts.is_empty());
        assert_eq!(t.c.stats.downlink_no_ap, i + 1, "exactly one per packet");
    }
    // Associate (inside the boot grace): deliverable again via the
    // serving AP, so the counter must freeze.
    let mut sink = Vec::new();
    t.c.on_client_associated(c, ap(0), ms(10), &mut sink);
    assert!(!t.downlink(c, ms(11)).is_empty());
    assert_eq!(t.c.stats.downlink_no_ap, 5);
    // Past the fanout grace with no CSI ever heard: undeliverable
    // again, one increment per packet, no double counting.
    let late = ms(10) + FANOUT_GRACE + SimDuration::from_millis(1);
    assert!(t.downlink(c, late).is_empty());
    assert!(t.downlink(c, late).is_empty());
    assert_eq!(t.c.stats.downlink_no_ap, 7);
}

#[test]
fn uplink_counters_sum_to_offered_load() {
    let mut t = Ctl::new();
    let mut offered = 0u64;
    let mut distinct = 0u64;
    for i in 0..200u32 {
        let c = client(i as u8);
        let p = t
            .factory
            .udp(FlowId(0), client_ip(c), SERVER, i, 1500, ms(u64::from(i)));
        distinct += 1;
        let copies = 1 + i % 4;
        for k in 0..copies {
            offered += 1;
            let mut out = Vec::new();
            t.c.on_msg(
                BackhaulMsg::UplinkData {
                    ap: ap(k as u8),
                    packet: p,
                },
                ms(u64::from(i)),
                &mut out,
            );
            // Exactly the first copy reaches the WAN.
            assert_eq!(out.len(), usize::from(k == 0));
        }
    }
    let s = &t.c.stats;
    assert_eq!(s.uplink_forwarded, distinct);
    assert_eq!(
        s.uplink_forwarded + s.uplink_duplicates,
        offered,
        "every offered copy is either forwarded or counted duplicate"
    );
}

#[test]
fn stop_retransmits_match_retry_budget_end_to_end() {
    let mut t = Ctl::new();
    let c = client(0);
    let mut sink = Vec::new();
    t.c.on_client_associated(c, NodeId(1), ms(0), &mut sink);
    // Make AP2 clearly better after the hysteresis window; the ack
    // never arrives.
    let at = ms(100);
    let csi = |apn: u32, esnr: f64| BackhaulMsg::CsiReport {
        client: c,
        ap: NodeId(apn),
        esnr_db: esnr,
        at,
    };
    let mut out = Vec::new();
    t.c.on_msg(csi(1, 8.0), at, &mut out);
    t.c.on_msg(csi(2, 16.0), at, &mut out);
    assert_eq!(t.c.stats.switches_started, 1);
    let initial_stops = out
        .iter()
        .filter(|a| {
            matches!(
                a,
                ControllerAction::Send {
                    msg: BackhaulMsg::Stop { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(initial_stops, 1, "begin sends the stop itself");
    // Poll at every successive deadline until the protocol gives up:
    // exactly `max_retries` = 10 retransmissions, then silence.
    let mut retransmits = 0u64;
    let mut polls = 0;
    while let Some(deadline) = t.c.next_timeout() {
        polls += 1;
        assert!(polls <= 12, "abandon must bound the retry chain");
        let mut acts = Vec::new();
        t.c.poll(deadline, &mut acts);
        retransmits += acts.len() as u64;
    }
    assert_eq!(retransmits, 10, "10-retry abandon budget");
    assert_eq!(t.c.stats.stop_retransmits, 10);
    assert_eq!(t.c.stats.switches_completed, 0);
    assert_eq!(t.c.serving(c), Some(NodeId(1)), "abandon keeps old AP");
    assert_eq!(t.c.next_timeout(), None, "nothing left armed");
}

// ------------------------------------------------------------------
// Per-source dedup under pressure: the HashMap<u32, DedupFilter> split
// must isolate sources and keep per-filter memory proportional to the
// keys actually seen (10⁵ sources would cost ~100 GiB under the old
// eager per-filter preallocation).
// ------------------------------------------------------------------

#[test]
fn dedup_split_isolates_100k_sources() {
    const SOURCES: u32 = 100_000;
    let mut c = Controller::new(WgttConfig::default(), aps());
    let mut factory = PacketFactory::new();
    let mut early: Vec<Packet> = Vec::new();
    let at = ms(1);
    for s in 0..SOURCES {
        let src = Ipv4Addr::new(10, (s >> 16) as u8, (s >> 8) as u8, s as u8);
        let p = factory.udp(FlowId(0), src, SERVER, 0, 200, at);
        if early.len() < 64 {
            early.push(p);
        }
        for copy in 0..2 {
            let mut out = Vec::new();
            c.on_msg(
                BackhaulMsg::UplinkData {
                    ap: ap(copy),
                    packet: p,
                },
                at,
                &mut out,
            );
            assert_eq!(out.len(), usize::from(copy == 0));
        }
    }
    assert_eq!(c.stats.uplink_forwarded, u64::from(SOURCES));
    assert_eq!(c.stats.uplink_duplicates, u64::from(SOURCES));
    // The earliest sources' keys must still be remembered: later
    // sources own their own filters and exert no eviction pressure
    // across the split (no cross-source false *negatives* either).
    for p in &early {
        let mut out = Vec::new();
        c.on_msg(
            BackhaulMsg::UplinkData {
                ap: ap(0),
                packet: *p,
            },
            at,
            &mut out,
        );
        assert!(
            out.is_empty(),
            "early source's key was evicted cross-source"
        );
    }
    let (filters, keys, reserved) = c.dedup_footprint();
    assert_eq!(filters, SOURCES as usize);
    assert_eq!(keys, SOURCES as usize, "one live key per source");
    // Bounded per-filter memory: reserved hash capacity tracks the keys
    // actually inserted, not the 2¹⁶ configured capacity ceiling.
    assert!(
        reserved < 8 * filters,
        "reserved {reserved} slots across {filters} filters — eager preallocation is back?"
    );
}

// One source's filter holds at most `dedup_capacity` keys. At 2¹⁶ it
// could hold every IP ident the source has, never evicted, and so
// dropped every fresh packet once the ident wrapped.
#[test]
fn one_source_past_the_ident_space_is_still_forwarded() {
    const PACKETS: u32 = (1 << 16) + 100;
    let mut c = Controller::new(WgttConfig::default(), aps());
    let mut factory = PacketFactory::new();
    let src = Ipv4Addr::new(172, 16, 0, 100);
    let at = ms(1);
    let mut out = Vec::new();
    let mut last = None;
    for seq in 0..PACKETS {
        let packet = factory.udp(FlowId(0), src, SERVER, seq, 200, at);
        c.on_msg(BackhaulMsg::UplinkData { ap: ap(0), packet }, at, &mut out);
        last = Some(packet);
    }
    assert_eq!(c.stats.uplink_forwarded, u64::from(PACKETS));
    assert_eq!(c.stats.uplink_duplicates, 0);
    assert_eq!(out.len(), PACKETS as usize);
    // A second AP's copy of a fresh packet is still a duplicate.
    let packet = last.expect("sent at least one");
    c.on_msg(BackhaulMsg::UplinkData { ap: ap(1), packet }, at, &mut out);
    assert_eq!(c.stats.uplink_duplicates, 1);
}
