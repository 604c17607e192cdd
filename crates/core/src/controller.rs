//! The WGTT controller (paper Fig. 5, control plane).
//!
//! One controller, connected to every AP over the Ethernet backhaul,
//! owns per-client state: the ESNR [`selection`](crate::selection)
//! windows, the [`switching`](crate::switching) protocol driver, the
//! downlink packet-index counter, and the uplink
//! [`dedup`](crate::dedup) filter. It is a pure state machine: feed it
//! backhaul messages and WAN packets with a timestamp and an output
//! `Vec`, and it appends the actions (backhaul sends, WAN deliveries) to
//! schedule.
//!
//! Its shape follows the traffic it serves:
//!
//! * **Actions go into the caller's `Vec`.** Every entry point appends
//!   to a `&mut Vec<ControllerAction>`. The event loop keeps a small pool
//!   of them and clears each after dispatch, so steady-state dispatch
//!   allocates nothing.
//! * **One client map.** Per-client state lives in a `HashMap` keyed by
//!   client id; each entry point looks its client up once.
//! * **Deadline heap.** `next_timeout()`, asked after *every* dispatch
//!   by the event loop, and `poll()` ride a min-heap of switch-ack
//!   deadlines ([`TimerWheel`], at most one live entry per client, keyed
//!   by client id): `next_timeout` reads its head, `poll` touches only
//!   the clients actually due.
//! * **Streaming fan-out.** A downlink packet resolves its in-range AP
//!   set by walking the selector's link map directly into the output
//!   ([`ApSelector::for_each_heard`]), with no intermediate `Vec`.
//!
//! This is the crate's one controller. The seed implementation (`Vec`
//! returns, scan-all-clients timeouts) survives verbatim as the oracle
//! in `crates/core/tests/oracle/controller.rs`;
//! `crates/core/tests/prop_controller.rs` proves the two
//! action-sequence-, stats-, and timeout-identical under randomized
//! event interleavings.

use crate::config::WgttConfig;
use crate::dedup::DedupFilter;
use crate::messages::BackhaulMsg;
use crate::selection::{ApLoads, ApSelector, Verdict};
use crate::switching::{SwitchEvent, SwitchProtocol};
use crate::timerwheel::TimerWheel;
use wgtt_mac::frame::NodeId;
use wgtt_mac::seq::SEQ_SPACE;
use wgtt_net::Packet;
use wgtt_sim::hash::FastMap;
use wgtt_sim::metrics::Distribution;
use wgtt_sim::time::{SimDuration, SimTime};

/// Downlink fan-out liveness grace: if no AP has heard the client for
/// this long, the controller drops its downlink packets instead of
/// queueing them toward a dark link (the client is out of coverage).
pub const FANOUT_GRACE: SimDuration = SimDuration::from_millis(150);

/// An effect the controller wants performed.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerAction {
    /// Deliver `msg` to `ap` over the backhaul.
    Send {
        /// Destination AP.
        ap: NodeId,
        /// The message.
        msg: BackhaulMsg,
    },
    /// Forward an (de-duplicated) uplink packet to the Internet.
    ToWan {
        /// The packet.
        packet: Packet,
    },
}

/// The buffer the controller's entry points append to. It is a plain
/// `Vec`; the name exists only because `benchmark/src/layers.rs` imports
/// it, as it does [`TimerWheel`].
pub type ActionBuf = Vec<ControllerAction>;

fn send(out: &mut Vec<ControllerAction>, ap: NodeId, msg: BackhaulMsg) {
    out.push(ControllerAction::Send { ap, msg });
}

/// Aggregate controller statistics.
#[derive(Debug, Default)]
pub struct ControllerStats {
    /// Switches initiated.
    pub switches_started: u64,
    /// Switches acknowledged complete.
    pub switches_completed: u64,
    /// Stop retransmissions due to ack timeout.
    pub stop_retransmits: u64,
    /// Protocol execution times (stop sent → ack), seconds, one stored
    /// sample per completed switch.
    pub switch_durations: Distribution,
    /// Downlink packets with no in-range AP (dropped).
    pub downlink_no_ap: u64,
    /// Uplink duplicates dropped.
    pub uplink_duplicates: u64,
    /// Uplink packets forwarded to the WAN.
    pub uplink_forwarded: u64,
    /// High-water mark of concurrent clients on one AP — the pile-up
    /// metric the load-aware policy exists to reduce. Updated at every
    /// association and switch completion.
    pub max_ap_load: u64,
}

#[derive(Debug)]
struct ClientState {
    selector: ApSelector,
    switcher: SwitchProtocol,
    next_index: u16,
}

impl ClientState {
    fn new(cfg: &WgttConfig) -> Self {
        let mut selector = ApSelector::new(
            cfg.selection_window,
            cfg.switch_hysteresis,
            cfg.switch_margin_db,
        );
        selector.set_window_reduce(cfg.window_reduce);
        selector.set_switch_policy(cfg.switch_policy);
        ClientState {
            selector,
            switcher: SwitchProtocol::new(),
            next_index: 0,
        }
    }
}

/// The WGTT controller.
pub struct Controller {
    cfg: WgttConfig,
    /// Per-client state, made on first contact and kept for the run (a
    /// client that leaves coverage keeps its entry).
    clients: FastMap<NodeId, ClientState>,
    all_aps: Vec<NodeId>,
    /// Uplink de-duplication, one filter per source address. The dedup
    /// key already namespaces by source (src ⧺ IP ident, §3.2.2), so
    /// splitting the filter changes no verdicts short of eviction
    /// pressure — and it makes every piece of controller state
    /// per-client, which is what lets a spatially sharded run keep a
    /// controller per shard without cross-shard coupling.
    dedup: FastMap<u32, DedupFilter>,
    /// Switch-ack deadlines, payload = client id (`NodeId.0`). Entries
    /// are never cancelled; liveness is re-checked against the client's
    /// protocol driver on every query.
    wheel: TimerWheel,
    /// Due-client scratch for `poll` (reused).
    poll_scratch: Vec<u32>,
    /// Per-AP associated-client counts — the load term the load-aware
    /// rule reads, maintained under either rule so `max_ap_load` is
    /// comparable across them.
    loads: ApLoads,
    /// Run statistics.
    pub stats: ControllerStats,
}

impl Controller {
    /// A controller managing the given AP array.
    ///
    /// # Panics
    ///
    /// If `cfg.dedup_capacity` is not below 2¹⁶ (see
    /// [`WgttConfig::dedup_capacity`]).
    pub fn new(cfg: WgttConfig, aps: Vec<NodeId>) -> Self {
        assert!(
            cfg.dedup_capacity < 1 << 16,
            "dedup_capacity must stay below the 2^16 IP idents of one source, \
             or a full filter never evicts and drops every packet after the ident wraps"
        );
        Controller {
            dedup: FastMap::default(),
            cfg,
            clients: FastMap::default(),
            all_aps: aps,
            wheel: TimerWheel::new(),
            poll_scratch: Vec::new(),
            loads: ApLoads::new(),
            stats: ControllerStats::default(),
        }
    }

    /// Preallocate the client map for `n` clients (the fleet generator
    /// knows the vehicle count up front).
    pub fn reserve_clients(&mut self, n: usize) {
        self.clients.reserve(n);
    }

    /// The AP currently serving `client`, if known.
    pub fn serving(&self, client: NodeId) -> Option<NodeId> {
        self.clients
            .get(&client)
            .and_then(|st| st.selector.current())
    }

    /// Number of dedup filters, total remembered keys, and total
    /// reserved hash capacity across them — the memory-bound contract
    /// checked by `prop_controller.rs` at 10⁵ sources.
    pub fn dedup_footprint(&self) -> (usize, usize, usize) {
        let keys = self.dedup.values().map(DedupFilter::len).sum();
        let reserved = self.dedup.values().map(DedupFilter::reserved).sum();
        (self.dedup.len(), keys, reserved)
    }

    /// A client completed 802.11 association through `via_ap`: install it
    /// as serving and replicate association state to every AP (§4.3).
    pub fn on_client_associated(
        &mut self,
        client: NodeId,
        via_ap: NodeId,
        now: SimTime,
        out: &mut Vec<ControllerAction>,
    ) {
        let st = state(&mut self.clients, &self.cfg, client);
        let prev = st.selector.current();
        st.selector.set_current(via_ap, now);
        let k = st.next_index;
        let load = self.loads.reassign(prev, via_ap);
        self.stats.max_ap_load = self.stats.max_ap_load.max(u64::from(load));
        for &ap in &self.all_aps {
            send(out, ap, BackhaulMsg::AssocSync { client, via_ap });
        }
        // Degenerate "switch": tell the first AP to serve from the current
        // index.
        send(
            out,
            via_ap,
            BackhaulMsg::Start {
                client,
                k,
                switch_id: u64::MAX, // association, not a protocol attempt
            },
        );
    }

    /// A downlink packet for `client` arrived from the WAN: assign the
    /// next 12-bit index and replicate to every in-range AP (§3.1.2),
    /// streaming the fan-out straight into `out`.
    pub fn on_downlink(
        &mut self,
        client: NodeId,
        packet: Packet,
        now: SimTime,
        out: &mut Vec<ControllerAction>,
    ) {
        let st = state(&mut self.clients, &self.cfg, client);
        // Replicate to every AP heard within the grace window — wider
        // than the selection window W, so that an AP with sporadic CSI
        // still holds a gap-free cyclic ring when a switch lands on it.
        let heard_any = st.selector.heard_within(now, FANOUT_GRACE);
        // The serving AP still gets the packet during a short CSI lull
        // (TCP restarting after an idle period), but once no AP has heard
        // the client for the grace period it is out of coverage and
        // queueing more data would only burn airtime on a dark link.
        let serving_eligible = heard_any || now < SimTime::ZERO + FANOUT_GRACE;
        let serving = st.selector.current();
        if !(heard_any || (serving_eligible && serving.is_some())) {
            self.stats.downlink_no_ap += 1;
            return;
        }
        let index = st.next_index;
        st.next_index = (st.next_index + 1) % SEQ_SPACE;
        let data = BackhaulMsg::DownlinkData {
            client,
            index,
            packet,
        };
        let mut serving_heard = false;
        st.selector.for_each_heard(now, FANOUT_GRACE, |ap| {
            serving_heard |= Some(ap) == serving;
            send(out, ap, data.clone());
        });
        if let Some(s) = serving.filter(|_| serving_eligible && !serving_heard) {
            send(out, s, data);
        }
    }

    /// Handle a message arriving from an AP.
    pub fn on_msg(&mut self, msg: BackhaulMsg, now: SimTime, out: &mut Vec<ControllerAction>) {
        match msg {
            BackhaulMsg::CsiReport {
                client,
                ap,
                esnr_db,
                at,
            } => {
                let st = state(&mut self.clients, &self.cfg, client);
                let Some(current) = st.selector.current().filter(|_| !st.switcher.busy()) else {
                    // Nothing can act on a verdict right now (switch in
                    // flight, or not yet associated): fold the reading
                    // into the window and stop.
                    st.selector.record(ap, at, esnr_db);
                    return;
                };
                // The hot path: one fused call records the reading and
                // re-runs the switch rule, with the controller's per-AP
                // loads in scope for the load-aware rule. A verdict for
                // another AP starts a switch (none is outstanding here).
                let verdict = st
                    .selector
                    .record_and_evaluate(ap, at, esnr_db, now, &self.loads);
                let Verdict::SwitchTo(target) = verdict else {
                    return;
                };
                if target == current {
                    return;
                }
                if let Some(SwitchEvent::SendStop {
                    old_ap,
                    new_ap,
                    switch_id,
                }) = st.switcher.begin(current, target, now)
                {
                    self.stats.switches_started += 1;
                    let deadline = st.switcher.timeout_at().expect("switch just armed");
                    self.wheel.schedule(deadline, client.0);
                    let stop = BackhaulMsg::Stop {
                        client,
                        next_ap: new_ap,
                        switch_id,
                    };
                    send(out, old_ap, stop);
                }
            }
            BackhaulMsg::UplinkData { packet, .. } => {
                let src = (packet.dedup_key() >> 16) as u32;
                let filter = self
                    .dedup
                    .entry(src)
                    .or_insert_with(|| DedupFilter::new(self.cfg.dedup_capacity));
                if filter.check_and_insert(packet.dedup_key()) {
                    self.stats.uplink_forwarded += 1;
                    out.push(ControllerAction::ToWan { packet });
                } else {
                    self.stats.uplink_duplicates += 1;
                }
            }
            BackhaulMsg::SwitchAck {
                client,
                ap,
                switch_id,
            } => {
                let st = state(&mut self.clients, &self.cfg, client);
                if let SwitchEvent::Completed { new_ap, elapsed } =
                    st.switcher.on_ack(switch_id, now)
                {
                    debug_assert_eq!(new_ap, ap);
                    let prev = st.selector.current();
                    st.selector.set_current(new_ap, now);
                    let load = self.loads.reassign(prev, new_ap);
                    self.stats.max_ap_load = self.stats.max_ap_load.max(u64::from(load));
                    self.stats.switches_completed += 1;
                    self.stats.switch_durations.record(elapsed.as_secs_f64());
                    // The deadline entry for this switch goes stale here;
                    // the next query compacts it.
                    // Tell every AP who serves now (monitor-mode
                    // forwarding needs it, §3.2.1).
                    let sync = BackhaulMsg::AssocSync {
                        client,
                        via_ap: new_ap,
                    };
                    for &a in &self.all_aps {
                        send(out, a, sync.clone());
                    }
                }
            }
            // Messages not addressed to the controller are ignored.
            _ => {}
        }
    }

    /// Earliest pending protocol timeout across clients, for the event
    /// loop to schedule a poll. `&mut` because the query lazily drops
    /// deadline entries whose switch already completed.
    pub fn next_timeout(&mut self) -> Option<SimTime> {
        let clients = &self.clients;
        self.wheel.next_deadline(|id, ns| is_live(clients, id, ns))
    }

    /// Fire due timeouts: retransmit stops whose ack is overdue. Only
    /// the clients whose deadline actually passed are touched; they fire
    /// in ascending client-id order, matching the seed's sorted scan.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<ControllerAction>) {
        self.wheel.advance(now);
        let (clients, due) = (&self.clients, &mut self.poll_scratch);
        due.clear();
        // A due entry is live iff the protocol driver still reports
        // exactly this deadline (completed/abandoned/re-armed switches
        // left a stale entry behind).
        self.wheel.drain_due(|id, ns| {
            if is_live(clients, id, ns) {
                due.push(id);
            }
        });
        // Same-deadline re-schedules can leave two live entries for one
        // client; fire each client once.
        due.sort_unstable();
        due.dedup();
        for &id in &self.poll_scratch {
            let client = NodeId(id);
            let st = self
                .clients
                .get_mut(&client)
                .expect("deadline of a known client");
            if let SwitchEvent::SendStop {
                old_ap,
                new_ap,
                switch_id,
            } = st.switcher.poll(now)
            {
                self.stats.stop_retransmits += 1;
                // Re-arm the retransmitted stop's fresh deadline.
                let deadline = st.switcher.timeout_at().expect("retransmit re-armed");
                self.wheel.schedule(deadline, id);
                let stop = BackhaulMsg::Stop {
                    client,
                    next_ap: new_ap,
                    switch_id,
                };
                send(out, old_ap, stop);
            }
        }
    }
}

/// `client`'s state, made on first contact.
fn state<'a>(
    clients: &'a mut FastMap<NodeId, ClientState>,
    cfg: &WgttConfig,
    client: NodeId,
) -> &'a mut ClientState {
    clients
        .entry(client)
        .or_insert_with(|| ClientState::new(cfg))
}

/// Whether the deadline entry `(id, ns)` still belongs to an armed
/// switch of client `id`.
fn is_live(clients: &FastMap<NodeId, ClientState>, id: u32, ns: u64) -> bool {
    clients[&NodeId(id)].switcher.timeout_at() == Some(SimTime::from_nanos(ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::packet::{FlowId, PacketFactory};
    use wgtt_net::wire::Ipv4Addr;
    use wgtt_sim::time::SimDuration;

    const AP1: NodeId = NodeId(1);
    const AP2: NodeId = NodeId(2);
    const AP3: NodeId = NodeId(3);
    const CLIENT: NodeId = NodeId(100);

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn controller() -> Controller {
        Controller::new(WgttConfig::default(), vec![AP1, AP2, AP3])
    }

    fn csi(ap: NodeId, esnr: f64, at: SimTime) -> BackhaulMsg {
        BackhaulMsg::CsiReport {
            client: CLIENT,
            ap,
            esnr_db: esnr,
            at,
        }
    }

    fn pkt(f: &mut PacketFactory, seq: u32) -> Packet {
        f.udp(
            FlowId(0),
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(172, 16, 0, 100),
            seq,
            1500,
            SimTime::ZERO,
        )
    }

    fn assoc(c: &mut Controller, client: NodeId, ap: NodeId, at: SimTime) -> Vec<ControllerAction> {
        let mut out = Vec::new();
        c.on_client_associated(client, ap, at, &mut out);
        out
    }

    fn msg(c: &mut Controller, m: BackhaulMsg, at: SimTime) -> Vec<ControllerAction> {
        let mut out = Vec::new();
        c.on_msg(m, at, &mut out);
        out
    }

    fn downlink(
        c: &mut Controller,
        client: NodeId,
        p: Packet,
        at: SimTime,
    ) -> Vec<ControllerAction> {
        let mut out = Vec::new();
        c.on_downlink(client, p, at, &mut out);
        out
    }

    fn poll(c: &mut Controller, at: SimTime) -> Vec<ControllerAction> {
        let mut out = Vec::new();
        c.poll(at, &mut out);
        out
    }

    #[test]
    fn association_replicates_and_starts() {
        let mut c = controller();
        let actions = assoc(&mut c, CLIENT, AP1, ms(0));
        let syncs = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    ControllerAction::Send {
                        msg: BackhaulMsg::AssocSync { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(syncs, 3);
        assert!(actions.iter().any(|a| matches!(
            a,
            ControllerAction::Send { ap, msg: BackhaulMsg::Start { .. } } if *ap == AP1
        )));
        assert_eq!(c.serving(CLIENT), Some(AP1));
    }

    #[test]
    fn downlink_fans_out_to_in_range_aps() {
        // One `Send` per AP that reported CSI, in ascending AP id whatever
        // order the reports arrived in.
        let cases = [
            (vec![(AP1, 15.0), (AP2, 12.0)], vec![AP1, AP2]),
            (
                vec![(AP3, 12.0), (AP2, 14.0), (AP1, 15.0)],
                vec![AP1, AP2, AP3],
            ),
        ];
        for (reports, expected) in cases {
            let mut c = controller();
            assoc(&mut c, CLIENT, AP1, ms(0));
            for (i, &(ap, esnr)) in reports.iter().enumerate() {
                let at = ms(100 + i as u64);
                msg(&mut c, csi(ap, esnr, at), at);
            }
            let mut f = PacketFactory::new();
            let actions = downlink(&mut c, CLIENT, pkt(&mut f, 0), ms(110));
            let targets: Vec<NodeId> = actions
                .iter()
                .filter_map(|a| match a {
                    ControllerAction::Send {
                        ap,
                        msg: BackhaulMsg::DownlinkData { .. },
                    } => Some(*ap),
                    _ => None,
                })
                .collect();
            assert_eq!(targets, expected, "reports {reports:?}");
        }
    }

    #[test]
    fn downlink_indices_increment_and_wrap() {
        let mut c = controller();
        assoc(&mut c, CLIENT, AP1, ms(0));
        msg(&mut c, csi(AP1, 15.0, ms(0)), ms(0));
        let mut f = PacketFactory::new();
        let idx_of = |acts: &[ControllerAction]| -> u16 {
            acts.iter()
                .find_map(|a| match a {
                    ControllerAction::Send {
                        msg: BackhaulMsg::DownlinkData { index, .. },
                        ..
                    } => Some(*index),
                    _ => None,
                })
                .expect("downlink fanned out")
        };
        let a = downlink(&mut c, CLIENT, pkt(&mut f, 0), ms(1));
        let b = downlink(&mut c, CLIENT, pkt(&mut f, 1), ms(2));
        assert_eq!(idx_of(&a), 0);
        assert_eq!(idx_of(&b), 1);
    }

    #[test]
    fn downlink_without_aps_is_dropped() {
        let mut c = controller();
        let mut f = PacketFactory::new();
        let actions = downlink(&mut c, CLIENT, pkt(&mut f, 0), ms(0));
        assert!(actions.is_empty());
        assert_eq!(c.stats.downlink_no_ap, 1);
    }

    #[test]
    fn better_ap_triggers_full_switch_protocol() {
        let mut c = controller();
        assoc(&mut c, CLIENT, AP1, ms(0));
        // AP2 becomes clearly better after the hysteresis window.
        let t = ms(100);
        msg(&mut c, csi(AP1, 8.0, t), t);
        let actions = msg(&mut c, csi(AP2, 16.0, t), t);
        let stop = actions.iter().find_map(|a| match a {
            ControllerAction::Send {
                ap,
                msg:
                    BackhaulMsg::Stop {
                        next_ap, switch_id, ..
                    },
            } => Some((*ap, *next_ap, *switch_id)),
            _ => None,
        });
        let (old, new, sid) = stop.expect("switch must start");
        assert_eq!((old, new), (AP1, AP2));
        assert_eq!(c.stats.switches_started, 1);
        // Ack completes it and re-announces the serving AP.
        let done = msg(
            &mut c,
            BackhaulMsg::SwitchAck {
                client: CLIENT,
                ap: AP2,
                switch_id: sid,
            },
            ms(117),
        );
        assert_eq!(c.serving(CLIENT), Some(AP2));
        assert_eq!(c.stats.switches_completed, 1);
        assert_eq!(done.len(), 3, "serving update to all APs");
        let d = c.stats.switch_durations.mean().unwrap();
        assert!((d - 0.017).abs() < 1e-9);
        // The completed switch's deadline entry is stale: no timeout left.
        assert_eq!(c.next_timeout(), None);
    }

    #[test]
    fn no_second_switch_while_outstanding() {
        let mut c = controller();
        assoc(&mut c, CLIENT, AP1, ms(0));
        let t = ms(100);
        msg(&mut c, csi(AP1, 8.0, t), t);
        let first = msg(&mut c, csi(AP2, 16.0, t), t);
        assert!(!first.is_empty());
        // Even better AP3 appears, but the AP1→AP2 switch is pending.
        let second = msg(&mut c, csi(AP3, 25.0, t), t);
        assert!(second.is_empty());
        assert_eq!(c.stats.switches_started, 1);
    }

    #[test]
    fn stop_retransmitted_on_timeout() {
        let mut c = controller();
        assoc(&mut c, CLIENT, AP1, ms(0));
        let t = ms(100);
        msg(&mut c, csi(AP1, 8.0, t), t);
        msg(&mut c, csi(AP2, 16.0, t), t);
        let deadline = c.next_timeout().expect("switch pending");
        assert_eq!(deadline, t + SimDuration::from_millis(30));
        assert!(poll(&mut c, ms(120)).is_empty(), "before timeout: nothing");
        let re = poll(&mut c, deadline);
        assert_eq!(re.len(), 1);
        assert!(matches!(
            re[0],
            ControllerAction::Send {
                msg: BackhaulMsg::Stop { .. },
                ..
            }
        ));
        assert_eq!(c.stats.stop_retransmits, 1);
        // The retransmit re-armed a fresh 30 ms deadline on the heap.
        assert_eq!(
            c.next_timeout(),
            Some(deadline + SimDuration::from_millis(30))
        );
    }

    #[test]
    fn uplink_dedup_forwards_once() {
        let mut c = controller();
        let mut f = PacketFactory::new();
        let p = f.udp(
            FlowId(0),
            Ipv4Addr::new(172, 16, 0, 100),
            Ipv4Addr::new(8, 8, 8, 8),
            0,
            1500,
            ms(0),
        );
        let first = msg(
            &mut c,
            BackhaulMsg::UplinkData { ap: AP1, packet: p },
            ms(1),
        );
        assert_eq!(first.len(), 1);
        // Two more APs heard the same packet.
        for ap in [AP2, AP3] {
            let dup = msg(&mut c, BackhaulMsg::UplinkData { ap, packet: p }, ms(1));
            assert!(dup.is_empty());
        }
        assert_eq!(c.stats.uplink_forwarded, 1);
        assert_eq!(c.stats.uplink_duplicates, 2);
    }

    #[test]
    fn clients_have_independent_switch_state() {
        let mut c = controller();
        let c2 = NodeId(101);
        assoc(&mut c, CLIENT, AP1, ms(0));
        assoc(&mut c, c2, AP2, ms(0));
        let t = ms(100);
        // Client 1 starts a switch; client 2 must still be able to.
        msg(&mut c, csi(AP1, 8.0, t), t);
        let first = msg(&mut c, csi(AP2, 16.0, t), t);
        assert!(!first.is_empty(), "client 1 switch starts");
        let mk = |ap, esnr| BackhaulMsg::CsiReport {
            client: c2,
            ap,
            esnr_db: esnr,
            at: t,
        };
        msg(&mut c, mk(AP2, 8.0), t);
        let second = msg(&mut c, mk(AP3, 16.0), t);
        assert!(
            second.iter().any(|a| matches!(
                a,
                ControllerAction::Send { msg: BackhaulMsg::Stop { client, .. }, .. }
                    if *client == c2
            )),
            "client 2's switch must not be blocked by client 1's"
        );
        assert_eq!(c.stats.switches_started, 2);
    }

    #[test]
    fn per_client_indices_are_independent() {
        let mut c = controller();
        let c2 = NodeId(101);
        assoc(&mut c, CLIENT, AP1, ms(0));
        assoc(&mut c, c2, AP1, ms(0));
        msg(&mut c, csi(AP1, 15.0, ms(1)), ms(1));
        let mut f = PacketFactory::new();
        // Interleave downlink packets; each client's index counts alone.
        let idx_of = |acts: &[ControllerAction]| -> u16 {
            acts.iter()
                .find_map(|a| match a {
                    ControllerAction::Send {
                        msg: BackhaulMsg::DownlinkData { index, .. },
                        ..
                    } => Some(*index),
                    _ => None,
                })
                .expect("fanned out")
        };
        let a0 = downlink(&mut c, CLIENT, pkt(&mut f, 0), ms(2));
        let b0 = downlink(&mut c, c2, pkt(&mut f, 1), ms(2));
        let a1 = downlink(&mut c, CLIENT, pkt(&mut f, 2), ms(2));
        assert_eq!(idx_of(&a0), 0);
        assert_eq!(idx_of(&b0), 0, "second client starts at its own 0");
        assert_eq!(idx_of(&a1), 1);
    }

    #[test]
    fn serving_ap_kept_in_fanout_during_csi_lull() {
        let mut c = controller();
        assoc(&mut c, CLIENT, AP1, ms(0));
        // No CSI at all: fan-out must still reach the serving AP.
        let mut f = PacketFactory::new();
        let actions = downlink(&mut c, CLIENT, pkt(&mut f, 0), ms(50));
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            ControllerAction::Send { ap, .. } if ap == AP1
        ));
    }

    #[test]
    fn action_buf_reuses_storage() {
        let mut c = controller();
        let mut buf = ActionBuf::new();
        c.on_client_associated(CLIENT, AP1, ms(0), &mut buf);
        assert_eq!(buf.len(), 4);
        let cap = buf.capacity();
        buf.clear();
        assert!(buf.is_empty());
        c.on_client_associated(NodeId(101), AP2, ms(1), &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), cap, "no reallocation on reuse");
    }
}
