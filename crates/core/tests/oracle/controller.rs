//! The seed controller, exactly as it shipped before the dataplane
//! rewrite (per-call `Vec<ControllerAction>` returns, `HashMap` client
//! state, `next_timeout` by full iteration, `poll` by sort-all-clients
//! scan). It is the behavioral contract: `prop_controller.rs` replays
//! randomized event interleavings through this oracle and the shipping
//! [`wgtt::Controller`] and asserts identical action sequences,
//! identical [`ControllerStats`], and identical `next_timeout()` after
//! every event.

use std::collections::HashMap;
use wgtt::controller::{ControllerAction, ControllerStats, FANOUT_GRACE};
use wgtt::dedup::DedupFilter;
use wgtt::selection::{ApLoads, ApSelector, Verdict};
use wgtt::switching::{SwitchEvent, SwitchProtocol};
use wgtt::{BackhaulMsg, WgttConfig};
use wgtt_mac::frame::NodeId;
use wgtt_mac::seq::SEQ_SPACE;
use wgtt_net::Packet;
use wgtt_sim::time::SimTime;

#[derive(Debug)]
struct ClientState {
    selector: ApSelector,
    switcher: SwitchProtocol,
    next_index: u16,
    serving: Option<NodeId>,
}

/// The WGTT controller (seed implementation).
pub struct Controller {
    cfg: WgttConfig,
    clients: HashMap<NodeId, ClientState>,
    all_aps: Vec<NodeId>,
    /// Uplink de-duplication, one filter per source address. The dedup
    /// key already namespaces by source (src ⧺ IP ident, §3.2.2), so
    /// splitting the filter changes no verdicts short of eviction
    /// pressure — and it makes every piece of controller state
    /// per-client, which is what lets a spatially sharded run keep a
    /// controller per shard without cross-shard coupling.
    dedup: HashMap<u32, DedupFilter>,
    /// Per-AP associated-client counts (the load-aware policy's input).
    loads: ApLoads,
    /// Run statistics.
    pub stats: ControllerStats,
}

impl Controller {
    /// A controller managing the given AP array.
    pub fn new(cfg: WgttConfig, aps: Vec<NodeId>) -> Self {
        Controller {
            dedup: HashMap::new(),
            cfg,
            clients: HashMap::new(),
            all_aps: aps,
            loads: ApLoads::new(),
            stats: ControllerStats::default(),
        }
    }

    fn client_mut(&mut self, client: NodeId) -> &mut ClientState {
        let cfg = self.cfg;
        self.clients.entry(client).or_insert_with(|| ClientState {
            selector: {
                let mut s = ApSelector::new(
                    cfg.selection_window,
                    cfg.switch_hysteresis,
                    cfg.switch_margin_db,
                );
                s.set_window_reduce(cfg.window_reduce);
                s.set_switch_policy(cfg.switch_policy);
                s
            },
            switcher: SwitchProtocol::new(),
            next_index: 0,
            serving: None,
        })
    }

    /// The AP currently serving `client`, if known.
    pub fn serving(&self, client: NodeId) -> Option<NodeId> {
        self.clients.get(&client).and_then(|c| c.serving)
    }

    /// A client completed 802.11 association through `via_ap`: install it
    /// as serving and replicate association state to every AP (§4.3).
    pub fn on_client_associated(
        &mut self,
        client: NodeId,
        via_ap: NodeId,
        now: SimTime,
    ) -> Vec<ControllerAction> {
        let st = self.client_mut(client);
        let prev = st.serving.replace(via_ap);
        st.selector.set_current(via_ap, now);
        let k = st.next_index;
        let load = self.loads.reassign(prev, via_ap);
        self.stats.max_ap_load = self.stats.max_ap_load.max(u64::from(load));
        let mut actions: Vec<ControllerAction> = self
            .all_aps
            .iter()
            .map(|&ap| ControllerAction::Send {
                ap,
                msg: BackhaulMsg::AssocSync { client, via_ap },
            })
            .collect();
        // Degenerate "switch": tell the first AP to serve from the current
        // index.
        actions.push(ControllerAction::Send {
            ap: via_ap,
            msg: BackhaulMsg::Start {
                client,
                k,
                switch_id: u64::MAX, // association, not a protocol attempt
            },
        });
        actions
    }

    /// A downlink packet for `client` arrived from the WAN: assign the
    /// next 12-bit index and replicate to every in-range AP (§3.1.2).
    pub fn on_downlink(
        &mut self,
        client: NodeId,
        packet: Packet,
        now: SimTime,
    ) -> Vec<ControllerAction> {
        let grace = FANOUT_GRACE;
        let st = self.client_mut(client);
        // Replicate to every AP heard within the grace window — wider
        // than the selection window W, so that an AP with sporadic CSI
        // still holds a gap-free cyclic ring when a switch lands on it.
        let mut fanout = Vec::new();
        st.selector.for_each_heard(now, grace, |ap| fanout.push(ap));
        // The serving AP still gets the packet during a short CSI lull
        // (TCP restarting after an idle period), but once no AP has heard
        // the client for the grace period it is out of coverage and
        // queueing more data would only burn airtime on a dark link.
        if st.selector.heard_within(now, grace) || now < SimTime::ZERO + grace {
            if let Some(s) = st.serving {
                if !fanout.contains(&s) {
                    fanout.push(s);
                }
            }
        }
        if fanout.is_empty() {
            self.stats.downlink_no_ap += 1;
            return Vec::new();
        }
        let index = st.next_index;
        st.next_index = (st.next_index + 1) % SEQ_SPACE;
        fanout
            .into_iter()
            .map(|ap| ControllerAction::Send {
                ap,
                msg: BackhaulMsg::DownlinkData {
                    client,
                    index,
                    packet,
                },
            })
            .collect()
    }

    /// Handle a message arriving from an AP.
    pub fn on_msg(&mut self, msg: BackhaulMsg, now: SimTime) -> Vec<ControllerAction> {
        match msg {
            BackhaulMsg::CsiReport {
                client,
                ap,
                esnr_db,
                at,
            } => self.on_csi(client, ap, at, esnr_db, now),
            BackhaulMsg::UplinkData { packet, .. } => {
                let src = (packet.dedup_key() >> 16) as u32;
                let cap = self.cfg.dedup_capacity;
                let filter = self
                    .dedup
                    .entry(src)
                    .or_insert_with(|| DedupFilter::new(cap));
                if filter.check_and_insert(packet.dedup_key()) {
                    self.stats.uplink_forwarded += 1;
                    vec![ControllerAction::ToWan { packet }]
                } else {
                    self.stats.uplink_duplicates += 1;
                    Vec::new()
                }
            }
            BackhaulMsg::SwitchAck {
                client,
                ap,
                switch_id,
            } => {
                let st = self.client_mut(client);
                match st.switcher.on_ack(switch_id, now) {
                    SwitchEvent::Completed { new_ap, elapsed } => {
                        debug_assert_eq!(new_ap, ap);
                        let prev = st.serving.replace(new_ap);
                        st.selector.set_current(new_ap, now);
                        let load = self.loads.reassign(prev, new_ap);
                        self.stats.max_ap_load = self.stats.max_ap_load.max(u64::from(load));
                        self.stats.switches_completed += 1;
                        self.stats.switch_durations.record(elapsed.as_secs_f64());
                        // Tell every AP who serves now (monitor-mode
                        // forwarding needs it, §3.2.1).
                        self.all_aps
                            .iter()
                            .map(|&a| ControllerAction::Send {
                                ap: a,
                                msg: BackhaulMsg::AssocSync {
                                    client,
                                    via_ap: new_ap,
                                },
                            })
                            .collect()
                    }
                    _ => Vec::new(),
                }
            }
            // Messages not addressed to the controller are ignored.
            _ => Vec::new(),
        }
    }

    /// Fold a CSI reading into `client`'s selector; unless a switch is
    /// outstanding or the client is not yet associated, re-run the
    /// selection rule against the load table and start a switch if it
    /// says so.
    fn on_csi(
        &mut self,
        client: NodeId,
        ap: NodeId,
        at: SimTime,
        esnr_db: f64,
        now: SimTime,
    ) -> Vec<ControllerAction> {
        self.client_mut(client);
        let loads = &self.loads;
        let st = self.clients.get_mut(&client).expect("created above");
        let current = match st.serving {
            Some(current) if !st.switcher.busy() => current,
            _ => {
                st.selector.record(ap, at, esnr_db);
                return Vec::new();
            }
        };
        match st.selector.record_and_evaluate(ap, at, esnr_db, now, loads) {
            Verdict::SwitchTo(target) if target != current => {
                match st.switcher.begin(current, target, now) {
                    Some(SwitchEvent::SendStop {
                        old_ap,
                        new_ap,
                        switch_id,
                    }) => {
                        self.stats.switches_started += 1;
                        vec![ControllerAction::Send {
                            ap: old_ap,
                            msg: BackhaulMsg::Stop {
                                client,
                                next_ap: new_ap,
                                switch_id,
                            },
                        }]
                    }
                    _ => Vec::new(),
                }
            }
            _ => Vec::new(),
        }
    }

    /// Earliest pending protocol timeout across clients, for the event
    /// loop to schedule a poll.
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.clients
            .values()
            .filter_map(|c| c.switcher.timeout_at())
            .min()
    }

    /// Fire due timeouts: retransmit stops whose ack is overdue.
    pub fn poll(&mut self, now: SimTime) -> Vec<ControllerAction> {
        let mut actions = Vec::new();
        // Sorted snapshot: `HashMap` iteration order is process-random,
        // and with a fleet of clients two stops due at the same poll
        // would otherwise be emitted — and their backhaul events
        // scheduled — in a run-dependent order.
        let mut clients: Vec<NodeId> = self.clients.keys().copied().collect();
        clients.sort_unstable();
        for client in clients {
            let Some(st) = self.clients.get_mut(&client) else {
                continue;
            };
            if let SwitchEvent::SendStop {
                old_ap,
                new_ap,
                switch_id,
            } = st.switcher.poll(now)
            {
                self.stats.stop_retransmits += 1;
                actions.push(ControllerAction::Send {
                    ap: old_ap,
                    msg: BackhaulMsg::Stop {
                        client,
                        next_ap: new_ap,
                        switch_id,
                    },
                });
            }
        }
        actions
    }
}
