//! The shared single-channel CSMA/CA medium.
//!
//! Every testbed AP runs on channel 11 (paper §4), so all eight APs and
//! every client contend for one channel — spatial reuse comes only from
//! physical separation. This module models that with positions: a node
//! defers to transmissions whose *sender* is within carrier-sense range,
//! and a reception is corrupted when an overlapping transmission's sender
//! is within interference range of the *receiver* (who also isn't the
//! intended sender). This is what separates the paper's multi-client cases
//! (Fig. 20): parallel cars contend constantly, opposite-direction cars
//! only while they pass.
//!
//! The medium is a passive state machine: callers ask when they could
//! start ([`Medium::access_time`]), begin transmissions at the granted
//! instant, and collect [`TxOutcome`]s per receiver when they end. The
//! event loop owns all scheduling.

use crate::airtime::{contention_window, DIFS_US, SLOT_US};
use crate::frame::NodeId;
use std::collections::VecDeque;
use wgtt_radio::Position;
use wgtt_sim::rng::Xoshiro256;
use wgtt_sim::time::{SimDuration, SimTime};

/// How long an ended transmission stays queryable by id. The grace
/// period keeps just-ended entries answerable even when another node's
/// `begin_tx` lands between a transmission's end instant and the event
/// that collects its outcome.
const GRACE: SimDuration = SimDuration::from_millis(100);

/// Handle to an in-progress transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(u64);

/// Result of a transmission as seen by one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// No overlapping interferer near the receiver: PHY error model alone
    /// decides delivery.
    Clean,
    /// An overlapping transmission corrupted reception.
    Collided,
}

#[derive(Debug)]
struct Ongoing {
    end: SimTime,
    /// Senders of transmissions that overlapped this one in time.
    overlapped_with: Vec<NodeId>,
}

/// A transmission that had not ended at the latest `begin_tx`: what a
/// busy query reads, without a visit to its `recent` entry.
#[derive(Debug, Clone, Copy)]
struct Air {
    id: u64,
    from: NodeId,
    start: SimTime,
    end: SimTime,
}

/// What the medium knows of one node.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// `None` until the node is placed.
    pos: Option<Position>,
    /// Wireless channel (default 0). Nodes on different channels
    /// neither sense, interfere with, nor receive each other — the §7
    /// multi-channel discussion of the paper.
    channel: u8,
    /// Latest end of any transmission the node has begun. Every
    /// transmission that had not ended at the latest `begin_tx` is on
    /// `on_air`, so for a query at or after it this is what a walk of
    /// `on_air` for the node's own entries would find.
    own_until: SimTime,
}

/// Single-channel medium shared by all nodes of a scenario.
///
/// Callers present non-decreasing instants, as an event loop does: a
/// query earlier than the latest [`Medium::begin_tx`] sees only what
/// was still on the air at that `begin_tx`.
#[derive(Debug)]
pub struct Medium {
    /// Indexed by node id (scenario ids are small and dense).
    nodes: Vec<Node>,
    /// Range within which a node defers to another's transmission, metres.
    pub cs_range_m: f64,
    /// Range within which an overlapping sender corrupts a reception,
    /// metres.
    pub interference_range_m: f64,
    /// Every transmission still inside its grace period, in id order:
    /// entry `k` is transmission `first_id + k`, so lookup by id is an
    /// offset and retiring pops the front.
    recent: VecDeque<Ongoing>,
    first_id: u64,
    /// The `recent` entries that had not ended at the latest `begin_tx`,
    /// in id order — the only ones a busy or overlap query has to look
    /// at. A handful, where `recent` holds the whole grace window.
    on_air: Vec<Air>,
    /// Instant of the latest `begin_tx`: an entry is retired, for lookups
    /// by id too, once its grace period ends at or before this.
    retired_at: SimTime,
    /// Emptied `overlapped_with` lists of retired entries, for
    /// `begin_tx` to reuse: a steady state allocates none.
    spare_lists: Vec<Vec<NodeId>>,
}

impl Medium {
    /// A medium with the given carrier-sense and interference ranges.
    pub fn new(cs_range_m: f64, interference_range_m: f64) -> Self {
        Medium {
            nodes: Vec::new(),
            cs_range_m,
            interference_range_m,
            recent: VecDeque::new(),
            first_id: 0,
            on_air: Vec::new(),
            retired_at: SimTime::ZERO,
            spare_lists: Vec::new(),
        }
    }

    /// Defaults sized for the Fig. 9 roadside testbed (≈55 m of road):
    /// 40 m carrier sense, 40 m interference.
    pub fn roadside() -> Self {
        Medium::new(40.0, 40.0)
    }

    /// What the medium knows of `node` (the default if nothing yet).
    fn node(&self, node: NodeId) -> Node {
        self.nodes.get(node.0 as usize).copied().unwrap_or_default()
    }

    /// `node`'s entry, made on first use.
    fn node_mut(&mut self, node: NodeId) -> &mut Node {
        let i = node.0 as usize;
        if i >= self.nodes.len() {
            self.nodes.resize(i + 1, Node::default());
        }
        &mut self.nodes[i]
    }

    /// Update a node's position (mobility ticks call this).
    pub fn set_position(&mut self, node: NodeId, pos: Position) {
        self.node_mut(node).pos = Some(pos);
    }

    /// Tune a node to a channel (default 0; single-channel deployments
    /// never need to call this).
    pub fn set_channel(&mut self, node: NodeId, channel: u8) {
        self.node_mut(node).channel = channel;
    }

    /// The channel a node is tuned to.
    pub fn channel_of(&self, node: NodeId) -> u8 {
        self.node(node).channel
    }

    /// Whether two nodes share a channel (can hear each other at all).
    pub fn same_channel(&self, a: NodeId, b: NodeId) -> bool {
        self.channel_of(a) == self.channel_of(b)
    }

    /// A node's current position. Panics on unknown nodes — registering
    /// positions before use is a scenario invariant.
    pub fn position(&self, node: NodeId) -> Position {
        placed(node, self.node(node))
    }

    /// Whether another node shares `node`'s channel and lies within
    /// `range` of it, with `node`'s channel and position looked up once.
    /// The along-road offset rejects most nodes before the distance: in
    /// binary64, `sqrt(fl(dx²) + fl(dy²)) ≥ sqrt(fl(dx²)) = |dx|`, so the
    /// shortcut never rejects a node the distance would accept.
    fn near(&self, node: NodeId, range: f64) -> impl Fn(NodeId) -> bool + '_ {
        let me = self.node(node);
        move |other| {
            let them = self.node(other);
            if them.channel != me.channel {
                return false;
            }
            let (here, there) = (placed(node, me), placed(other, them));
            (here.x - there.x).abs() <= range && here.distance_to(there) <= range
        }
    }

    /// Transmissions other than `node`'s own that it can sense at `now`.
    fn sensed_by(&self, node: NodeId, now: SimTime) -> impl Iterator<Item = &Air> + '_ {
        let near = self.near(node, self.cs_range_m);
        self.on_air
            .iter()
            .filter(move |o| o.end > now && o.from != node && near(o.from))
    }

    /// Transmission `id`, unless it was never begun or has been retired.
    fn lookup(&self, id: TxId) -> Option<&Ongoing> {
        let k = id.0.checked_sub(self.first_id)?;
        self.recent
            .get(usize::try_from(k).ok()?)
            .filter(|o| o.end + GRACE > self.retired_at)
    }

    /// Is the channel sensed busy by `node` at `now`?
    pub fn is_busy_for(&self, node: NodeId, now: SimTime) -> bool {
        self.sensed_by(node, now).next().is_some()
    }

    /// Like [`Medium::is_busy_for`], but a transmission that began less
    /// than `sense_lag` ago is *not yet* detectable — the preamble has not
    /// been decoded. This window is what makes simultaneous SIFS-spaced
    /// ACK responses from multiple APs able to collide (paper §5.3.2).
    pub fn sensed_busy(&self, node: NodeId, now: SimTime, sense_lag: SimDuration) -> bool {
        self.sensed_by(node, now)
            .any(|o| o.start + sense_lag <= now)
    }

    /// Latest end time of any transmission `node` can sense (or `now` if
    /// the channel is idle for it).
    pub fn busy_until_for(&self, node: NodeId, now: SimTime) -> SimTime {
        self.sensed_by(node, now)
            .map(|o| o.end)
            .max()
            .unwrap_or(now)
    }

    /// Latest end time of `node`'s *own* ongoing transmissions (a radio
    /// cannot start a second frame while one is still leaving it).
    pub fn own_tx_until(&self, node: NodeId, now: SimTime) -> SimTime {
        self.node(node).own_until.max(now)
    }

    /// When could `node`, starting to contend at `now` after `retries`
    /// consecutive failures, begin transmitting? DIFS plus a uniformly
    /// drawn backoff from the (exponentially grown) contention window,
    /// counted from when the channel goes idle for it — including the
    /// node's own ongoing transmission, which it must finish first.
    ///
    /// CSMA subtlety: the caller must re-check [`Medium::is_busy_for`] at
    /// the granted instant (someone may have started in between) and
    /// re-contend if it is busy.
    pub fn access_time(
        &self,
        node: NodeId,
        now: SimTime,
        retries: u8,
        rng: &mut Xoshiro256,
    ) -> SimTime {
        let idle_at = self
            .busy_until_for(node, now)
            .max(self.own_tx_until(node, now));
        let cw = contention_window(retries);
        let slots = rng.below(u64::from(cw) + 1);
        idle_at + SimDuration::from_micros(DIFS_US + slots * SLOT_US)
    }

    /// Begin a transmission from `from` at `now` lasting `dur`. Any
    /// temporal overlap with another ongoing transmission is recorded for
    /// both parties.
    pub fn begin_tx(&mut self, from: NodeId, now: SimTime, dur: SimDuration) -> TxId {
        // Entries still on the air overlap us; the ones that ended drop
        // off the active list (they stay queryable by id for `GRACE`).
        let (recent, first_id) = (&mut self.recent, self.first_id);
        let mut overlapped_with = self.spare_lists.pop().unwrap_or_default();
        self.on_air.retain(|other| {
            let live = other.end > now;
            if live {
                recent[(other.id - first_id) as usize]
                    .overlapped_with
                    .push(from);
                overlapped_with.push(other.from);
            }
            live
        });
        // Nothing left on the active list can be retired: it ends after
        // `now`.
        self.retired_at = now;
        while self.recent.front().is_some_and(|o| o.end + GRACE <= now) {
            let mut retired = self
                .recent
                .pop_front()
                .expect("front exists")
                .overlapped_with;
            retired.clear();
            self.spare_lists.push(retired);
            self.first_id += 1;
        }
        let id = self.first_id + self.recent.len() as u64;
        let end = now + dur;
        let own = &mut self.node_mut(from).own_until;
        *own = (*own).max(end);
        self.on_air.push(Air {
            id,
            from,
            start: now,
            end,
        });
        self.recent.push_back(Ongoing {
            end,
            overlapped_with,
        });
        TxId(id)
    }

    /// Outcome of transmission `id` at receiver `rx`. Call at (or after)
    /// the transmission's end. The transmission stays queryable until
    /// a `begin_tx` at least `GRACE` (100 ms) after its end retires it.
    pub fn outcome_for(&self, id: TxId, rx: NodeId) -> TxOutcome {
        if self.corrupters(id, rx).next().is_some() {
            TxOutcome::Collided
        } else {
            TxOutcome::Clean
        }
    }

    /// Senders whose transmissions overlapped `id` in time (for
    /// capture-effect decisions at a receiver).
    pub fn overlappers(&self, id: TxId) -> &[NodeId] {
        self.lookup(id).map_or(&[], |o| &o.overlapped_with)
    }

    /// Overlapping senders that can actually corrupt reception of `id`
    /// at `rx`: same channel and within interference range — the
    /// [`Medium::outcome_for`] corruption rule. A sender several
    /// cell-radii away overlaps in time but contributes nothing at the
    /// receiver, so it must not enter capture comparisons either.
    pub fn interferers_for(&self, id: TxId, rx: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let near = self.near(rx, self.interference_range_m);
        self.overlappers(id)
            .iter()
            .copied()
            .filter(move |&other| other != rx && near(other))
    }

    /// [`Medium::interferers_for`] of a transmission that must still be
    /// queryable — the walk a receiver's verdict takes: none means
    /// [`TxOutcome::Clean`], any means [`TxOutcome::Collided`].
    ///
    /// # Panics
    ///
    /// If `id` was never begun or has been retired.
    pub fn corrupters(&self, id: TxId, rx: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        assert!(
            self.lookup(id).is_some(),
            "a verdict asked of an unknown or retired transmission"
        );
        self.interferers_for(id, rx)
    }

    /// Whether transmission `id` overlapped any other transmission at all
    /// (collision accounting for Table 3, independent of receivers).
    pub fn overlapped(&self, id: TxId) -> bool {
        !self.overlappers(id).is_empty()
    }

    /// Number of transmissions currently on the air at `now`.
    pub fn active_count(&self, now: SimTime) -> usize {
        self.on_air
            .iter()
            .filter(|o| o.start <= now && o.end > now)
            .count()
    }
}

/// `node`'s position. Panics on unknown nodes — registering positions
/// before use is a scenario invariant.
fn placed(id: NodeId, node: Node) -> Position {
    node.pos
        .unwrap_or_else(|| panic!("node {id} has no position"))
}

#[cfg(test)]
mod tests {
    use super::*;

    use wgtt_sim::rng::RngStream;

    fn medium_with(nodes: &[(u32, f64, f64)]) -> Medium {
        let mut m = Medium::roadside();
        for &(id, x, y) in nodes {
            m.set_position(NodeId(id), Position::new(x, y));
        }
        m
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn idle_channel_is_not_busy() {
        let m = medium_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0)]);
        assert!(!m.is_busy_for(NodeId(2), ms(0)));
    }

    #[test]
    fn nearby_tx_is_sensed() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0)]);
        m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(2));
        assert!(m.is_busy_for(NodeId(2), ms(1)));
        assert!(!m.is_busy_for(NodeId(2), ms(3)));
        // The transmitter itself does not "sense" its own signal as busy.
        assert!(!m.is_busy_for(NodeId(1), ms(1)));
    }

    #[test]
    fn far_tx_is_hidden() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 100.0, 0.0)]);
        m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(2));
        assert!(!m.is_busy_for(NodeId(2), ms(1)), "beyond CS range");
    }

    #[test]
    fn overlap_corrupts_nearby_receiver() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0), (3, 6.0, 0.0)]);
        let a = m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(2));
        let _b = m.begin_tx(NodeId(2), ms(1), SimDuration::from_millis(2));
        // Node 3 is near both senders: reception of A is corrupted.
        assert_eq!(m.outcome_for(a, NodeId(3)), TxOutcome::Collided);
    }

    #[test]
    fn overlap_spares_distant_receiver() {
        // Spatial reuse: the interferer is far from this receiver.
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 1.0, 0.0)]);
        let a = m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(2));
        let _b = m.begin_tx(NodeId(2), ms(1), SimDuration::from_millis(2));
        assert_eq!(m.outcome_for(a, NodeId(3)), TxOutcome::Clean);
    }

    #[test]
    fn sequential_txs_do_not_collide() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0), (3, 2.0, 0.0)]);
        let a = m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(1));
        // Starts exactly when A ends: no overlap.
        let b = m.begin_tx(NodeId(2), ms(1), SimDuration::from_millis(1));
        assert_eq!(m.outcome_for(a, NodeId(3)), TxOutcome::Clean);
        assert_eq!(m.outcome_for(b, NodeId(3)), TxOutcome::Clean);
        assert!(!m.overlapped(a));
        assert!(!m.overlapped(b));
    }

    #[test]
    fn access_time_waits_for_idle() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0)]);
        m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(3));
        let mut rng = RngStream::root(1).derive("t").rng();
        let t = m.access_time(NodeId(2), ms(1), 0, &mut rng);
        assert!(t >= ms(3) + SimDuration::from_micros(DIFS_US));
        // And never later than DIFS + CWmin slots.
        assert!(t <= ms(3) + SimDuration::from_micros(DIFS_US + 15 * SLOT_US));
    }

    #[test]
    fn access_time_on_idle_channel_is_prompt() {
        let m = medium_with(&[(1, 0.0, 0.0)]);
        let mut rng = RngStream::root(2).derive("t").rng();
        let t = m.access_time(NodeId(1), ms(5), 0, &mut rng);
        let delay = (t - ms(5)).as_micros_f64();
        assert!((DIFS_US as f64..=(DIFS_US + 15 * SLOT_US) as f64).contains(&delay));
    }

    #[test]
    fn backoff_window_grows_with_retries() {
        let m = medium_with(&[(1, 0.0, 0.0)]);
        // Max possible delay with retries=4 must exceed retries=0's max.
        let max_delay = |retries: u8, seed: u64| -> f64 {
            let mut worst: f64 = 0.0;
            let mut rng = RngStream::root(seed).derive("b").rng();
            for _ in 0..200 {
                let t = m.access_time(NodeId(1), ms(0), retries, &mut rng);
                worst = worst.max(t.saturating_since(ms(0)).as_micros_f64());
            }
            worst
        };
        assert!(max_delay(4, 3) > max_delay(0, 3) * 2.0);
    }

    #[test]
    fn channels_isolate_nodes() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0), (3, 6.0, 0.0)]);
        m.set_channel(NodeId(2), 1);
        let a = m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(2));
        // Node 2 is on another channel: senses nothing, interferes with
        // nothing, and its own overlapping transmission is invisible.
        assert!(!m.is_busy_for(NodeId(2), ms(1)));
        let _b = m.begin_tx(NodeId(2), ms(1), SimDuration::from_millis(2));
        assert_eq!(m.outcome_for(a, NodeId(3)), TxOutcome::Clean);
        assert!(m.same_channel(NodeId(1), NodeId(3)));
        assert!(!m.same_channel(NodeId(1), NodeId(2)));
    }

    #[test]
    fn range_edge_along_the_road_is_inclusive() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 40.0, 0.0), (3, -40.0, 3.0)]);
        m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(2));
        assert!(
            m.is_busy_for(NodeId(2), ms(1)),
            "exactly 40 m along the road"
        );
        assert!(
            !m.is_busy_for(NodeId(3), ms(1)),
            "40 m along and 3 m across"
        );
    }

    #[test]
    fn retired_lists_come_back_empty_and_own_time_lapses() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0), (3, 10.0, 0.0)]);
        let a = m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(2));
        m.begin_tx(NodeId(2), ms(1), SimDuration::from_millis(2));
        assert_eq!(m.overlappers(a), &[NodeId(2)]);
        assert_eq!(m.own_tx_until(NodeId(1), ms(1)), ms(2));
        // 200 ms on, both have retired, and the next ones take their lists.
        let c = m.begin_tx(NodeId(3), ms(200), SimDuration::from_millis(2));
        let d = m.begin_tx(NodeId(1), ms(201), SimDuration::from_millis(2));
        assert_eq!(m.overlappers(c), &[NodeId(1)]);
        assert_eq!(m.overlappers(d), &[NodeId(3)]);
        assert_eq!(m.own_tx_until(NodeId(2), ms(201)), ms(201));
        assert_eq!(m.own_tx_until(NodeId(1), ms(202)), ms(203));
    }

    #[test]
    fn active_count_tracks_air() {
        let mut m = medium_with(&[(1, 0.0, 0.0), (2, 5.0, 0.0)]);
        m.begin_tx(NodeId(1), ms(0), SimDuration::from_millis(2));
        m.begin_tx(NodeId(2), ms(1), SimDuration::from_millis(2));
        assert_eq!(m.active_count(ms(1)), 2);
        assert_eq!(m.active_count(ms(2)), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wgtt_sim::rng::RngStream;

    proptest! {
        #[test]
        fn access_time_always_after_difs(
            now_ms in 0u64..1000, retries in 0u8..8, seed in 0u64..50
        ) {
            let mut m = Medium::roadside();
            m.set_position(NodeId(1), Position::new(0.0, 0.0));
            let mut rng = RngStream::root(seed).derive("p").rng();
            let now = SimTime::from_millis(now_ms);
            let t = m.access_time(NodeId(1), now, retries, &mut rng);
            prop_assert!(t >= now + SimDuration::from_micros(DIFS_US));
            // Bounded by DIFS + CWmax slots.
            prop_assert!(t <= now + SimDuration::from_micros(DIFS_US + 1023 * SLOT_US));
        }

        #[test]
        fn overlap_is_symmetric(starts in proptest::collection::vec(0u64..5_000, 2..6)) {
            // Any pair of transmissions either both record the overlap or
            // neither does.
            let mut m = Medium::roadside();
            for i in 0..starts.len() {
                m.set_position(NodeId(i as u32), Position::new(i as f64, 0.0));
            }
            let mut sorted = starts.clone();
            sorted.sort_unstable();
            let ids: Vec<TxId> = sorted
                .iter()
                .enumerate()
                .map(|(i, &st)| {
                    m.begin_tx(
                        NodeId(i as u32),
                        SimTime::from_micros(st),
                        SimDuration::from_micros(1_000),
                    )
                })
                .collect();
            for (i, &a) in ids.iter().enumerate() {
                for (j, &b) in ids.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let a_lists_b = m.overlappers(a).contains(&NodeId(j as u32));
                    let b_lists_a = m.overlappers(b).contains(&NodeId(i as u32));
                    prop_assert_eq!(a_lists_b, b_lists_a);
                }
            }
        }
    }
}
