//! Model-equivalence property suite for `wgtt_mac::medium::Medium`.
//!
//! The model below is the naive medium: hash maps for positions and
//! channels, one flat list of transmissions kept for the whole grace
//! window, `retain` to retire, linear `find` by id, and every query a
//! scan of the full list. `Medium` keeps id-indexed tables, an id-ordered
//! deque and a short active list instead; on any call sequence an event
//! loop can produce (non-decreasing instants) the two must give the same
//! answer to every query.

use proptest::prelude::*;
use std::collections::HashMap;
use wgtt_mac::frame::NodeId;
use wgtt_mac::medium::{Medium, TxId, TxOutcome};
use wgtt_radio::Position;
use wgtt_sim::time::{SimDuration, SimTime};

const GRACE: SimDuration = SimDuration::from_millis(100);
/// Nodes 0–11 line the road 9 m apart; 12–15 are a second cluster
/// 300 m on, far beyond either range of anything in the first.
const NODES: u32 = 16;
/// Where a node starts.
fn home(n: u32) -> Position {
    if n < 12 {
        // 9 m apart: each node senses about four neighbours a side.
        Position::new(f64::from(n) * 9.0, f64::from(n % 3) * 4.0)
    } else {
        Position::new(300.0 + f64::from(n - 12) * 9.0, f64::from(n % 2) * 4.0)
    }
}

struct ModelTx {
    from: NodeId,
    start: SimTime,
    end: SimTime,
    overlapped_with: Vec<NodeId>,
}

/// The reference medium. Transmissions are keyed by their position in
/// the order they were begun, which is also the order `Medium` numbers
/// its `TxId`s in.
struct Model {
    positions: HashMap<NodeId, Position>,
    channels: HashMap<NodeId, u8>,
    cs_range_m: f64,
    interference_range_m: f64,
    ongoing: Vec<(usize, ModelTx)>,
    begun: usize,
}

impl Model {
    fn roadside() -> Self {
        Model {
            positions: HashMap::new(),
            channels: HashMap::new(),
            cs_range_m: 40.0,
            interference_range_m: 40.0,
            ongoing: Vec::new(),
            begun: 0,
        }
    }

    fn in_range(&self, a: NodeId, b: NodeId, range: f64) -> bool {
        let ch = |n| self.channels.get(&n).copied().unwrap_or(0);
        ch(a) == ch(b) && self.positions[&a].distance_to(self.positions[&b]) <= range
    }

    fn sensed(&self, node: NodeId, now: SimTime) -> impl Iterator<Item = &ModelTx> + '_ {
        self.ongoing.iter().map(|(_, o)| o).filter(move |o| {
            o.end > now && o.from != node && self.in_range(node, o.from, self.cs_range_m)
        })
    }

    fn is_busy_for(&self, node: NodeId, now: SimTime) -> bool {
        self.sensed(node, now).next().is_some()
    }

    fn sensed_busy(&self, node: NodeId, now: SimTime, lag: SimDuration) -> bool {
        self.sensed(node, now).any(|o| o.start + lag <= now)
    }

    fn busy_until_for(&self, node: NodeId, now: SimTime) -> SimTime {
        self.sensed(node, now).map(|o| o.end).max().unwrap_or(now)
    }

    fn own_tx_until(&self, node: NodeId, now: SimTime) -> SimTime {
        self.ongoing
            .iter()
            .filter(|(_, o)| o.end > now && o.from == node)
            .map(|(_, o)| o.end)
            .max()
            .unwrap_or(now)
    }

    fn begin_tx(&mut self, from: NodeId, now: SimTime, dur: SimDuration) -> usize {
        self.ongoing.retain(|(_, o)| o.end + GRACE > now);
        let mut entry = ModelTx {
            from,
            start: now,
            end: now + dur,
            overlapped_with: Vec::new(),
        };
        for (_, other) in &mut self.ongoing {
            if other.end > now {
                other.overlapped_with.push(from);
                entry.overlapped_with.push(other.from);
            }
        }
        let k = self.begun;
        self.begun += 1;
        self.ongoing.push((k, entry));
        k
    }

    fn find(&self, k: usize) -> Option<&ModelTx> {
        self.ongoing.iter().find(|(i, _)| *i == k).map(|(_, o)| o)
    }

    /// `None` for a retired transmission (where `Medium` panics).
    fn interferers_for(&self, k: usize, rx: NodeId) -> Option<Vec<NodeId>> {
        self.find(k).map(|o| {
            o.overlapped_with
                .iter()
                .copied()
                .filter(|&n| n != rx && self.in_range(n, rx, self.interference_range_m))
                .collect()
        })
    }

    fn active_count(&self, now: SimTime) -> usize {
        self.ongoing
            .iter()
            .filter(|(_, o)| o.start <= now && o.end > now)
            .count()
    }
}

proptest! {
    #[test]
    fn random_call_sequences_match_the_naive_medium(
        ops in proptest::collection::vec((0u8..13, 0u32..NODES, 0u64..4000, 0u64..600), 1..300)
    ) {
        let mut medium = Medium::roadside();
        let mut model = Model::roadside();
        for n in 0..NODES {
            medium.set_position(NodeId(n), home(n));
            model.positions.insert(NodeId(n), home(n));
        }
        let mut now = SimTime::ZERO;
        let mut txs: Vec<(TxId, usize)> = Vec::new();
        for (i, &(op, n, a, b)) in ops.iter().enumerate() {
            let node = NodeId(n);
            // Mostly microsecond steps, now and then a jump that lets
            // whole grace windows retire.
            now += SimDuration::from_micros(if a % 29 == 0 { a * 40 } else { a % 400 });
            match op {
                0 => {
                    let pos = Position::new(a as f64 / 40.0, b as f64 / 60.0);
                    medium.set_position(node, pos);
                    model.positions.insert(node, pos);
                }
                1 => {
                    let ch = (b % 2) as u8;
                    medium.set_channel(node, ch);
                    model.channels.insert(node, ch);
                }
                2..=5 => {
                    let dur = SimDuration::from_micros(20 + b * 5);
                    txs.push((medium.begin_tx(node, now, dur), model.begin_tx(node, now, dur)));
                }
                6 => prop_assert_eq!(
                    medium.is_busy_for(node, now), model.is_busy_for(node, now), "op {}", i
                ),
                7 => {
                    let lag = SimDuration::from_micros(b % 8);
                    prop_assert_eq!(
                        medium.sensed_busy(node, now, lag),
                        model.sensed_busy(node, now, lag),
                        "op {}", i
                    );
                }
                8 => prop_assert_eq!(
                    medium.busy_until_for(node, now), model.busy_until_for(node, now), "op {}", i
                ),
                9 => prop_assert_eq!(
                    medium.own_tx_until(node, now), model.own_tx_until(node, now), "op {}", i
                ),
                10 => prop_assert_eq!(
                    medium.active_count(now), model.active_count(now), "op {}", i
                ),
                12 => {
                    // Move `node`'s neighbour to exactly the range along
                    // the road from it (both ranges are 40 m): on the
                    // road axis (in range, distance exactly 40), a hair
                    // off it (the distance still rounds to 40) or
                    // diagonally (out of range).
                    let other = NodeId((n + 1) % NODES);
                    let at = model.positions[&node];
                    let dx = if a % 2 == 0 { 40.0 } else { -40.0 };
                    let dy = [0.0, 1e-9, 0.25, 3.0][(b % 4) as usize];
                    let pos = Position::new(at.x + dx, at.y + dy);
                    medium.set_position(other, pos);
                    model.positions.insert(other, pos);
                }
                _ => {
                    // Any transmission ever begun, retired ones included.
                    if txs.is_empty() {
                        continue;
                    }
                    let (id, k) = txs[b as usize % txs.len()];
                    let got: Vec<NodeId> = medium.interferers_for(id, node).collect();
                    match model.interferers_for(k, node) {
                        Some(want) => {
                            let outcome = if want.is_empty() {
                                TxOutcome::Clean
                            } else {
                                TxOutcome::Collided
                            };
                            prop_assert_eq!(medium.outcome_for(id, node), outcome, "op {}", i);
                            prop_assert_eq!(got, want, "op {}", i);
                            let overlappers = &model.find(k).expect("present").overlapped_with;
                            prop_assert_eq!(medium.overlappers(id), overlappers.as_slice());
                            prop_assert_eq!(medium.overlapped(id), !overlappers.is_empty());
                        }
                        None => {
                            prop_assert!(got.is_empty(), "retired tx answered at op {}", i);
                            prop_assert!(medium.overlappers(id).is_empty());
                            prop_assert!(!medium.overlapped(id));
                        }
                    }
                }
            }
        }
    }
}
