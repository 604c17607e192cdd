//! Suite for `wgtt_mac::downlink::Downlink`, the scheduler both AP kinds
//! run, over a feed that can do what either kind's does: release fresh
//! MPDUs and retry failures (the 802.11r AP's FIFO, and a serving WGTT
//! AP's cyclic queue), or — once stopped — release nothing and drop
//! failures (a WGTT AP after `stop`).
//!
//! * the round-robin pick is `ready[cursor % ready.len()]` over the
//!   id-sorted ready clients, the cursor advancing once per pick: a client
//!   mid-window is skipped without the cursor noticing;
//! * a stopped client drains what its sender holds exactly once, `dropped`
//!   names exactly what each outcome left unacknowledged, and its fresh
//!   queue is never touched again;
//! * a client that is not stopped gets the failed window again, in order.

use proptest::prelude::*;
use std::collections::VecDeque;
use wgtt_mac::downlink::{Downlink, Feed, TxSide};
use wgtt_mac::frame::{Mpdu, NodeId, PacketRef};
use wgtt_mac::sender::Unacked;
use wgtt_mac::seq::seq_sub;
use wgtt_sim::rng::RngStream;

#[derive(Debug, Default)]
struct Gate {
    fresh: VecDeque<Mpdu>,
    offered: u32,
    stopped: bool,
}

impl Feed for Gate {
    fn pop(&mut self) -> Option<Mpdu> {
        if self.stopped {
            return None;
        }
        self.fresh.pop_front()
    }

    fn has_fresh(&self) -> bool {
        !self.stopped && !self.fresh.is_empty()
    }

    fn unacked(&self) -> Unacked {
        if self.stopped {
            Unacked::Drop
        } else {
            Unacked::Retry
        }
    }
}

const STAGE_CAP: usize = 16;

fn downlink(seed: u64) -> Downlink<Gate> {
    Downlink::new(RngStream::root(seed), "rate", STAGE_CAP)
}

/// Queue `n` fresh MPDUs for `client`, numbered on from its last.
fn offer(dl: &mut Downlink<Gate>, client: NodeId, n: u16) {
    let feed = &mut dl.client_mut(client).feed;
    for _ in 0..n {
        let id = u64::from(client.0) << 32 | u64::from(feed.offered);
        feed.fresh
            .push_back(Mpdu::fresh((feed.offered % 4096) as u16, id, 1500));
        feed.offered += 1;
    }
}

fn ids(refs: &[PacketRef]) -> Vec<u64> {
    refs.iter().map(|p| p.id).collect()
}

proptest! {
    #[test]
    fn round_robin_is_the_cursor_over_the_sorted_ready_clients(
        seed in any::<u64>(),
        n_clients in 3u32..7,
        ops in proptest::collection::vec((0u8..8, 0u32..7, 1u16..40), 1..200),
    ) {
        let mut dl = downlink(seed);
        let clients: Vec<NodeId> = (0..n_clients).map(|i| NodeId(100 + i)).collect();
        let mut cursor = 0usize;
        let mut in_flight: Vec<(NodeId, u16)> = Vec::new();
        for (kind, who, n) in ops {
            let client = clients[(who % n_clients) as usize];
            match kind {
                0..=1 => offer(&mut dl, client, n),
                2..=5 => {
                    let ready = dl.ready_clients();
                    prop_assert!(ready.windows(2).all(|w| w[0] < w[1]), "sorted: {ready:?}");
                    for &c in &clients {
                        let st = dl.client(c);
                        let want = st.is_some_and(|st| {
                            !st.sender.has_in_flight()
                                && (st.sender.has_backlog() || !st.feed.fresh.is_empty())
                        });
                        prop_assert_eq!(ready.contains(&c), want, "{:?}", c);
                    }
                    prop_assert_eq!(dl.has_work(), !ready.is_empty());
                    let Some((to, mpdus, _)) = dl.next_ampdu() else {
                        prop_assert!(ready.is_empty());
                        continue;
                    };
                    prop_assert_eq!(to, ready[cursor % ready.len()]);
                    cursor += 1;
                    prop_assert!(dl.has_in_flight(to) && !dl.ready_clients().contains(&to));
                    in_flight.push((to, mpdus[0].seq));
                }
                // Settle somebody's window: all of it, or none of it.
                6 if !in_flight.is_empty() => {
                    let (c, start) = in_flight.swap_remove(who as usize % in_flight.len());
                    dl.on_block_ack(c, start, u64::MAX);
                    prop_assert!(!dl.has_in_flight(c));
                }
                7 if !in_flight.is_empty() => {
                    let (c, _) = in_flight.swap_remove(who as usize % in_flight.len());
                    let before = dl.ba_timeouts;
                    dl.on_ba_timeout(c);
                    prop_assert_eq!(dl.ba_timeouts, before + 1);
                    dl.on_ba_timeout(c);
                    prop_assert_eq!(dl.ba_timeouts, before + 1, "nothing was in flight");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn a_live_client_retries_in_order_and_a_stopped_one_drains_once(
        seed in any::<u64>(),
        n in 1u16..120,
        live in proptest::collection::vec(any::<u64>(), 0..7),
        drain in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let client = NodeId(100);
        let mut dl = downlink(seed);
        offer(&mut dl, client, n);
        // Live: what an outcome leaves out leads the aggregates that
        // follow, in the order it failed and one retry older; six
        // failures stay inside the retry budget, so nothing is dropped.
        let mut retrying: VecDeque<(u16, u8)> = VecDeque::new();
        for bits in live {
            let Some((mpdus, _)) = dl.build(client) else { break };
            prop_assert!(dl.client(client).unwrap().sender.staged_len() <= STAGE_CAP);
            for m in &mpdus {
                let want = retrying.pop_front().unwrap_or((m.seq, 0));
                prop_assert_eq!((m.seq, m.retries), want);
            }
            let mut fb = if bits & 1 == 0 {
                dl.on_ba_timeout(client)
            } else {
                dl.on_block_ack(client, mpdus[0].seq, bits)
            };
            if fb.duplicate {
                // A copy of the last pair applied: the window stands.
                fb = dl.on_ba_timeout(client);
            }
            prop_assert!(fb.dropped.is_empty());
            let delivered = ids(&fb.delivered);
            let lost = mpdus.iter().filter(|m| !delivered.contains(&m.packet.id));
            retrying.extend(lost.map(|m| (m.seq, m.retries + 1)));
        }
        // `stop`: what the sender holds goes out once more, each MPDU
        // once, `dropped` names what that one attempt lost, and the fresh
        // queue stays as it is.
        let st = dl.client_mut(client);
        st.feed.stopped = true;
        let held = st.sender.backlog();
        let fresh = st.feed.fresh.len();
        let mut sent: Vec<u64> = Vec::new();
        while let Some((mpdus, _)) = dl.build(client) {
            prop_assert!(mpdus.iter().all(|m| !sent.contains(&m.packet.id)), "sent twice");
            sent.extend(mpdus.iter().map(|m| m.packet.id));
            let (start, bits) = (mpdus[0].seq, drain[sent.len() % drain.len()]);
            let timeout = bits & 3 == 0;
            let mut fb = if timeout {
                dl.on_ba_timeout(client)
            } else {
                dl.on_block_ack(client, start, bits)
            };
            let mut want: Vec<u64> = mpdus
                .iter()
                .filter(|m| timeout || fb.duplicate || (bits >> seq_sub(m.seq, start)) & 1 == 0)
                .map(|m| m.packet.id)
                .collect();
            if fb.duplicate {
                fb = dl.on_ba_timeout(client);
            }
            let mut got = ids(&fb.dropped);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
            prop_assert_eq!(fb.delivered.len() + fb.dropped.len(), mpdus.len());
        }
        prop_assert_eq!(sent.len(), held, "everything held went out");
        prop_assert!(!dl.has_work() && !dl.has_in_flight(client));
        prop_assert_eq!(dl.client(client).unwrap().feed.fresh.len(), fresh);
    }
}
