//! End-to-end Block ACK forwarding (paper §3.2.1, Fig. 8): a serving
//! AP's radio misses the client's Block ACK, two neighbouring APs
//! overhear it on their monitor interfaces, and the forwarded copies
//! arrive over the backhaul —
//! [`wgtt::ap::ApAgent::on_overheard_block_ack`] decides the forward,
//! [`wgtt::ap::ApAgent::on_backhaul`] delivers it, and the
//! serving AP's `BaOriginator` merges it. The overheard BA must suppress
//! the full-window retransmission a BA timeout would otherwise trigger,
//! and the second forwarded copy must be recognized as a duplicate.

use wgtt::ap::ApAgent;
use wgtt::messages::{BackhaulDest, BackhaulMsg};
use wgtt_mac::blockack::BaRecipient;
use wgtt_mac::downlink::TxSide;
use wgtt_mac::frame::NodeId;
use wgtt_net::packet::{FlowId, PacketFactory};
use wgtt_net::wire::Ipv4Addr;
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::SimTime;

const SERVING: NodeId = NodeId(1);
const NEIGHBOUR_A: NodeId = NodeId(2);
const NEIGHBOUR_B: NodeId = NodeId(3);
const CLIENT: NodeId = NodeId(100);

fn agent(id: NodeId) -> ApAgent {
    ApAgent::new(id, RngStream::root(11).derive("ap"))
}

/// Build the three-AP deployment: `SERVING` serves the client with a
/// queued downlink backlog; both neighbours know who serves via
/// `AssocSync` (the controller's replication path).
fn deployment() -> (ApAgent, ApAgent, ApAgent) {
    let mut serving = agent(SERVING);
    let mut factory = PacketFactory::new();
    for i in 0..32u16 {
        serving.on_backhaul(BackhaulMsg::DownlinkData {
            client: CLIENT,
            index: i,
            packet: factory.udp(
                FlowId(0),
                Ipv4Addr::new(8, 8, 8, 8),
                Ipv4Addr::new(172, 16, 0, 100),
                i as u32,
                1500,
                SimTime::ZERO,
            ),
        });
    }
    serving.on_backhaul(BackhaulMsg::Start {
        client: CLIENT,
        k: 0,
        switch_id: 0,
    });
    let mut neighbour_a = agent(NEIGHBOUR_A);
    let mut neighbour_b = agent(NEIGHBOUR_B);
    for n in [&mut neighbour_a, &mut neighbour_b] {
        n.on_backhaul(BackhaulMsg::AssocSync {
            client: CLIENT,
            via_ap: SERVING,
        });
    }
    (serving, neighbour_a, neighbour_b)
}

#[test]
fn overheard_ba_suppresses_retransmission_and_duplicate_forward_is_dropped() {
    let (mut serving, mut neighbour_a, mut neighbour_b) = deployment();

    // The serving AP puts an A-MPDU on the air.
    let (mpdus, _mcs) = serving.tx.build(CLIENT).expect("backlog queued");
    assert!(serving.tx.has_in_flight(CLIENT));

    // The client receives every MPDU and answers with a Block ACK —
    // which the serving AP's own radio *misses* (cell-edge fade), while
    // both neighbours' monitor interfaces overhear it.
    let mut rx = BaRecipient::new();
    for m in &mpdus {
        rx.on_mpdu(m.seq);
    }
    let (start_seq, bitmap) = rx.block_ack();

    // Each non-serving AP forwards to the serving AP.
    let forward_a = neighbour_a.on_overheard_block_ack(CLIENT, start_seq, bitmap);
    let forward_b = neighbour_b.on_overheard_block_ack(CLIENT, start_seq, bitmap);
    let forward_a = forward_a.expect("neighbour A forwards");
    let forward_b = forward_b.expect("neighbour B forwards");
    for forward in [&forward_a, &forward_b] {
        assert_eq!(forward.to, BackhaulDest::Ap(SERVING));
        assert!(matches!(
            forward.msg,
            BackhaulMsg::BlockAckForward { client, start_seq: s, bitmap: b }
                if client == CLIENT && s == start_seq && b == bitmap
        ));
    }

    // First forwarded copy reaches the serving AP: the window clears as
    // if the BA had been heard on its own radio.
    serving.on_backhaul(forward_a.msg);
    assert!(!serving.tx.has_in_flight(CLIENT));
    assert_eq!(serving.forwarded_ba_used, 1);

    // Second forwarded copy (the other neighbour's) is deduplicated —
    // §3.2.1: "AP1 first checks whether this Block ACK has been
    // received before".
    serving.on_backhaul(forward_b.msg);
    assert_eq!(
        serving.forwarded_ba_used, 1,
        "duplicate forward must not be double-counted"
    );

    // The BA timeout that would have retransmitted the whole window now
    // finds nothing in flight: the overheard BA suppressed the storm.
    let timeout = serving.tx.on_ba_timeout(CLIENT);
    assert!(timeout.delivered.is_empty());
    assert!(timeout.dropped.is_empty());
    assert_eq!(
        serving.tx.ba_timeouts, 0,
        "timeout on a clear window is a no-op"
    );

    // Every acked packet moved on: the next TXOP carries fresh data with
    // zero retries, not the already-delivered window.
    let (next, _) = serving.tx.build(CLIENT).expect("more backlog");
    assert!(next.iter().all(|m| m.retries == 0));
    assert_eq!(
        next[0].seq,
        mpdus.len() as u16,
        "no overlap with the acked window"
    );
}

#[test]
fn serving_ap_monitor_is_disabled_end_to_end() {
    let (mut serving, _, _) = deployment();
    // Fig. 8: the serving AP's monitor interface is off — overhearing
    // its own client's BA must produce no backhaul traffic.
    assert!(serving.on_overheard_block_ack(CLIENT, 0, 0xFF).is_none());
}

#[test]
fn partial_overheard_ba_retries_only_the_holes() {
    let (mut serving, mut neighbour_a, _) = deployment();
    let (mpdus, _) = serving.tx.build(CLIENT).expect("backlog queued");

    // The client missed MPDUs 2 and 5; the BA says so, and only the
    // serving AP's radio missed the BA itself.
    let mut rx = BaRecipient::new();
    for m in &mpdus {
        if m.seq != 2 && m.seq != 5 {
            rx.on_mpdu(m.seq);
        }
    }
    let (start_seq, bitmap) = rx.block_ack();
    let forward = neighbour_a.on_overheard_block_ack(CLIENT, start_seq, bitmap);
    serving.on_backhaul(forward.expect("neighbour forwards").msg);

    // The merge behaves exactly like a native BA: holes retry, the rest
    // are delivered, and the retries lead the next TXOP.
    assert_eq!(serving.forwarded_ba_used, 1);
    let (next, _) = serving.tx.build(CLIENT).expect("retries pending");
    assert_eq!(next[0].seq, 2);
    assert_eq!(next[1].seq, 5);
    assert_eq!(next[0].retries, 1);
}
