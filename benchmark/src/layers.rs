//! Unit costs of each layer's public functions, timed in isolation.
//!
//! Each probe calls one crate's public API the way `scenario::world`
//! calls it, on inputs of a fixed, named shape (`_c200` is 200 attached
//! clients, `_n10` ten contenders, `_d1m` a million pending events), so
//! that a number printed here means the same thing in every trace and
//! on every workload. The set-ups follow `crates/bench/benches`.
//!
//! Times are medians over samples on the thread's CPU clock.

use crate::clock::thread_cpu_ns;
use crate::stats::median;
use std::collections::VecDeque;
use std::hint::black_box;
use wgtt::cyclic::CyclicQueue;
use wgtt::dedup::DedupFilter;
use wgtt::selection::ApSelector;
use wgtt::timerwheel::TimerWheel;
use wgtt::{ActionBuf, BackhaulMsg, Controller, WgttConfig};
use wgtt_apps::mix::TrafficMix;
use wgtt_baseline::roamer::{Roamer, RoamerMode};
use wgtt_mac::aggregation::{build_ampdu, AggregationPolicy};
use wgtt_mac::blockack::{BaOriginator, BaRecipient};
use wgtt_mac::frame::{Mpdu, NodeId, PacketRef};
use wgtt_mac::rate::RateController;
use wgtt_mac::{Mcs, Medium};
use wgtt_net::packet::{FlowId, PacketFactory};
use wgtt_net::tcp::{TcpConfig, TcpReceiver, TcpSender};
use wgtt_net::wire::Ipv4Addr;
use wgtt_radio::{batch, FadingProcess, Modulation, Position};
use wgtt_scenario::experiments::motivation::radio_links;
use wgtt_sim::metrics::{Distribution, ThroughputMeter};
use wgtt_sim::queue::EventQueue;
use wgtt_sim::rng::{RngStream, Xoshiro256};
use wgtt_sim::sketch::P2Sketch;
use wgtt_sim::time::{SimDuration, SimTime};

/// CPU time one sample aims to occupy, and samples per probe. A probe
/// costs about `SAMPLES x TARGET` plus its set-up, so all of them
/// stay within a couple of seconds.
const TARGET_SAMPLE_NS: u64 = 2_000_000;
const SAMPLES: usize = 9;

/// Median nanoseconds per call of `routine`.
fn measure<O>(mut routine: impl FnMut() -> O) -> f64 {
    // Calibrate on a short burst, not one call: a single first call is
    // mostly cache misses and would undersize the batches.
    let t0 = thread_cpu_ns();
    let mut probe_iters = 0u64;
    while thread_cpu_ns() - t0 < TARGET_SAMPLE_NS / 8 {
        for _ in 0..8 {
            black_box(routine());
        }
        probe_iters += 8;
    }
    let per_iter = ((thread_cpu_ns() - t0) / probe_iters).max(1);
    let iters = (TARGET_SAMPLE_NS / per_iter).clamp(1, 10_000_000);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = thread_cpu_ns();
            for _ in 0..iters {
                black_box(routine());
            }
            (thread_cpu_ns() - start) as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// A sample clock whose instants never repeat, so that per-link memos
/// miss across calls exactly as they do across frames in a run.
struct Ticker(u64);

impl Ticker {
    fn tick(&mut self) -> SimTime {
        self.0 += 1_387;
        SimTime::from_nanos(self.0)
    }
}

const SERVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
const NUM_APS: u32 = 8;

fn client_id(i: usize) -> NodeId {
    NodeId(1_000 + i as u32)
}

fn client_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8)
}

fn mpdu(seq: u16) -> Mpdu {
    Mpdu {
        seq,
        packet: PacketRef {
            id: u64::from(seq),
            len: 1500,
        },
        retries: 0,
    }
}

/// `(metric name, nanoseconds per call)` for every layer probe.
pub fn unit_costs() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    sim(&mut out);
    radio(&mut out);
    mac(&mut out);
    net(&mut out);
    core(&mut out);
    out.push(("baseline.roamer.ns_per_poll", roamer_poll()));
    out.push(("apps.mix.ns_per_deal", {
        let mix = TrafficMix::transit_default();
        let mut rng = Xoshiro256::seed_from_u64(7);
        measure(|| mix.sample(&mut rng))
    }));
    out
}

/// Schedule + pop with `depth` events pending, spread over the next
/// simulated second like a fleet's timers.
fn queue_at_depth(depth: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Xoshiro256::seed_from_u64(depth);
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(rng.below(1_000_000_000)), i);
    }
    measure(|| {
        let (now, _) = q.pop().expect("the queue never drains");
        q.schedule(
            now + SimDuration::from_nanos(1 + rng.below(1_000_000_000)),
            0,
        )
    })
}

fn sim(out: &mut Vec<(&'static str, f64)>) {
    out.push(("sim.queue.ns_per_event_d1k", queue_at_depth(1_000)));
    out.push(("sim.queue.ns_per_event_d1m", queue_at_depth(1_000_000)));
    out.push(("sim.queue.ns_per_cancel", {
        // The world's BA-timeout pattern: arm, cancel, and let the pop
        // skip the tombstone.
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        measure(|| {
            t += 3;
            let id = q.schedule(SimTime::from_nanos(t + 1_500_000), t);
            q.schedule(SimTime::from_nanos(t), t);
            q.cancel(id);
            q.pop()
        })
    }));
    out.push(("sim.metrics.ns_per_record", {
        // Exact backends grow without bound, so each sample's recorder
        // is replaced before it leaves the cache-resident sizes a run
        // sees.
        let mut meter = ThroughputMeter::new();
        let mut dist = Distribution::new();
        let mut t = 0u64;
        measure(|| {
            t += 1;
            if t.is_multiple_of(1 << 16) {
                meter = ThroughputMeter::new();
                dist = Distribution::new();
            }
            meter.record(SimTime::from_micros(t), 1500);
            dist.record((t % 977) as f64);
        }) / 2.0
    }));
    out.push(("sim.sketch.ns_per_record", {
        let mut sketch = P2Sketch::new();
        let mut t = 0u64;
        measure(|| {
            t += 1;
            sketch.observe(((t * 2_654_435_761) % 65_000) as f64 / 1000.0);
        })
    }));
}

fn radio(out: &mut Vec<(&'static str, f64)>) {
    let fading = FadingProcess::new(RngStream::root(42).derive("bench-link"), 6.7, 9.0);
    let mut c = Ticker(0);
    out.push((
        "radio.fading.ns_per_csi",
        measure(|| fading.csi_at(c.tick())),
    ));
    let mut c = Ticker(0);
    out.push((
        "radio.fading.ns_per_powers",
        measure(|| fading.powers_at(c.tick())),
    ));

    let (links, plan) = radio_links(NUM_APS as usize, 15.0, 42);
    let pos = plan.position_at(SimTime::from_millis(2_500));
    let mut c = Ticker(0);
    out.push((
        "radio.esnr.ns_per_map",
        measure(|| links[0].esnr_db_at(c.tick(), pos, Modulation::Qam16)),
    ));
    let mut c = Ticker(0);
    let mut map = Vec::new();
    out.push((
        "radio.batch.ns_per_link_8ap",
        measure(|| {
            batch::esnr_map(links.iter(), c.tick(), pos, Modulation::Qam16, &mut map);
            map[0]
        }) / f64::from(NUM_APS),
    ));
    let mut x = 0.0;
    out.push((
        "radio.link.ns_per_mean_snr",
        measure(|| {
            x += 0.01;
            links[0].mean_snr_db(Position::new(x, 0.0))
        }),
    ));
    let mut seed = 0;
    out.push((
        "radio.link.ns_per_new",
        measure(|| {
            seed += 1;
            radio_links(NUM_APS as usize, 15.0, seed)
        }) / f64::from(NUM_APS),
    ));
}

/// One contended transmission (`access_time` + `begin_tx` + the
/// receiver's `outcome_for`) with `n` nodes 8 m apart. The offered
/// load grows with `n`, one sender per ten nodes at a time, so the
/// medium holds as many recent transmissions as a corridor that size
/// keeps in its 100 ms grace window.
fn medium_tx(n: u32) -> f64 {
    let mut medium = Medium::roadside();
    for i in 0..n {
        medium.set_position(NodeId(i), Position::new(f64::from(i) * 8.0, 0.0));
    }
    let mut rng = Xoshiro256::seed_from_u64(u64::from(n));
    let dur = SimDuration::from_micros(200);
    let step = SimDuration::from_nanos(250_000 / u64::from(n / 10).max(1));
    let mut now = SimTime::ZERO;
    let mut i = 0u32;
    measure(|| {
        now += step;
        // Senders rotate with a stride that keeps concurrent ones out
        // of each other's carrier-sense range.
        i = (i + 7) % n;
        let from = NodeId(i);
        let at = medium.access_time(from, now, 0, &mut rng);
        let tx = medium.begin_tx(from, at, dur);
        medium.outcome_for(tx, NodeId((i + 1) % n))
    })
}

fn mac(out: &mut Vec<(&'static str, f64)>) {
    out.push(("mac.medium.ns_per_tx_n10", medium_tx(10)));
    out.push(("mac.medium.ns_per_tx_n200", medium_tx(200)));
    out.push(("mac.aggregation.ns_per_ampdu", {
        let policy = AggregationPolicy::default();
        let mut fresh: VecDeque<Mpdu> = VecDeque::new();
        let mut retries = Vec::new();
        let mut seq = 0u16;
        measure(|| {
            while fresh.len() < 64 {
                fresh.push_back(mpdu(seq));
                seq = (seq + 1) % 4096;
            }
            build_ampdu(&mut retries, &mut fresh, &policy, Mcs::Mcs7)
        })
    }));
    out.push(("mac.blockack.ns_per_ba", {
        // One 32-MPDU exchange: the recipient scores each MPDU and
        // builds the bitmap, the originator applies it.
        let mut tx = BaOriginator::default();
        let mut rx = BaRecipient::new();
        let mut seq = 0u16;
        measure(|| {
            let burst: Vec<Mpdu> = (0..32).map(|k| mpdu((seq + k) % 4096)).collect();
            for m in &burst {
                rx.on_mpdu(m.seq);
            }
            seq = (seq + 32) % 4096;
            tx.on_ampdu_sent(burst);
            let (start, bitmap) = rx.block_ack();
            tx.on_block_ack(start, bitmap)
        })
    }));
    out.push(("mac.rate.ns_per_pick", {
        let mut rate = RateController::new(Xoshiro256::seed_from_u64(3));
        let mut k = 0usize;
        measure(|| {
            k += 1;
            let mcs = rate.select();
            rate.on_feedback(mcs, 32, 32 - k % 5);
            mcs
        })
    }));
}

fn net(out: &mut Vec<(&'static str, f64)>) {
    out.push(("net.tcp.ns_per_segment", {
        // A loss-free bulk connection: every emitted segment reaches the
        // receiver and its cumulative ack returns 2 ms later.
        let mut snd = TcpSender::bulk(TcpConfig::default());
        let mut rcv = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut segments = 0u64;
        let mut calls = 0u64;
        let per_call = measure(|| {
            calls += 1;
            for seg in snd.poll_send(now) {
                segments += 1;
                let ack = rcv.on_segment(seg.seq, seg.len);
                now += SimDuration::from_micros(20);
                snd.on_ack(ack, now + SimDuration::from_millis(2));
            }
            now += SimDuration::from_millis(2);
        });
        per_call * calls as f64 / segments.max(1) as f64
    }));
}

/// A controller with `n` associated clients, each heard by all eight
/// APs a millisecond ago (inside the fan-out grace, so downlink packets
/// replicate eight ways).
fn controller(n: usize) -> (Controller, ActionBuf, SimTime) {
    let aps: Vec<NodeId> = (1..=NUM_APS).map(NodeId).collect();
    let mut ctl = Controller::new(WgttConfig::default(), aps);
    ctl.reserve_clients(n);
    let mut buf = ActionBuf::new();
    let t0 = SimTime::from_millis(1);
    for i in 0..n {
        let c = client_id(i);
        let home = NodeId(1 + (i as u32) % NUM_APS);
        ctl.on_client_associated(c, home, t0, &mut buf);
        for ap in 1..=NUM_APS {
            let msg = BackhaulMsg::CsiReport {
                client: c,
                ap: NodeId(ap),
                // The serving AP is clearly best: steady state, no switch.
                esnr_db: if NodeId(ap) == home { 25.0 } else { 12.0 },
                at: t0,
            };
            buf.clear();
            ctl.on_msg(msg, t0, &mut buf);
        }
    }
    (ctl, buf, t0)
}

fn controller_downlink(n: usize) -> f64 {
    let (mut ctl, mut buf, t0) = controller(n);
    let mut factory = PacketFactory::new();
    let mut now = t0;
    let mut i = 0usize;
    let mut seq = 0u32;
    let ns = measure(|| {
        // 100 ns per op keeps a million ops inside the 150 ms grace.
        now += SimDuration::from_nanos(100);
        i = (i + 1) % n;
        seq = seq.wrapping_add(1);
        let p = factory.udp(FlowId(0), SERVER, client_ip(i), seq, 1500, now);
        buf.clear();
        ctl.on_downlink(client_id(i), p, now, &mut buf);
        // The world re-arms its poll event after every dispatch.
        black_box(ctl.next_timeout());
        buf.len()
    });
    assert_eq!(ctl.stats.downlink_no_ap, 0, "every packet had an AP");
    ns
}

fn core(out: &mut Vec<(&'static str, f64)>) {
    out.push(("core.controller.ns_per_downlink_c1", controller_downlink(1)));
    out.push((
        "core.controller.ns_per_downlink_c200",
        controller_downlink(200),
    ));
    out.push(("core.controller.ns_per_csi", {
        let (mut ctl, mut buf, t0) = controller(200);
        let mut now = t0;
        let mut i = 0usize;
        let ns = measure(|| {
            now += SimDuration::from_micros(1);
            i = (i + 1) % 200;
            let home = NodeId(1 + (i as u32) % NUM_APS);
            let msg = BackhaulMsg::CsiReport {
                client: client_id(i),
                ap: home,
                esnr_db: 25.0,
                at: now,
            };
            buf.clear();
            ctl.on_msg(msg, now, &mut buf);
            black_box(ctl.next_timeout());
        });
        assert_eq!(ctl.stats.switches_started, 0, "steady CSI never switches");
        ns
    }));
    out.push(("core.controller.ns_per_uplink", {
        // Every uplink packet is overheard by all eight APs: one copy
        // is forwarded, seven are dropped by the per-source filter.
        let (mut ctl, mut buf, t0) = controller(200);
        let mut factory = PacketFactory::new();
        let mut i = 0usize;
        let mut seq = 0u32;
        let ns = measure(|| {
            i = (i + 1) % 200;
            seq = seq.wrapping_add(1);
            let p = factory.udp(FlowId(0), client_ip(i), SERVER, seq, 1500, t0);
            for ap in 1..=NUM_APS {
                buf.clear();
                let msg = BackhaulMsg::UplinkData {
                    ap: NodeId(ap),
                    packet: p,
                };
                ctl.on_msg(msg, t0, &mut buf);
            }
        }) / f64::from(NUM_APS);
        assert_eq!(
            ctl.stats.uplink_duplicates,
            ctl.stats.uplink_forwarded * u64::from(NUM_APS - 1),
            "one forward per eight copies"
        );
        ns
    }));
    out.push(("core.controller.ns_per_idle_poll", {
        let (mut ctl, mut buf, t0) = controller(200);
        let mut now = t0;
        measure(|| {
            now += SimDuration::from_micros(50);
            buf.clear();
            ctl.poll(now, &mut buf);
            ctl.next_timeout()
        })
    }));
    out.push(("core.cyclic.ns_per_pkt", {
        let mut factory = PacketFactory::new();
        let packet = factory.udp(FlowId(0), SERVER, client_ip(0), 0, 1500, SimTime::ZERO);
        let mut q = CyclicQueue::new();
        let mut i = 0u16;
        measure(|| {
            q.insert(i, packet);
            i = (i + 1) % 4096;
            q.pop()
        })
    }));
    out.push(("core.dedup.ns_per_key", {
        let mut d = DedupFilter::new(WgttConfig::default().dedup_capacity);
        let mut k = 0u64;
        measure(|| {
            k += 1;
            // Each key arrives twice, as from two overhearing APs.
            d.check_and_insert(k / 2)
        })
    }));
    out.push(("core.timerwheel.ns_per_arm_fire", {
        // The switch-ack deadline: armed 30 ms out, fired when the
        // cursor gets there.
        let mut wheel = TimerWheel::new();
        let mut now = SimTime::ZERO;
        let mut fired = 0u64;
        measure(|| {
            wheel.schedule(now + SimDuration::from_millis(30), 7);
            now += SimDuration::from_micros(500);
            wheel.advance(now);
            wheel.drain_due(|_, _| fired += 1);
            fired
        })
    }));
    out.push(("core.selection.ns_per_reading", {
        let cfg = WgttConfig::default();
        let mut s = ApSelector::new(
            cfg.selection_window,
            cfg.switch_hysteresis,
            cfg.switch_margin_db,
        );
        let mut t = 0u64;
        measure(|| {
            // ~20 readings per AP inside the 10 ms window.
            t += 60;
            let at = SimTime::from_micros(t);
            s.record(NodeId((t / 60 % 8) as u32), at, 10.0 + (t % 13) as f64);
            s.evaluate(at)
        })
    }));
}

fn roamer_poll() -> f64 {
    let mut r = Roamer::new(RoamerMode::Enhanced {
        hysteresis: SimDuration::from_secs(1),
    });
    r.set_associated(NodeId(0), SimTime::ZERO);
    let mut t = 0u64;
    measure(|| {
        // Beacons every 100 ms from eight APs interleave with the 25 ms
        // roam poll: one beacon per poll on average.
        t += 25;
        let now = SimTime::from_millis(t);
        r.on_beacon(NodeId((t / 25 % 8) as u32), -60.0 - (t % 7) as f64, now);
        r.evaluate(now)
    })
}
