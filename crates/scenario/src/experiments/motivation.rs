//! Motivation artifacts: Fig. 2 (the vehicular picocell regime) and
//! Fig. 4 (stock 802.11r failing at driving speed).

use crate::results::{f, ExperimentOutput};
use crate::testbed::{ClientPlan, TestbedConfig};
use crate::world::{FlowSpec, SystemKind, World};
use wgtt_mac::frame::NodeId;
use wgtt_mac::mcs::capacity_mbps;
use wgtt_radio::link::Link;
use wgtt_radio::Modulation;
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::{SimDuration, SimTime};

/// Build the pure-radio links of the first `n` APs of the paper array
/// for a client moving at `speed_mph` (no MAC, no world — Fig. 2 and the
/// Fig. 21 emulation sample the channel directly). They are the links a
/// paper-array world with this one plan realizes at `seed`.
pub fn radio_links(n: usize, speed_mph: f64, seed: u64) -> (Vec<Link>, ClientPlan) {
    let plan = ClientPlan::drive_by(speed_mph);
    let testbed = TestbedConfig {
        clients: vec![plan],
        ..TestbedConfig::paper_array()
    };
    let links = RngStream::root(seed).derive("link");
    let links = (0..n.min(testbed.ap_x.len()))
        .map(|aui| testbed.link(&links, aui, 0))
        .collect();
    (links, plan)
}

/// Fig. 2: ESNR of three adjacent APs sampled every millisecond while a
/// client drives by at 25 mph; the lower artifact is the best-AP
/// timeline, flipping at millisecond scale.
pub fn fig2(seed: u64) -> ExperimentOutput {
    let (links, plan) = radio_links(3, 25.0, seed);
    let mut out = ExperimentOutput::new(
        "fig2",
        "ESNR traces and best-AP flips in the vehicular picocell regime (25 mph)",
        &[
            "window",
            "best=AP1 %",
            "best=AP2 %",
            "best=AP3 %",
            "flips/s",
            "median hold (ms)",
        ],
    );
    // Drive through the three-AP stretch (x ∈ [-5, 20] → 2.25 s at 25 mph).
    let t_start = SimTime::from_secs_f64(10.0 / plan.speed_mps); // x = -5
    let span_s = 25.0 / plan.speed_mps;
    let steps = (span_s * 1000.0) as usize;
    let mut counts = [0u64; 3];
    let mut flips = 0u64;
    let mut holds: Vec<f64> = Vec::new();
    let mut hold_ms = 0.0;
    let mut last_best: Option<usize> = None;
    for i in 0..steps {
        let t = t_start + SimDuration::from_millis(i as u64);
        let pos = plan.position_at(t);
        let best = (0..3)
            .max_by(|&a, &b| {
                let ea = links[a].snapshot(t, pos).esnr_db(Modulation::Qam16);
                let eb = links[b].snapshot(t, pos).esnr_db(Modulation::Qam16);
                ea.partial_cmp(&eb).expect("ESNR never NaN")
            })
            .expect("three links");
        counts[best] += 1;
        match last_best {
            Some(prev) if prev != best => {
                flips += 1;
                holds.push(hold_ms);
                hold_ms = 1.0;
            }
            _ => hold_ms += 1.0,
        }
        last_best = Some(best);
    }
    holds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median_hold = holds.get(holds.len() / 2).copied().unwrap_or(span_s * 1e3);
    let total = steps as f64;
    out.row(vec![
        format!("{:.2}s drive", span_s),
        f(100.0 * counts[0] as f64 / total, 1),
        f(100.0 * counts[1] as f64 / total, 1),
        f(100.0 * counts[2] as f64 / total, 1),
        f(flips as f64 / span_s, 1),
        f(median_hold, 1),
    ]);
    out.note("paper: the best AP changes every few milliseconds near cell overlaps");
    out
}

/// Fig. 4: stock 802.11r on the two-AP §2 testbed at 20 and 5 mph:
/// received UDP packets, whether the handover happened, and the
/// accumulated capacity loss relative to an oracle link.
pub fn fig4(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig4",
        "Stock 802.11r handover at driving speed (two-AP testbed, UDP)",
        &["speed", "pkts rcvd", "handover", "capacity loss (Mbit/s)"],
    );
    for &speed in &[20.0, 5.0] {
        let plan = ClientPlan::drive_by(speed);
        let cfg = TestbedConfig::two_ap().with_clients(vec![plan]);
        let transit = SimDuration::from_secs_f64(
            (15.0 + 7.5 + 15.0) / crate::experiments::common::mps(speed),
        );
        let mut w = World::new(
            cfg,
            SystemKind::Stock80211r,
            vec![FlowSpec::DownlinkUdp { rate_mbps: 30.0 }],
            seed,
        );
        w.traffic_start = SimTime::from_secs_f64(7.0 / crate::experiments::common::mps(speed));
        w.run(transit);
        let (_sent, received) = w.report.udp_counts[&wgtt_net::packet::FlowId(0)];
        let switched = w.report.switches > 0;
        // Capacity loss: oracle capacity minus achieved goodput, averaged
        // over the in-coverage window.
        let client = NodeId(100);
        let mut oracle_acc = 0.0;
        let mut n = 0u64;
        let (ap0, ap1) = (
            w.esnr_trace(client, NodeId(0)),
            w.esnr_trace(client, NodeId(1)),
        );
        for (&(t, e0), &(_, e1)) in ap0.points().iter().zip(ap1.points()) {
            let best = e0.max(e1);
            if best > 2.0 && t >= w.traffic_start {
                oracle_acc += capacity_mbps(best);
                n += 1;
            }
        }
        let oracle = if n > 0 { oracle_acc / n as f64 } else { 0.0 };
        let meter = &w.report.flow_meters[&wgtt_net::packet::FlowId(0)];
        let achieved = meter.mbps_over(w.traffic_start, SimTime::ZERO + transit);
        out.row(vec![
            format!("{speed} mph"),
            received.to_string(),
            if switched {
                "yes".into()
            } else {
                "FAILED".into()
            },
            f((oracle - achieved).max(0.0), 1),
        ]);
    }
    out.note("paper: handover fails outright at 20 mph (5 s RSSI history > cell dwell)");
    out
}
