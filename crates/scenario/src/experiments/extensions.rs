//! Beyond the paper's evaluation: the Fig. 10 coverage heatmap, the
//! design-choice ablations DESIGN.md §5 calls out, and scenarios the
//! paper's §7 discussion motivates (stop-and-go traffic).

use crate::experiments::common::{drive, mps, udp_loss, wgtt};
use crate::experiments::motivation::radio_links;
use crate::results::{f, ExperimentOutput};
use crate::testbed::{ClientPlan, TestbedConfig};
use crate::world::{FlowSpec, SystemKind, World};
use wgtt::{WgttConfig, WindowReduce};
use wgtt_net::packet::FlowId;
use wgtt_radio::Position;
use wgtt_sim::time::{SimDuration, SimTime};

/// Fig. 10: the per-AP coverage map along the road — large-scale mean
/// SNR sampled every 2 m at the near lane, showing the ≈5 m cells and
/// their 6–10 m overlaps.
pub fn fig10(_seed: u64) -> ExperimentOutput {
    let testbed = TestbedConfig::paper_array();
    let (links, _) = radio_links(testbed.ap_x.len(), 15.0, 1);
    let mut out = ExperimentOutput::new(
        "fig10",
        "Coverage map: mean SNR (dB) per AP along the road (near lane)",
        &[
            "x (m)", "AP1", "AP2", "AP3", "AP4", "AP5", "AP6", "AP7", "AP8", "best",
        ],
    );
    let mut x = -6.0;
    while x <= 64.0 {
        let pos = Position::new(x, 0.0);
        let snrs: Vec<f64> = links.iter().map(|l| l.mean_snr_db(pos)).collect();
        let best = snrs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i + 1)
            .expect("eight APs");
        let mut row = vec![f(x, 0)];
        row.extend(snrs.iter().map(|&v| f(v.max(-9.9), 1)));
        row.push(format!("AP{best}"));
        out.row(row);
        x += 2.0;
    }
    out.note("paper Fig. 10: cells ≈5 m wide, adjacent coverage overlapping 6–10 m");
    out
}

/// Ablation: the window-reduction policy of the AP selector — the
/// paper's median (Fig. 6) against mean, max, and latest-sample.
pub fn ablation_selector(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ablation_selector",
        "Selection policy ablation (15 mph, 25 Mbit/s UDP)",
        &["policy", "goodput (Mbit/s)", "switches", "accuracy %"],
    );
    for (policy, name) in [
        (WindowReduce::Median, "median (paper)"),
        (WindowReduce::Mean, "mean"),
        (WindowReduce::Max, "max"),
        (WindowReduce::Latest, "latest"),
    ] {
        let cfg = WgttConfig {
            window_reduce: policy,
            ..WgttConfig::default()
        };
        let run = drive(
            SystemKind::Wgtt(cfg),
            15.0,
            FlowSpec::DownlinkUdp { rate_mbps: 25.0 },
            seed,
        );
        out.row(vec![
            name.into(),
            f(run.mean_mbps(), 2),
            run.world.report.switches.to_string(),
            f(run.world.selection_accuracy().percent(), 1),
        ]);
    }
    out.note("the median resists single-reading fading spikes and CSI noise (Fig. 6)");
    out
}

/// Ablation: Block ACK forwarding on vs off (§3.2.1's contribution).
pub fn ablation_back_fwd(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ablation_back_fwd",
        "Block ACK forwarding ablation (15 mph, 25 Mbit/s UDP)",
        &["forwarding", "goodput (Mbit/s)", "BA timeouts"],
    );
    for (enabled, name) in [(true, "on (paper)"), (false, "off")] {
        let cfg = WgttConfig {
            enable_ba_forwarding: enabled,
            ..WgttConfig::default()
        };
        let run = drive(
            SystemKind::Wgtt(cfg),
            15.0,
            FlowSpec::DownlinkUdp { rate_mbps: 25.0 },
            seed,
        );
        out.row(vec![
            name.into(),
            f(run.mean_mbps(), 2),
            run.world.report.ba_timeouts.to_string(),
        ]);
    }
    out.note("forwarded Block ACKs cut full-window retransmissions at cell edges");
    out
}

/// Extension: stop-and-go traffic (a car halts at a light mid-array).
/// Exercises the static↔vehicular transition — selection must go quiet
/// while parked and wake up on motion.
pub fn ext_stop_and_go(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_stop_and_go",
        "Stop-and-go: 15 mph drive with an 8 s stop at x = 23 m",
        &["system", "moving Mbit/s", "parked Mbit/s", "switches"],
    );
    let speed = 15.0;
    let v = mps(speed);
    let stop_x = 23.0;
    let pause_s = 8.0;
    let plan = ClientPlan::stop_and_go(speed, stop_x, pause_s);
    let t_stop = SimTime::from_secs_f64((stop_x + 15.0) / v);
    let t_resume = t_stop + SimDuration::from_secs_f64(pause_s);
    let total =
        SimDuration::from_secs_f64((TestbedConfig::paper_array().road_len() + 45.0) / v + pause_s);
    for (sys, name) in [(wgtt(), "WGTT"), (SystemKind::Enhanced80211r, "802.11r")] {
        let cfg = TestbedConfig::paper_array().with_clients(vec![plan]);
        let mut w = World::new(
            cfg,
            sys,
            vec![FlowSpec::DownlinkUdp { rate_mbps: 25.0 }],
            seed,
        );
        w.traffic_start = SimTime::from_secs_f64(7.0 / v);
        w.run(total);
        let m = &w.report.flow_meters[&FlowId(0)];
        // "Moving" = everything outside the pause window.
        let before = m.mbps_over(w.traffic_start, t_stop);
        let after = m.mbps_over(t_resume, SimTime::ZERO + total);
        let moving = (before + after) / 2.0;
        let parked = m.mbps_over(t_stop, t_resume);
        out.row(vec![
            name.into(),
            f(moving, 2),
            f(parked, 2),
            w.report.switches.to_string(),
        ]);
    }
    out.note("parked throughput should hold steady (no flapping); motion resumes switching");
    out
}

/// Extension (paper §7): adjacent APs on alternating channels. Avoids
/// inter-cell interference but costs WGTT its uplink overhearing — the
/// client is only visible to same-channel APs, so CSI, fan-out, and
/// de-duplication diversity all halve.
pub fn ext_multichannel(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_multichannel",
        "Single vs dual channel deployment (15 mph)",
        &[
            "deployment",
            "DL UDP Mbit/s",
            "UL UDP loss",
            "dup copies/fwd",
        ],
    );
    for (dual, name) in [(false, "single channel (paper)"), (true, "dual channel")] {
        let mk_cfg = || {
            if dual {
                TestbedConfig::paper_array_dual_channel()
            } else {
                TestbedConfig::paper_array()
            }
        };
        let v = mps(15.0);
        let start = SimTime::from_secs_f64(7.0 / v);
        let dur = SimDuration::from_secs_f64((TestbedConfig::paper_array().road_len() + 45.0) / v);
        // Downlink goodput.
        let mut w = World::new(
            mk_cfg().with_clients(vec![ClientPlan::drive_by(15.0)]),
            wgtt(),
            vec![FlowSpec::DownlinkUdp { rate_mbps: 25.0 }],
            seed,
        );
        w.traffic_start = start;
        w.run(dur);
        let dl = w.report.flow_meters[&FlowId(0)].mbps_over(start, SimTime::ZERO + dur);
        // Uplink loss + diversity.
        let mut u = World::new(
            mk_cfg().with_clients(vec![ClientPlan::drive_by(15.0)]),
            wgtt(),
            vec![FlowSpec::UplinkUdp { rate_mbps: 8.0 }],
            seed,
        );
        u.traffic_start = start;
        u.run(dur);
        let loss = udp_loss(u.report.udp_counts[&FlowId(0)]);
        let (fwd, dup) = u.report.uplink_dedup;
        out.row(vec![
            name.into(),
            f(dl, 2),
            f(loss, 3),
            format!("{dup}/{fwd}"),
        ]);
    }
    out.note("paper §7: different channels \"would be unable to forward overheard packets, resulting in a higher uplink packet loss rate\"");
    out
}
