//! End-to-end single-client results: Figs. 13–16 and Table 2.

use crate::experiments::common::{drive, wgtt, DriveRun};
use crate::results::{f, ExperimentOutput};
use crate::world::{FlowSpec, SystemKind};
use wgtt_mac::frame::NodeId;
use wgtt_net::packet::FlowId;
use wgtt_sim::metrics::Distribution;
use wgtt_sim::time::SimDuration;

const CLIENT: NodeId = NodeId(100);

/// Fig. 13: TCP and UDP downlink throughput against client speed,
/// WGTT vs Enhanced 802.11r.
pub fn fig13(seed: u64, quick: bool) -> ExperimentOutput {
    let speeds: &[f64] = if quick {
        &[0.0, 15.0, 35.0]
    } else {
        &[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 35.0]
    };
    let mut out = ExperimentOutput::new(
        "fig13",
        "TCP/UDP throughput vs driving speed (Mbit/s)",
        &[
            "speed",
            "TCP WGTT",
            "TCP 802.11r",
            "UDP WGTT",
            "UDP 802.11r",
            "TCP gain",
            "UDP gain",
        ],
    );
    let n_seeds = if quick { 1 } else { 3 };
    let avg = |sys: SystemKind, speed: f64, spec: FlowSpec| -> f64 {
        (0..n_seeds)
            .map(|i| drive(sys, speed, spec, seed + i as u64).mean_mbps())
            .sum::<f64>()
            / n_seeds as f64
    };
    for &speed in speeds {
        let tw = avg(wgtt(), speed, FlowSpec::DownlinkTcpBulk);
        let tb = avg(SystemKind::Enhanced80211r, speed, FlowSpec::DownlinkTcpBulk);
        let uw = avg(wgtt(), speed, FlowSpec::DownlinkUdp { rate_mbps: 30.0 });
        let ub = avg(
            SystemKind::Enhanced80211r,
            speed,
            FlowSpec::DownlinkUdp { rate_mbps: 30.0 },
        );
        out.row(vec![
            if speed == 0.0 {
                "static".into()
            } else {
                format!("{speed} mph")
            },
            f(tw, 2),
            f(tb, 2),
            f(uw, 2),
            f(ub, 2),
            f(if tb > 0.0 { tw / tb } else { f64::INFINITY }, 1),
            f(if ub > 0.0 { uw / ub } else { f64::INFINITY }, 1),
        ]);
    }
    out.note("paper: 2.4–4.7× TCP and 2.6–4.0× UDP gains at 5–25 mph; flat WGTT curve");
    out
}

fn timeline(run: &DriveRun, label: &str, out: &mut ExperimentOutput) {
    let bin = SimDuration::from_millis(500);
    let bins = (run.window().as_nanos() / bin.as_nanos()) as usize;
    let meter = &run.world.report.flow_meters[&FlowId(0)];
    let tput = meter.binned_mbps(run.start, bin, bins);
    let serving = run
        .world
        .report
        .serving_series
        .get(&CLIENT)
        .map(|ts| ts.resample(run.start, bin, bins))
        .unwrap_or_default();
    for (i, &mbps) in tput.iter().enumerate().take(bins) {
        out.row(vec![
            label.to_string(),
            f(i as f64 * 0.5, 1),
            f(mbps, 2),
            serving
                .get(i)
                .map(|&s| {
                    if s.is_nan() {
                        "-".into()
                    } else {
                        format!("AP{}", s as u32)
                    }
                })
                .unwrap_or_else(|| "-".into()),
        ]);
    }
}

/// Fig. 14: TCP throughput + serving-AP timeline during a 15 mph drive.
pub fn fig14(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig14",
        "TCP throughput and serving AP over a 15 mph drive",
        &["system", "t (s)", "Mbit/s", "AP"],
    );
    let w = drive(wgtt(), 15.0, FlowSpec::DownlinkTcpBulk, seed);
    timeline(&w, "WGTT", &mut out);
    let b = drive(
        SystemKind::Enhanced80211r,
        15.0,
        FlowSpec::DownlinkTcpBulk,
        seed,
    );
    timeline(&b, "802.11r", &mut out);
    let wt = w
        .world
        .report
        .tcp_timeouts
        .get(&FlowId(0))
        .copied()
        .unwrap_or(0);
    let bt = b
        .world
        .report
        .tcp_timeouts
        .get(&FlowId(0))
        .copied()
        .unwrap_or(0);
    out.note(format!(
        "TCP RTO events — WGTT: {wt}, Enhanced 802.11r: {bt} (paper: baseline hits a fatal timeout ≈5.9 s)"
    ));
    out.note(format!(
        "switches — WGTT: {} (≈5/s in the paper), 802.11r: {}",
        w.world.report.switches, b.world.report.switches
    ));
    out
}

/// Fig. 15: same timeline for UDP.
pub fn fig15(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig15",
        "UDP throughput and serving AP over a 15 mph drive",
        &["system", "t (s)", "Mbit/s", "AP"],
    );
    let w = drive(
        wgtt(),
        15.0,
        FlowSpec::DownlinkUdp { rate_mbps: 30.0 },
        seed,
    );
    timeline(&w, "WGTT", &mut out);
    let b = drive(
        SystemKind::Enhanced80211r,
        15.0,
        FlowSpec::DownlinkUdp { rate_mbps: 30.0 },
        seed,
    );
    timeline(&b, "802.11r", &mut out);
    out.note(format!(
        "switches — WGTT: {}, 802.11r: {} (paper: 802.11r switches only 3× in 10 s)",
        w.world.report.switches, b.world.report.switches
    ));
    out
}

/// Fig. 16: CDF of the PHY bit rate of transmitted frames at 15 mph.
pub fn fig16(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig16",
        "Link bit-rate CDF at 15 mph (Mbit/s)",
        &["system", "flow", "p10", "p50", "p90", "mean", "CDF"],
    );
    for (sys, name) in [(wgtt(), "WGTT"), (SystemKind::Enhanced80211r, "802.11r")] {
        for (spec, fname) in [
            (FlowSpec::DownlinkTcpBulk, "TCP"),
            (FlowSpec::DownlinkUdp { rate_mbps: 30.0 }, "UDP"),
        ] {
            let run = drive(sys, 15.0, spec, seed);
            let d = run
                .world
                .report
                .bitrate_series
                .get(&CLIENT)
                .cloned()
                .unwrap_or_default();
            out.row(vec![
                name.into(),
                fname.into(),
                d.quantile(0.1).map(|v| f(v, 1)).unwrap_or("-".into()),
                d.quantile(0.5).map(|v| f(v, 1)).unwrap_or("-".into()),
                d.quantile(0.9).map(|v| f(v, 1)).unwrap_or("-".into()),
                d.mean().map(|v| f(v, 1)).unwrap_or("-".into()),
                rate_steps(&d),
            ]);
        }
    }
    out.note("CDF: `rate:share`, the share of A-MPDUs sent at or below each MCS rate that occurs");
    out.note("paper: WGTT's 90th-percentile bit rate ≈70 Mbit/s, ≈30 above Enhanced 802.11r");
    out
}

/// The CDF's step at each distinct rate — the last `cdf()` point of each
/// run of equal values — as space-separated `rate:share` pairs.
fn rate_steps(d: &Distribution) -> String {
    let steps: Vec<String> = d
        .cdf()
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let (rate, share) = run[run.len() - 1];
            format!("{}:{}", f(rate, 1), f(share, 2))
        })
        .collect();
    if steps.is_empty() {
        "-".into()
    } else {
        steps.join(" ")
    }
}

/// Table 2: switching accuracy — fraction of time the serving AP is the
/// instantaneous max-ESNR AP.
pub fn table2(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "table2",
        "Switching accuracy at 15 mph (% of in-coverage time on the oracle-best AP)",
        &["flow", "WGTT %", "Enhanced 802.11r %"],
    );
    for (spec, name) in [
        (FlowSpec::DownlinkTcpBulk, "TCP"),
        (FlowSpec::DownlinkUdp { rate_mbps: 30.0 }, "UDP"),
    ] {
        let acc = |sys: SystemKind| -> f64 {
            let run = drive(sys, 15.0, spec, seed);
            run.world.selection_accuracy().percent()
        };
        out.row(vec![
            name.into(),
            f(acc(wgtt()), 2),
            f(acc(SystemKind::Enhanced80211r), 2),
        ]);
    }
    out.note("paper: 90.12/91.38 % (WGTT) vs 20.24/18.72 % (Enhanced 802.11r)");
    out
}
