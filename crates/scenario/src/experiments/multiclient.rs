//! Multi-client results: Figs. 17, 18, and 20.

use crate::experiments::common::{drive_multi, mps, udp_loss, wgtt, DriveRun};
use crate::results::{f, ExperimentOutput};
use crate::testbed::{ClientPlan, TestbedConfig};
use crate::world::{FlowSpec, SystemKind, World};
use wgtt_net::packet::FlowId;
use wgtt_sim::time::{SimDuration, SimTime};

/// Fig. 17: average per-client downlink throughput with 1–3 clients in a
/// 15 mph convoy.
pub fn fig17(seed: u64, quick: bool) -> ExperimentOutput {
    let counts: &[usize] = if quick { &[1, 3] } else { &[1, 2, 3] };
    let mut out = ExperimentOutput::new(
        "fig17",
        "Per-client downlink throughput vs number of clients (15 mph, Mbit/s)",
        &[
            "clients",
            "TCP WGTT",
            "TCP 802.11r",
            "UDP WGTT",
            "UDP 802.11r",
        ],
    );
    for &n in counts {
        let per_client = |sys: SystemKind, spec_of: &dyn Fn(usize) -> FlowSpec| -> f64 {
            let specs: Vec<(usize, FlowSpec)> = (0..n).map(|i| (i, spec_of(i))).collect();
            let run = drive_multi(sys, 15.0, specs, n, seed);
            let total: f64 = (0..n)
                .map(|i| {
                    run.world
                        .report
                        .flow_meters
                        .get(&FlowId(i as u32))
                        .map(|m| m.mbps_over(run.start, run.end))
                        .unwrap_or(0.0)
                })
                .sum();
            total / n as f64
        };
        let tcp = |_: usize| FlowSpec::DownlinkTcpBulk;
        let udp = |_: usize| FlowSpec::DownlinkUdp { rate_mbps: 15.0 };
        out.row(vec![
            n.to_string(),
            f(per_client(wgtt(), &tcp), 2),
            f(per_client(SystemKind::Enhanced80211r, &tcp), 2),
            f(per_client(wgtt(), &udp), 2),
            f(per_client(SystemKind::Enhanced80211r, &udp), 2),
        ]);
    }
    out.note("paper: gap widens to ≈2.6× (TCP) / 2.4× (UDP) at three clients");
    out
}

/// Fig. 18: uplink UDP loss rate for three clients — WGTT's multi-AP
/// reception vs a single (serving-AP-only) uplink.
pub fn fig18(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig18",
        "Uplink UDP loss rate, three 15 mph clients",
        &[
            "client",
            "WGTT loss",
            "single-link loss",
            "WGTT dup. copies",
        ],
    );
    let specs: Vec<(usize, FlowSpec)> = (0..3)
        .map(|i| (i, FlowSpec::UplinkUdp { rate_mbps: 5.0 }))
        .collect();
    let w = drive_multi(wgtt(), 15.0, specs.clone(), 3, seed);
    let b = drive_multi(SystemKind::Enhanced80211r, 15.0, specs, 3, seed);
    let loss = |run: &DriveRun, i: u32| -> f64 {
        let counts = run.world.report.udp_counts.get(&FlowId(i));
        counts.copied().map_or(1.0, udp_loss)
    };
    let (fwd, dup) = w.world.report.uplink_dedup;
    for i in 0..3u32 {
        out.row(vec![
            format!("client {}", i + 1),
            f(loss(&w, i), 3),
            f(loss(&b, i), 3),
            if i == 0 {
                format!("{dup}/{fwd}")
            } else {
                "".into()
            },
        ]);
    }
    out.note(
        "paper: multi-AP reception keeps loss below 0.02 while a single uplink swings to 0.4+",
    );
    out
}

/// Fig. 20: two-client placement cases — (a) following at 3 m,
/// (b) parallel lanes, (c) opposing directions — at 15 mph.
pub fn fig20(seed: u64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig20",
        "Two-client cases at 15 mph (per-client mean, Mbit/s)",
        &["case", "TCP WGTT", "TCP 802.11r", "UDP WGTT", "UDP 802.11r"],
    );
    let testbed = TestbedConfig::paper_array();
    let road = testbed.road_len();
    let cases: Vec<(&str, Vec<ClientPlan>)> = vec![
        (
            "(a) following",
            vec![ClientPlan::drive_by(15.0), ClientPlan::following(15.0, 3.0)],
        ),
        (
            "(b) parallel",
            vec![ClientPlan::drive_by(15.0), ClientPlan::parallel(15.0)],
        ),
        (
            "(c) opposing",
            vec![ClientPlan::drive_by(15.0), ClientPlan::opposing(15.0, road)],
        ),
    ];
    for (name, plans) in cases {
        let run_case = |sys: SystemKind, spec: FlowSpec| -> f64 {
            let cfg = TestbedConfig::paper_array().with_clients(plans.clone());
            let speed = mps(15.0);
            let start = SimTime::from_secs_f64(7.0 / speed);
            let dur = SimDuration::from_secs_f64((road + 30.0 + 15.0) / speed);
            let mut w = World::new(cfg, sys, vec![spec, spec], seed);
            w.traffic_start = start;
            w.run(dur);
            let end = SimTime::ZERO + dur;
            let total: f64 = (0..2)
                .map(|i| {
                    w.report
                        .flow_meters
                        .get(&FlowId(i))
                        .map(|m| m.mbps_over(start, end))
                        .unwrap_or(0.0)
                })
                .sum();
            total / 2.0
        };
        out.row(vec![
            name.into(),
            f(run_case(wgtt(), FlowSpec::DownlinkTcpBulk), 2),
            f(
                run_case(SystemKind::Enhanced80211r, FlowSpec::DownlinkTcpBulk),
                2,
            ),
            f(
                run_case(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 15.0 }),
                2,
            ),
            f(
                run_case(
                    SystemKind::Enhanced80211r,
                    FlowSpec::DownlinkUdp { rate_mbps: 15.0 },
                ),
                2,
            ),
        ]);
    }
    out.note(
        "paper: (c) opposing best (least contention), (b) parallel worst; WGTT wins all cases",
    );
    out
}
