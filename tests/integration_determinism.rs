//! The reproducibility contract: a run is a pure function of its
//! configuration and seed.

use wgtt::WgttConfig;
use wgtt_net::packet::FlowId;
use wgtt_scenario::testbed::{ClientPlan, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, SystemKind, World};
use wgtt_sim::time::{SimDuration, SimTime};

fn fingerprint(system: SystemKind, seed: u64) -> (u64, u64, u64, [u64; 4]) {
    let cfg = TestbedConfig::paper_array().with_clients(vec![ClientPlan::drive_by(15.0)]);
    let mut w = World::new(
        cfg,
        system,
        vec![FlowSpec::DownlinkUdp { rate_mbps: 20.0 }],
        seed,
    );
    w.traffic_start = SimTime::from_millis(500);
    w.run(SimDuration::from_secs(6));
    let m = &w.report.flow_meters[&FlowId(0)];
    let (fwd, dup) = w.report.uplink_dedup;
    (
        m.total_bytes(),
        w.report.switches,
        fwd + dup,
        [
            w.report.events_handled,
            w.report.frames_on_air,
            w.report.ba_timeouts,
            w.report.forwarded_ba_used,
        ],
    )
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = fingerprint(SystemKind::Wgtt(WgttConfig::default()), 99);
    let b = fingerprint(SystemKind::Wgtt(WgttConfig::default()), 99);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(SystemKind::Wgtt(WgttConfig::default()), 99);
    let b = fingerprint(SystemKind::Wgtt(WgttConfig::default()), 100);
    assert_ne!(
        (a.0, a.1, a.2),
        (b.0, b.1, b.2),
        "different seeds must explore different randomness"
    );
}

#[test]
fn baseline_runs_are_also_deterministic() {
    let a = fingerprint(SystemKind::Enhanced80211r, 7);
    let b = fingerprint(SystemKind::Enhanced80211r, 7);
    assert_eq!(a, b);
}

#[test]
fn load_aware_policy_runs_are_bit_identical() {
    let cfg = WgttConfig {
        switch_policy: wgtt::SwitchPolicyKind::LoadAware,
        ..Default::default()
    };
    let a = fingerprint(SystemKind::Wgtt(cfg), 99);
    let b = fingerprint(SystemKind::Wgtt(cfg), 99);
    assert_eq!(a, b);
}

/// Ids used for the `--jobs` determinism checks: small enough to run
/// quickly in the debug profile, repeated so four workers actually
/// contend for the pull queue.
const JOBS_TEST_IDS: [&str; 4] = ["fig2", "fig4", "fig2", "fig4"];

#[test]
fn parallel_render_is_byte_identical_to_sequential() {
    // Workers race only for *which* experiment to pull, never for what
    // it produces; outputs are reassembled in request order. Therefore
    // `--jobs N` must be a pure speed knob.
    let ids: Vec<String> = JOBS_TEST_IDS.iter().map(|s| s.to_string()).collect();
    let sequential = wgtt_scenario::experiments::render_all(&ids, 7, true, false, 1);
    let parallel = wgtt_scenario::experiments::render_all(&ids, 7, true, false, 4);
    assert_eq!(
        sequential.as_bytes(),
        parallel.as_bytes(),
        "--jobs must not change rendered experiment output"
    );
    assert!(!sequential.is_empty());
}

#[test]
fn cli_jobs_flag_is_byte_identical() {
    // Same contract, end to end through the real `wgtt-experiments`
    // binary: `--jobs 4` stdout is byte-identical to `--jobs 1`.
    let run = |jobs: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wgtt-experiments"))
            .args(["--quick", "--seed", "7", "--jobs", jobs])
            .args(JOBS_TEST_IDS)
            .output()
            .expect("wgtt-experiments runs");
        assert!(out.status.success(), "exit status for --jobs {jobs}");
        out.stdout
    };
    let sequential = run("1");
    let parallel = run("4");
    assert!(!sequential.is_empty());
    assert_eq!(sequential, parallel, "--jobs changed CLI output bytes");
}

#[test]
fn systems_share_the_channel_realization() {
    // The *radio* draw is seed-keyed, not system-keyed: comparing systems
    // at equal seeds compares them over the same fading realization, and
    // the bare radio links Figs. 2, 10 and 21 sample are that realization
    // too. A WGTT and an Enhanced 802.11r world at one seed each report
    // every AP's ESNR trace; both must equal `radio_links` at every
    // sampling tick, bit for bit (the worlds consume RNG differently
    // otherwise, which is expected).
    use wgtt_mac::frame::NodeId;
    use wgtt_radio::Modulation;
    // `plan` is the one 15 mph drive-by the links were built for.
    let (links, plan) = wgtt_scenario::experiments::motivation::radio_links(8, 15.0, 5);
    for system in [
        SystemKind::Wgtt(WgttConfig::default()),
        SystemKind::Enhanced80211r,
    ] {
        let cfg = TestbedConfig::paper_array().with_clients(vec![plan]);
        let transit = cfg.transit_time(&plan).expect("the drive moves");
        let mut w = World::new(cfg, system, vec![], 5);
        w.run(transit);
        let client = w.client_ids()[0];
        for (ai, link) in links.iter().enumerate() {
            let trace = w.esnr_trace(client, NodeId(ai as u32));
            assert!(!trace.is_empty());
            for &(t, esnr) in trace.points() {
                let want = link.esnr_db_at(t, plan.position_at(t), Modulation::Qam16);
                assert_eq!(esnr.to_bits(), want.to_bits(), "AP{ai} at {t:?}");
            }
        }
    }
}
