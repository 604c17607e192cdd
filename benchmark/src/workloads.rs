//! The seven workloads, and the one way each is built and driven.
//!
//! One *operation* is one (workload, seed) simulation: [`build`] takes
//! it up to the first `advance_until` (that is `setup_s`), [`run`] takes
//! it from there through `finish()` and the report reduction (that is
//! what `sim_rate` times). The traced pass drives exactly the same code
//! with a [`Recorder`] attached, which only adds clock reads at the
//! call boundaries and cuts the advance into 10 ms-of-sim slices.

use crate::spans::{spanned, Recorder};
use std::collections::BTreeMap;
use wgtt::WgttConfig;
use wgtt_apps::mix::AppKind;
use wgtt_scenario::fleet::{FleetConfig, FleetReport};
use wgtt_scenario::shard::DEFAULT_SYNC_WINDOW;
use wgtt_scenario::testbed::{ClientPlan, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, RunReport, SystemKind, World};
use wgtt_sim::metrics::ThroughputMeter;
use wgtt_sim::time::{SimDuration, SimTime};

/// Length of one `scenario.advance` span, in simulated time.
pub const SLICE: SimDuration = SimDuration::from_millis(10);
/// Outages shorter than this are contention, not stalls (the paper's
/// sub-200 ms claim, and `world::OUTAGE_MIN`).
const OUTAGE_THRESHOLD_S: f64 = 0.2;

#[derive(Clone, Copy)]
pub enum Shape {
    /// One client driving past the paper's eight-AP array at 15 mph for
    /// the full transit.
    Drive { wgtt: bool, flow: FlowSpec },
    /// A generated corridor fleet under WGTT. `sharded` drives the
    /// districts as separate worlds in 300 µs windows, the schedule of
    /// `run_sharded` on one worker; otherwise one monolithic `World`.
    Corridor {
        vehicles: usize,
        aps: usize,
        millis: u64,
        districts: usize,
        sharded: bool,
    },
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Seeds simulated per run: `--seed`, `--seed` + 1, ...
    pub seeds: u64,
    pub shape: Shape,
}

pub const ALL: [Workload; 7] = [
    Workload {
        name: "drive_downlink",
        why: "The paper's headline run, TCP bulk to one car passing eight picocells: the one \
              workload where controller fan-out and net::tcp timers (92 % of events) weigh \
              beside the frame path.",
        seeds: 32,
        shape: Shape::Drive {
            wgtt: true,
            flow: FlowSpec::DownlinkTcpBulk,
        },
    },
    Workload {
        name: "drive_uplink",
        why: "Same drive, 10 Mbit/s UDP uplink: every frame costs an 8-AP ESNR map and a \
              dedup lookup and nothing fans out (TxEnd is 73 % of CPU), so a downlink gain \
              paid for by uplink shows.",
        seeds: 16,
        shape: Shape::Drive {
            wgtt: true,
            flow: FlowSpec::UplinkUdp { rate_mbps: 10.0 },
        },
    },
    Workload {
        name: "drive_baseline",
        why: "Same drive under Enhanced 802.11r: bypasses crates/core entirely, so a \
              controller or selector change must not move it; gives the WGTT/baseline ratio.",
        seeds: 128,
        shape: Shape::Drive {
            wgtt: false,
            flow: FlowSpec::DownlinkTcpBulk,
        },
    },
    Workload {
        name: "corridor_smoke",
        why: "CI-scale fleet, 10 vehicles x 8 APs for 10 s: the apps mix and contention are \
              present; backhaul fan-out is most of the events, TxEnd and the PHY over half \
              the CPU.",
        seeds: 32,
        shape: Shape::Corridor {
            vehicles: 10,
            aps: 8,
            millis: 10_000,
            districts: 1,
            sharded: false,
        },
    },
    Workload {
        name: "corridor_dense",
        why: "The ROADMAP's 200 x 32 corridor, first 0.75 s: 80 % of events are CtlPoll, yet \
              queue pop + CtlPoll and the 31-AP TxEnd each take about a third of the CPU, \
              so engine and PHY gains both show.",
        seeds: 16,
        shape: Shape::Corridor {
            vehicles: 200,
            aps: 32,
            millis: 750,
            districts: 1,
            sharded: false,
        },
    },
    Workload {
        name: "district_mono",
        why: "96 x 64 in 4 districts for 1 s on the monolithic engine: the scenario of ROADMAP \
              item 2's acceptance line (cost should follow the neighbourhood, not the world).",
        seeds: 8,
        shape: Shape::Corridor {
            vehicles: 96,
            aps: 64,
            millis: 1_000,
            districts: 4,
            sharded: false,
        },
    },
    Workload {
        name: "district_shard",
        why: "Identical physics as four small worlds in 300 us windows plus a merge; \
              district_mono / district_shard is the superlinearity, and digests must match.",
        seeds: 16,
        shape: Shape::Corridor {
            vehicles: 96,
            aps: 64,
            millis: 1_000,
            districts: 4,
            sharded: true,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Seeds per run; `--quick` simulates one.
    pub fn seed_count(&self, quick: bool) -> u64 {
        if quick {
            1
        } else {
            self.seeds
        }
    }

    /// The corridor configuration, `None` for a drive. `--quick` cuts a
    /// corridor to at most 1 s; a drive keeps its full transit (under
    /// half a CPU second), because a 1 s drive never reaches coverage.
    pub fn fleet_config(&self, quick: bool) -> Option<FleetConfig> {
        let Shape::Corridor {
            vehicles,
            aps,
            millis,
            districts,
            ..
        } = self.shape
        else {
            return None;
        };
        let mut cfg = FleetConfig::corridor(vehicles, aps);
        cfg.duration = SimDuration::from_millis(if quick { millis.min(1_000) } else { millis });
        cfg.districts = districts;
        Some(cfg)
    }
}

fn wgtt_system() -> SystemKind {
    SystemKind::Wgtt(WgttConfig::default())
}

/// An operation taken up to its first `advance_until`.
pub struct Built {
    worlds: Vec<(World, Vec<AppKind>)>,
    /// `None` for a drive.
    fleet: Option<FleetConfig>,
    duration: SimDuration,
    /// Advance in windows of this width (the sharded schedule).
    window: Option<SimDuration>,
    /// `None` for a corridor.
    drive: Option<Drive>,
}

/// What `reduce` needs to know about a drive: the system under test and
/// whether the one client carries a downlink flow.
#[derive(Clone, Copy)]
struct Drive {
    wgtt: bool,
    downlink: bool,
}

/// Counts read from the finished worlds' `RunReport`s, for the per-layer
/// metrics that are ratios of work done rather than times.
#[derive(Default, Clone, Copy)]
pub struct LayerCounts {
    pub tcp_timeouts: u64,
    pub ba_collisions: u64,
    pub ba_responses: u64,
    pub uplink_forwarded: u64,
    pub uplink_duplicates: u64,
    pub switch_time_s: f64,
    pub switches_timed: u64,
    pub vehicles: u64,
}

impl LayerCounts {
    fn add_report(&mut self, r: &RunReport, vehicles: usize) {
        self.tcp_timeouts += r.tcp_timeouts.values().sum::<u64>();
        self.ba_collisions += r.ba_collisions.get();
        self.ba_responses += r.ba_responses.get();
        self.uplink_forwarded += r.uplink_dedup.0;
        self.uplink_duplicates += r.uplink_dedup.1;
        let n = r.switch_durations.len() as u64;
        self.switch_time_s += r.switch_durations.mean().unwrap_or(0.0) * n as f64;
        self.switches_timed += n;
        self.vehicles += vehicles as u64;
    }

    pub fn add(&mut self, o: &LayerCounts) {
        self.tcp_timeouts += o.tcp_timeouts;
        self.ba_collisions += o.ba_collisions;
        self.ba_responses += o.ba_responses;
        self.uplink_forwarded += o.uplink_forwarded;
        self.uplink_duplicates += o.uplink_duplicates;
        self.switch_time_s += o.switch_time_s;
        self.switches_timed += o.switches_timed;
        self.vehicles += o.vehicles;
    }
}

/// What one finished operation delivered, all of it simulated and
/// therefore exactly repeatable.
pub struct Outcome {
    pub sim_s: f64,
    /// Application bytes delivered over every flow.
    pub bytes: u64,
    /// Total delivery gaps of at least 200 ms, seconds, over the
    /// `watched_clients`: the clients with a downlink flow, or the one
    /// client of an uplink-only drive (gaps at the server).
    pub outage_s: f64,
    pub watched_clients: u64,
    pub events: u64,
    pub frames: u64,
    pub switches: u64,
    /// Hash of the sorted-key dump of everything above plus per-flow
    /// byte and UDP counts (and the fleet's equivalence digest).
    pub fingerprint: u64,
    /// Hash of `FleetReport::equivalence_digest`; `None` for a drive.
    pub digest: Option<u64>,
    /// Why the operation counts as failed; empty when it passed.
    pub faults: Vec<String>,
    pub counts: LayerCounts,
}

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Build the operation's world(s) and bootstrap them.
pub fn build(w: &Workload, seed: u64, quick: bool, mut rec: Option<&mut Recorder>) -> Built {
    let rec = &mut rec;
    let mut built = match w.shape {
        Shape::Drive { wgtt, flow } => {
            let (cfg, duration) = spanned(rec, "scenario.generate", || {
                let testbed = TestbedConfig::paper_array();
                let plan = ClientPlan::drive_by(15.0);
                let duration = testbed.transit_time(&plan).expect("a moving client");
                (testbed.with_clients(vec![plan]), duration)
            });
            let system = if wgtt {
                wgtt_system()
            } else {
                SystemKind::Enhanced80211r
            };
            let world = spanned(rec, "scenario.world_new", || {
                World::new(cfg, system, vec![flow], seed)
            });
            Built {
                worlds: vec![(world, Vec::new())],
                fleet: None,
                duration,
                window: None,
                drive: Some(Drive {
                    wgtt,
                    downlink: !matches!(
                        flow,
                        FlowSpec::UplinkUdp { .. } | FlowSpec::UplinkConference { .. }
                    ),
                }),
            }
        }
        Shape::Corridor { sharded, .. } => {
            let cfg = w.fleet_config(quick).expect("a corridor");
            // These are the bodies of `FleetConfig::build_world` and
            // `FleetConfig::district_worlds`, split only so that plan
            // generation and world construction get a span each; the
            // crate's tests pin the result to `FleetConfig::run` and
            // `run_sharded`.
            let plans: Vec<_> = spanned(rec, "scenario.generate", || {
                if sharded {
                    cfg.district_plan(seed)
                        .into_iter()
                        .map(|p| (p.cfg, p.kinds, p.flows))
                        .collect()
                } else {
                    vec![cfg.generate(seed)]
                }
            });
            let worlds = spanned(rec, "scenario.world_new", || {
                plans
                    .into_iter()
                    .map(|(testbed, kinds, flows)| {
                        let mut world = World::new_multi(testbed, wgtt_system(), flows, seed);
                        world.sample_lean = true;
                        (world, kinds)
                    })
                    .collect()
            });
            Built {
                worlds,
                duration: cfg.duration,
                window: sharded.then_some(DEFAULT_SYNC_WINDOW),
                fleet: Some(cfg),
                drive: None,
            }
        }
    };
    spanned(rec, "scenario.begin", || {
        for (world, _) in &mut built.worlds {
            world.begin(built.duration);
        }
    });
    built
}

/// Advance `world` to `until`: straight, or window by window from
/// `*edge` (the last window edge reached), as `run_sharded` does.
fn advance(world: &mut World, until: SimTime, window: Option<SimDuration>, edge: &mut SimTime) {
    if let Some(w) = window {
        while *edge + w <= until {
            *edge += w;
            world.advance_until(*edge);
        }
    }
    world.advance_until(until);
}

/// Drive a built operation to its end and reduce it.
pub fn run(built: &mut Built, mut rec: Option<&mut Recorder>) -> Outcome {
    let end = SimTime::ZERO + built.duration;
    // District worlds run one after the other, each to completion: the
    // order `run_sharded` uses on a single worker.
    for (world, _) in &mut built.worlds {
        let mut edge = SimTime::ZERO;
        match rec.as_deref_mut() {
            None => advance(world, end, built.window, &mut edge),
            Some(r) => {
                let mut t = SimTime::ZERO;
                while t < end {
                    t = (t + SLICE).min(end);
                    let (e0, f0) = (world.report.events_handled, world.report.frames_on_air);
                    r.open("scenario.advance");
                    advance(world, t, built.window, &mut edge);
                    r.close(
                        world.report.events_handled - e0,
                        world.report.frames_on_air - f0,
                    );
                }
            }
        }
        spanned(&mut rec, "scenario.finish", || world.finish());
    }
    reduce(built, rec)
}

fn reduce(built: &Built, mut rec: Option<&mut Recorder>) -> Outcome {
    if let Some(r) = rec.as_deref_mut() {
        r.open("scenario.reduce");
    }
    let mut dump: BTreeMap<String, String> = BTreeMap::new();
    let mut out = Outcome {
        sim_s: built.duration.as_secs_f64(),
        bytes: 0,
        outage_s: 0.0,
        watched_clients: 0,
        events: 0,
        frames: 0,
        switches: 0,
        fingerprint: 0,
        digest: None,
        faults: Vec::new(),
        counts: LayerCounts::default(),
    };
    let mut misaddressed = 0;
    let mut missing_refs = 0;
    let mut parts = Vec::new();
    for (wi, (world, kinds)) in built.worlds.iter().enumerate() {
        let r = &world.report;
        out.events += r.events_handled;
        out.frames += r.frames_on_air;
        out.switches += r.switches;
        misaddressed += r.backhaul_misaddressed;
        missing_refs += r.missing_packet_refs;
        for (flow, meter) in &r.flow_meters {
            out.bytes += meter.total_bytes();
            dump.insert(
                format!("world{wi}.flow{:05}.bytes", flow.0),
                meter.total_bytes().to_string(),
            );
        }
        for (flow, (sent, got)) in &r.udp_counts {
            dump.insert(
                format!("world{wi}.flow{:05}.udp", flow.0),
                format!("{sent}/{got}"),
            );
        }
        out.counts.add_report(r, world.client_ids().len());
        match &built.fleet {
            Some(cfg) => parts.push(FleetReport::from_world(world, kinds, cfg)),
            None => {
                out.watched_clients += 1;
                if built.drive.expect("a drive").downlink {
                    // The world's own record of the client's downlink
                    // gaps (each already >= 200 ms).
                    for d in r.outage_durations.values() {
                        out.outage_s += d.cdf().iter().map(|&(v, _)| v).sum::<f64>();
                    }
                } else {
                    // The world records no outage for an uplink-only
                    // client, so its gaps are read off the flow's
                    // delivery meter at the server.
                    for meter in r.flow_meters.values() {
                        out.outage_s += meter_gaps_s(meter, built.duration);
                    }
                }
            }
        }
    }
    if let Some(r) = rec.as_deref_mut() {
        r.close(0, 0);
    }

    if let Some(cfg) = &built.fleet {
        let report = if parts.len() == 1 {
            parts.pop().expect("one world")
        } else {
            spanned(&mut rec, "scenario.merge", || {
                FleetReport::merge(parts, cfg)
            })
        };
        out.outage_s = report.outage_time_over(OUTAGE_THRESHOLD_S);
        out.watched_clients = report.per_vehicle.iter().filter(|v| v.has_downlink).count() as u64;
        let digest = report.equivalence_digest();
        out.digest = Some(fnv1a(&digest));
        dump.insert("digest".into(), digest);
    }

    dump.insert("events_handled".into(), out.events.to_string());
    dump.insert("frames_on_air".into(), out.frames.to_string());
    dump.insert("switches".into(), out.switches.to_string());
    let text: String = dump.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    out.fingerprint = fnv1a(&text);

    if misaddressed != 0 {
        out.faults
            .push(format!("backhaul_misaddressed = {misaddressed}"));
    }
    if missing_refs != 0 {
        out.faults
            .push(format!("missing_packet_refs = {missing_refs}"));
    }
    if out.bytes == 0 {
        out.faults.push("zero delivered bytes".into());
    }
    if built.drive.is_some_and(|d| d.wgtt) && out.switches == 0 {
        out.faults.push("zero switches in a WGTT drive".into());
    }
    out
}

/// Total length of the delivery gaps of at least 200 ms in `meter` over
/// `[0, duration)`, leading and trailing ones included, at the 10 ms
/// resolution of `ThroughputMeter::binned_mbps`.
fn meter_gaps_s(meter: &ThroughputMeter, duration: SimDuration) -> f64 {
    let bins = (duration.as_nanos() / SLICE.as_nanos()) as usize;
    let mut total = 0.0;
    let mut idle = 0usize;
    let mut close = |idle: &mut usize| {
        let gap = *idle as f64 * SLICE.as_secs_f64();
        if gap >= OUTAGE_THRESHOLD_S {
            total += gap;
        }
        *idle = 0;
    };
    for mbps in meter.binned_mbps(SimTime::ZERO, SLICE, bins) {
        if mbps == 0.0 {
            idle += 1;
        } else {
            close(&mut idle);
        }
    }
    close(&mut idle);
    total
}

/// `run_sharded` itself: on one worker the reference the crate's tests
/// check the benchmark's own windowed drive of `district_shard` against,
/// on two the traced pass's one multi-thread measurement.
pub fn run_sharded_reference(w: &Workload, seed: u64, quick: bool, workers: usize) -> FleetReport {
    let cfg = w.fleet_config(quick).expect("a corridor");
    wgtt_scenario::shard::run_sharded(&cfg, wgtt_system(), seed, workers, None)
}

/// `FleetConfig::run` itself: the straight monolithic run the split and
/// sliced drive is checked against.
#[cfg(test)]
fn fleet_run_reference(w: &Workload, seed: u64, quick: bool) -> FleetReport {
    let cfg = w.fleet_config(quick).expect("a corridor");
    cfg.run(wgtt_system(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, seed: u64, rec: Option<&mut Recorder>) -> Outcome {
        let w = find(name).expect("a workload by that name");
        let mut rec = rec;
        let mut built = build(w, seed, true, rec.as_deref_mut());
        run(&mut built, rec)
    }

    /// Slicing the advance into 10 ms spans must not change a single
    /// observable: that is what lets the traced pass speak for the
    /// untraced one.
    #[test]
    fn sliced_traced_run_has_the_straight_runs_fingerprint() {
        for name in ["drive_uplink", "corridor_smoke", "district_shard"] {
            let straight = outcome(name, 3, None);
            let mut rec = Recorder::new();
            let sliced = outcome(name, 3, Some(&mut rec));
            assert_eq!(straight.fingerprint, sliced.fingerprint, "{name}");
            assert_eq!(straight.events, sliced.events, "{name}");
            let slices = rec.named("scenario.advance").count();
            assert!(slices >= 100, "{name}: only {slices} slices");
            let in_slices: u64 = rec.named("scenario.advance").map(|s| s.events).sum();
            assert_eq!(in_slices, sliced.events, "{name}: events outside any slice");
        }
    }

    /// `build` + `run` re-state the three lines of `FleetConfig::run`;
    /// this pins them to it.
    #[test]
    fn split_monolithic_run_equals_fleet_config_run() {
        for name in ["corridor_smoke", "district_mono"] {
            let w = find(name).expect("a workload by that name");
            let reference = fleet_run_reference(w, 5, true);
            let ours = outcome(name, 5, None);
            assert_eq!(
                ours.digest,
                Some(fnv1a(&reference.equivalence_digest())),
                "{name}"
            );
            assert_eq!(ours.events, reference.events_handled, "{name}");
            assert_eq!(ours.frames, reference.frames_on_air, "{name}");
        }
    }

    /// The benchmark's own windowed drive of the districts is the
    /// schedule `run_sharded` runs on one worker, event for event, and
    /// the monolithic engine agrees with both on every observable.
    #[test]
    fn windowed_district_drive_equals_run_sharded_and_the_monolith() {
        let shard = find("district_shard").expect("a workload by that name");
        let reference = run_sharded_reference(shard, 5, true, 1);
        let ours = outcome("district_shard", 5, None);
        let mono = outcome("district_mono", 5, None);
        assert_eq!(ours.digest, Some(fnv1a(&reference.equivalence_digest())));
        assert_eq!(ours.events, reference.events_handled);
        assert_eq!(mono.digest, ours.digest);
        assert_eq!(mono.bytes, ours.bytes);
        assert!(mono.events > ours.events, "the monolith's event excess");
    }

    #[test]
    fn quick_operations_pass_their_own_checks() {
        for w in &ALL {
            let out = outcome(w.name, 1, None);
            assert!(out.faults.is_empty(), "{}: {:?}", w.name, out.faults);
            assert!(out.watched_clients >= 1, "{}", w.name);
            assert!(out.outage_s.is_finite(), "{}", w.name);
        }
    }

    #[test]
    fn meter_gaps_count_leading_inner_and_trailing_gaps_of_200_ms() {
        let mut meter = ThroughputMeter::new();
        // Deliveries at 250 ms, 300 ms, 600 ms and 650 ms of a 1 s run:
        // a 250 ms lead, a 290 ms hole, and a 340 ms tail count; the
        // 40 ms pauses do not.
        for ms in [250, 300, 600, 650] {
            meter.record(SimTime::from_millis(ms), 1500);
        }
        let total = meter_gaps_s(&meter, SimDuration::from_secs(1));
        assert!((total - (0.25 + 0.29 + 0.34)).abs() < 1e-9, "{total}");
    }

    #[test]
    fn workload_names_and_reasons_fit_the_manifest_limits() {
        assert!((2..=8).contains(&ALL.len()));
        for w in &ALL {
            assert!(crate::names::is_valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
