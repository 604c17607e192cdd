//! One run of one workload: the part of the benchmark that holds a
//! clock. `--trace 0` produces the end-to-end metrics, `--trace 1` the
//! per-layer ones; both finish with the same four-key result line.

use crate::clock::{self, Stopwatch};
use crate::json::Json;
use crate::layers;
use crate::names::{END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, LayerCounts, Outcome, Shape, Workload, SLICE};
use std::time::Instant;
use wgtt_scenario::shard::DEFAULT_SYNC_WINDOW;

pub struct Options {
    pub workload: &'static Workload,
    /// First seed of the panel; the workload simulates `seed`, `seed`+1, ...
    pub seed: u64,
    /// How long to keep measuring. Untraced, the panel always completes
    /// once and what is left of the time goes to repeats; traced, it
    /// bounds how many operations are traced.
    pub seconds: f64,
    /// One seed, one repeat, corridors cut to 1 s.
    pub quick: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything beside the contract's four keys: per-operation
    /// samples, fingerprints, the noise record.
    pub detail: Json,
}

impl Measured {
    /// The line the benchmark's contract asks for, last on stdout.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::Str(m.unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }
}

/// Share of `--seconds` that may go to extra set-up-only builds, and
/// the set-up samples per operation they stop at.
const SETUP_SHARE: f64 = 0.15;
const SETUP_SAMPLES: usize = 5;
/// A workload is marked noisy when its thread waited on the run queue
/// for more than this share of its CPU time.
const NOISY_WAIT_SHARE: f64 = 0.05;

/// One timed operation: (set-up CPU s, run CPU s, run wall s, outcome).
/// With a recorder attached, everything it records sits under one
/// `scenario.operation` span.
fn operate(
    w: &Workload,
    seed: u64,
    quick: bool,
    mut rec: Option<&mut Recorder>,
) -> (f64, f64, f64, Outcome) {
    if let Some(r) = rec.as_deref_mut() {
        r.set_op(format!("{}/{seed}", w.name));
        r.open("scenario.operation");
    }
    let sw = Stopwatch::start();
    let mut built = workloads::build(w, seed, quick, rec.as_deref_mut());
    let setup_cpu = sw.cpu_s();
    let sw = Stopwatch::start();
    let outcome = workloads::run(&mut built, rec.as_deref_mut());
    let (run_cpu, run_wall) = (sw.cpu_s(), sw.wall_s());
    if let Some(r) = rec {
        r.close(outcome.events, outcome.frames);
    }
    // Tearing the worlds down is outside both clocks.
    drop(built);
    (setup_cpu, run_cpu, run_wall, outcome)
}

/// Everything kept about one seed of the panel.
struct Op {
    seed: u64,
    setup_cpu: Vec<f64>,
    run_cpu: Vec<f64>,
    run_wall: Vec<f64>,
    first: Outcome,
    faults: Vec<String>,
}

/// Counts operations and the ones that failed, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, faults: &[String]) {
        self.attempted += 1;
        if !faults.is_empty() {
            self.failed += 1;
            self.reasons.push(format!("{what}: {}", faults.join("; ")));
        }
    }
}

/// The workload whose digest `w`'s must equal: `district_mono` answers
/// to the sharded engine. (That the benchmark's windowed drive of
/// `district_shard` is the schedule `run_sharded` runs is pinned by the
/// crate's tests, not re-proved on every run.)
fn engine_twin(w: &Workload) -> Option<&'static Workload> {
    (w.name == "district_mono").then(|| workloads::find("district_shard").expect("the twin"))
}

/// One more operation, untimed: the same seed on the other engine must
/// reproduce the first operation's `equivalence_digest`.
fn engines_agree(w: &Workload, seed: u64, quick: bool, first: &Outcome, tally: &mut Tally) {
    let Some(twin) = engine_twin(w) else {
        return;
    };
    let (_, _, _, other) = operate(twin, seed, quick, None);
    let mut faults = other.faults;
    if other.digest != first.digest {
        faults.push(format!("equivalence_digest differs from {}'s", twin.name));
    }
    tally.record(&format!("{}/{seed} on {}", w.name, twin.name), &faults);
}

fn hex(h: u64) -> Json {
    Json::Str(format!("{h:016x}"))
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// The noise record of the calling thread since `sw` and `wait0`.
fn noise_record(sw: &Stopwatch, wait0: Option<u64>) -> Json {
    let cpu_s = sw.cpu_s();
    let wait_s = match (wait0, clock::run_queue_wait_ns()) {
        (Some(a), Some(b)) => Some((b - a) as f64 * 1e-9),
        _ => None,
    };
    Json::obj([
        ("wall_s", Json::Num(sw.wall_s())),
        ("cpu_s", Json::Num(cpu_s)),
        ("run_queue_wait_s", wait_s.map_or(Json::Null, Json::Num)),
        (
            "noisy",
            Json::Bool(wait_s.is_some_and(|w| w > NOISY_WAIT_SHARE * cpu_s)),
        ),
    ])
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(o: &Options) -> Result<Measured, String> {
    let started = Instant::now();
    let whole = Stopwatch::start();
    let wait0 = clock::run_queue_wait_ns();
    let w = o.workload;
    let mut tally = Tally::default();

    // Pass 1: the whole panel, once.
    let mut ops: Vec<Op> = (0..w.seed_count(o.quick))
        .map(|i| {
            let seed = o.seed.wrapping_add(i);
            let (setup, cpu, wall, first) = operate(w, seed, o.quick, None);
            tally.record(&format!("{}/{seed}", w.name), &first.faults);
            Op {
                seed,
                setup_cpu: vec![setup],
                run_cpu: vec![cpu],
                run_wall: vec![wall],
                faults: first.faults.clone(),
                first,
            }
        })
        .collect();

    if !o.quick {
        // Extra set-up-only builds, so that `setup_s` is a median.
        let setup_deadline = started.elapsed().as_secs_f64() + SETUP_SHARE * o.seconds;
        'setup: for _ in 1..SETUP_SAMPLES {
            for op in &mut ops {
                if started.elapsed().as_secs_f64() >= setup_deadline {
                    break 'setup;
                }
                let sw = Stopwatch::start();
                let built = workloads::build(w, op.seed, o.quick, None);
                op.setup_cpu.push(sw.cpu_s());
                drop(built);
            }
        }

        // Repeats, round-robin over the panel, for as long as the next
        // one is expected to fit. The first always runs, so that every
        // run checks at least one operation for determinism — except
        // where the other engine re-runs it below, which is the stronger
        // form of that check and costs as much.
        let panel = ops.len();
        for k in 0.. {
            let op = &mut ops[k % panel];
            let expected = stats::min(&op.run_wall) + stats::min(&op.setup_cpu);
            let fits = started.elapsed().as_secs_f64() + expected <= o.seconds;
            if !fits && (k > 0 || engine_twin(w).is_some()) {
                break;
            }
            let (setup, cpu, wall, again) = operate(w, op.seed, o.quick, None);
            op.setup_cpu.push(setup);
            op.run_cpu.push(cpu);
            op.run_wall.push(wall);
            let mut faults = again.faults;
            if again.fingerprint != op.first.fingerprint {
                faults.push(format!(
                    "fingerprint {:016x} differs from the first run's {:016x}",
                    again.fingerprint, op.first.fingerprint
                ));
            }
            tally.record(&format!("{}/{} repeat", w.name, op.seed), &faults);
            op.faults.extend(faults);
        }
    }

    // Before the other engine runs: its worlds are not the workload's.
    let peak_rss_mb = clock::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    engines_agree(w, o.seed, o.quick, &ops[0].first, &mut tally);

    let sim_s: f64 = ops.iter().map(|op| op.first.sim_s).sum();
    let best_cpu_s: f64 = ops.iter().map(|op| stats::min(&op.run_cpu)).sum();
    let bytes: u64 = ops.iter().map(|op| op.first.bytes).sum();
    let outage_s: f64 = ops.iter().map(|op| op.first.outage_s).sum();
    let client_s: f64 = ops
        .iter()
        .map(|op| op.first.watched_clients as f64 * op.first.sim_s)
        .sum();
    let value = |name: &str| match name {
        "setup_s" => ops.iter().map(|op| stats::median(&op.setup_cpu)).sum(),
        "sim_rate" => sim_s / best_cpu_s,
        "peak_rss_mb" => peak_rss_mb,
        "goodput_mbps" => bytes as f64 * 8.0 / 1e6 / sim_s,
        "outage_frac" => outage_s / client_s,
        other => unreachable!("no end-to-end metric is called {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
        })
        .collect();

    let detail = Json::obj([
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Num(o.seed as f64)),
        ("quick", Json::Bool(o.quick)),
        (
            "fingerprint",
            hex(workloads::fnv1a(
                &ops.iter()
                    .map(|op| format!("{:016x}", op.first.fingerprint))
                    .collect::<String>(),
            )),
        ),
        ("failures", strs(&tally.reasons)),
        ("noise", noise_record(&whole, wait0)),
        (
            "operations",
            Json::Arr(
                ops.iter()
                    .map(|op| {
                        Json::obj([
                            ("seed", Json::Num(op.seed as f64)),
                            ("fingerprint", hex(op.first.fingerprint)),
                            ("digest", op.first.digest.map_or(Json::Null, hex)),
                            ("events", Json::Num(op.first.events as f64)),
                            ("frames", Json::Num(op.first.frames as f64)),
                            ("switches", Json::Num(op.first.switches as f64)),
                            ("bytes", Json::Num(op.first.bytes as f64)),
                            ("outage_s", Json::Num(op.first.outage_s)),
                            ("sim_s", Json::Num(op.first.sim_s)),
                            ("setup_cpu_s", nums(&op.setup_cpu)),
                            ("run_cpu_s", nums(&op.run_cpu)),
                            ("run_wall_s", nums(&op.run_wall)),
                            ("faults", strs(&op.faults)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}

fn strs(values: &[String]) -> Json {
    Json::Arr(values.iter().cloned().map(Json::Str).collect())
}

/// The traced pass covers at most the first eighth of the panel: it is
/// there to attribute time, not to average over seeds.
fn traced_seed_count(w: &Workload, quick: bool) -> u64 {
    w.seed_count(quick).div_ceil(8)
}

/// Share of `--seconds` the traced operations may fill. The rest goes
/// to the district pair and the unit-cost probes, which cost the same
/// whatever workload is traced (about 3.5 s on the reference host).
const TRACED_OPS_SHARE: f64 = 0.4;

/// `--trace 1`: the per-layer metrics, and the span file.
pub fn per_layer(o: &Options, out_dir: &std::path::Path) -> Result<Measured, String> {
    let started = Instant::now();
    let whole = Stopwatch::start();
    let wait0 = clock::run_queue_wait_ns();
    let w = o.workload;
    let mut tally = Tally::default();
    let mut rec = Recorder::new();

    // `trace.overhead_frac` compares a traced with an untraced run of
    // the same operation. The first operation of a process pays for
    // faulting its heap in, so one untraced operation goes first, and
    // the order of each pair after it alternates to cancel what drift
    // is left. Pairs run for as long as the next is expected to fit.
    // When not even one does (a short `--seconds`, or an operation of
    // several CPU-s), the warm-up itself stands in as the untraced side
    // of the one traced operation, and the overhead then reads low by
    // the cold start.
    let ops_deadline = TRACED_OPS_SHARE * o.seconds;
    let mut warm_up = Some(operate(w, o.seed, o.quick, None));
    let pair_s = 2.0 * started.elapsed().as_secs_f64();
    let mut untraced_cpu = 0.0;
    let mut traced_cpu = 0.0;
    let mut sim_s = 0.0;
    let (mut events, mut frames, mut bytes, mut switches) = (0u64, 0u64, 0u64, 0u64);
    let mut counts = LayerCounts::default();
    let mut slice_growth = Vec::new();
    let mut first: Option<(Outcome, f64)> = None;
    let mut n_ops = 0u64;
    let mut warm_up_reused = false;
    for i in 0..traced_seed_count(w, o.quick) {
        let fits = started.elapsed().as_secs_f64() + pair_s <= ops_deadline;
        if !fits && i > 0 {
            break;
        }
        let seed = o.seed.wrapping_add(i);
        let first_span = rec.spans.len();
        let (plain, traced) = match warm_up.take().filter(|_| !fits) {
            Some(warm) => {
                warm_up_reused = true;
                (warm, operate(w, seed, o.quick, Some(&mut rec)))
            }
            None if i % 2 == 0 => {
                let plain = operate(w, seed, o.quick, None);
                (plain, operate(w, seed, o.quick, Some(&mut rec)))
            }
            None => {
                let traced = operate(w, seed, o.quick, Some(&mut rec));
                (operate(w, seed, o.quick, None), traced)
            }
        };
        let (_, plain_cpu, _, plain) = plain;
        let (_, cpu, _, traced) = traced;
        tally.record(&format!("{}/{seed}", w.name), &plain.faults);
        let mut faults = traced.faults.clone();
        if traced.fingerprint != plain.fingerprint {
            faults.push(
                "the sliced, traced run's fingerprint differs from the straight run's".into(),
            );
        }
        tally.record(&format!("{}/{seed} traced", w.name), &faults);
        untraced_cpu += plain_cpu;
        traced_cpu += cpu;

        sim_s += traced.sim_s;
        events += traced.events;
        frames += traced.frames;
        bytes += traced.bytes;
        switches += traced.switches;
        counts.add(&traced.counts);
        slice_growth.push(growth(&rec, first_span, traced.sim_s));
        first.get_or_insert((plain, plain_cpu));
        n_ops += 1;
    }
    let (first, first_cpu) = first.expect("a panel has at least one seed");

    let ops = n_ops as f64;
    let advance_cpu_s = rec.total_cpu_s("scenario.advance");
    let slice_us: Vec<f64> = rec
        .named("scenario.advance")
        .map(|s| s.cpu_s() * 1e6)
        .collect();
    let unit = layers::unit_costs();
    let unit_ns = |name: &str| {
        unit.iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("a unit cost by that name")
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // The budget lines are estimates: a unit cost measured in isolation
    // times a count from the run, over the run's advance CPU time.
    let (aps_heard, wgtt, downlink_cost) = match w.shape {
        Shape::Drive { wgtt, .. } => (8.0, wgtt, "core.controller.ns_per_downlink_c1"),
        Shape::Corridor { aps, districts, .. } => (
            // 8 m spacing and a 120 m decode horizon: 15 APs either side.
            ((aps / districts) as f64).min(31.0),
            true,
            "core.controller.ns_per_downlink_c200",
        ),
    };
    let radio_share = ratio(
        frames as f64 * aps_heard * unit_ns("radio.esnr.ns_per_map") * 1e-9,
        advance_cpu_s,
    );
    let queue_share = ratio(
        events as f64 * unit_ns("sim.queue.ns_per_event_d1k") * 1e-9,
        advance_cpu_s,
    );
    // Every overheard frame becomes a CSI report, every 1500 delivered
    // bytes were a packet the controller fanned out.
    let controller_share = if wgtt {
        ratio(
            (frames as f64 * aps_heard * unit_ns("core.controller.ns_per_csi")
                + bytes as f64 / 1500.0 * unit_ns(downlink_cost))
                * 1e-9,
            advance_cpu_s,
        )
    } else {
        0.0
    };

    // Neither the district pair nor the unit costs depend on the traced
    // workload, and both are measured afresh in every traced run all
    // the same: the benchmark's contract has every `--trace 1` run print
    // every per-layer metric as measured in that run, and refuses a time
    // that reads the same on every run, which a cached value would.
    let district = district_probe(w, o, &first, first_cpu);

    let value = |name: &str| -> f64 {
        match name {
            "scenario.world.events_per_sim_s" => events as f64 / sim_s,
            "scenario.world.events_per_frame" => ratio(events as f64, frames as f64),
            "scenario.world.ns_per_event" => ratio(advance_cpu_s * 1e9, events as f64),
            "scenario.world.us_per_frame" => ratio(advance_cpu_s * 1e6, frames as f64),
            "scenario.district.event_excess" => district.event_excess,
            "scenario.district.cpu_ratio" => district.cpu_ratio,
            "scenario.advance.slice_us_p50" => stats::percentile(&slice_us, 0.5),
            "scenario.advance.slice_us_p99" => stats::percentile(&slice_us, 0.99),
            "scenario.advance.slice_growth" => {
                slice_growth.iter().sum::<f64>() / slice_growth.len() as f64
            }
            "scenario.generate_s" => rec.total_cpu_s("scenario.generate") / ops,
            "scenario.world_new_s" => rec.total_cpu_s("scenario.world_new") / ops,
            "scenario.begin_s" => rec.total_cpu_s("scenario.begin") / ops,
            "scenario.finish_s" => rec.total_cpu_s("scenario.finish") / ops,
            "scenario.reduce_s" => rec.total_cpu_s("scenario.reduce") / ops,
            "scenario.merge_s" => rec.total_cpu_s("scenario.merge") / ops,
            "mac.blockack.collision_ratio" => {
                ratio(counts.ba_collisions as f64, counts.ba_responses as f64)
            }
            "net.tcp.timeouts" => counts.tcp_timeouts as f64 / ops,
            "core.dedup.dup_ratio" => ratio(
                counts.uplink_duplicates as f64,
                (counts.uplink_forwarded + counts.uplink_duplicates) as f64,
            ),
            "core.switching.switch_ms_mean" => {
                ratio(counts.switch_time_s * 1e3, counts.switches_timed as f64)
            }
            "core.switching.switches_per_vehicle_min" => {
                ratio(switches as f64, counts.vehicles as f64 / ops * sim_s / 60.0)
            }
            "budget.radio_share_est" => radio_share,
            "budget.queue_share_est" => queue_share,
            "budget.controller_share_est" => controller_share,
            "budget.unattributed_share" => 1.0 - radio_share - queue_share - controller_share,
            "trace.overhead_frac" => traced_cpu / untraced_cpu - 1.0,
            "scenario.shard.wall_speedup_2w" => district.wall_speedup_2w,
            "scenario.shard.cpu_overhead_2w" => district.cpu_overhead_2w,
            "scenario.shard.barrier_rounds" => district.barrier_rounds,
            other => unit_ns(other),
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
        })
        .collect();

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}.json", w.name));
    let file = Json::obj([
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Num(o.seed as f64)),
        (
            "clock",
            Json::Str("thread CPU ns since the recorder started".into()),
        ),
        ("spans", rec.to_json()),
    ]);
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    let detail = Json::obj([
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Num(o.seed as f64)),
        ("quick", Json::Bool(o.quick)),
        ("traced_operations", Json::Num(ops)),
        ("warm_up_reused", Json::Bool(warm_up_reused)),
        ("spans", Json::Num(rec.spans.len() as f64)),
        ("span_file", Json::Str(path.display().to_string())),
        ("fingerprint", hex(first.fingerprint)),
        ("failures", strs(&tally.reasons)),
        ("noise", noise_record(&whole, wait0)),
    ]);
    Ok(Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}

/// Mean cost of the last quarter of an operation's slices over the
/// first quarter's. The slices of a sharded operation are recorded
/// world after world, so a slice's place in simulated time is its
/// index modulo the slices per world.
fn growth(rec: &Recorder, first_span: usize, sim_s: f64) -> f64 {
    let per_world = (sim_s / SLICE.as_secs_f64()).ceil() as usize;
    let quarter = (per_world / 4).max(1);
    let (mut head, mut tail) = (0.0, 0.0);
    for (i, s) in rec.spans[first_span..]
        .iter()
        .filter(|s| s.name == "scenario.advance")
        .enumerate()
    {
        let at = i % per_world;
        if at < quarter {
            head += s.cpu_s();
        } else if at >= per_world - quarter {
            tail += s.cpu_s();
        }
    }
    if head > 0.0 {
        tail / head
    } else {
        0.0
    }
}

struct DistrictProbe {
    event_excess: f64,
    cpu_ratio: f64,
    wall_speedup_2w: f64,
    cpu_overhead_2w: f64,
    barrier_rounds: f64,
}

/// The district pair, always on the 96 x 64 scenario whatever workload
/// is being traced: the monolithic engine against the four-world one,
/// and `run_sharded` on two workers against one. When the traced
/// workload is one of the pair, its own first operation is reused.
fn district_probe(w: &Workload, o: &Options, first: &Outcome, first_cpu: f64) -> DistrictProbe {
    let mono = workloads::find("district_mono").expect("a workload called district_mono");
    let shard = workloads::find("district_shard").expect("a workload called district_shard");
    let side = |which: &'static Workload| -> (f64, f64) {
        if std::ptr::eq(which, w) {
            (first_cpu, first.events as f64)
        } else {
            let (_, cpu, _, out) = operate(which, o.seed, o.quick, None);
            (cpu, out.events as f64)
        }
    };
    let (mono_cpu, mono_events) = side(mono);
    let (shard_cpu, shard_events) = side(shard);

    // The two-worker comparison never runs more than 1 s of the
    // scenario: with a barrier every 300 us, a busy neighbour on the
    // second core stretched a 4 s run by an order of magnitude, and the
    // ratio does not need the length.
    let cfg = shard.fleet_config(true).expect("a corridor");
    let barrier_rounds = (cfg.duration.as_nanos() / DEFAULT_SYNC_WINDOW.as_nanos()) as f64;

    // The only place the benchmark uses a second thread, and only on a
    // host that has a second core to give it.
    let (wall_speedup_2w, cpu_overhead_2w) = if crate::host::cores() >= 2 {
        let timed = |workers: usize| {
            let cpu0 = clock::process_cpu_ns();
            let wall = Instant::now();
            let report = workloads::run_sharded_reference(shard, o.seed, true, workers);
            std::hint::black_box(report);
            (
                wall.elapsed().as_secs_f64(),
                (clock::process_cpu_ns() - cpu0) as f64 * 1e-9,
            )
        };
        let (wall_1w, cpu_1w) = timed(1);
        let (wall_2w, cpu_2w) = timed(2);
        (wall_1w / wall_2w, cpu_2w / cpu_1w - 1.0)
    } else {
        (0.0, 0.0)
    };
    DistrictProbe {
        event_excess: mono_events / shard_events,
        cpu_ratio: mono_cpu / shard_cpu,
        wall_speedup_2w,
        cpu_overhead_2w,
        barrier_rounds,
    }
}
