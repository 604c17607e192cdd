//! The names every later performance claim must use: each metric with
//! its unit and direction, and for the end-to-end ones the regression
//! bound. `BENCHMARK.json` at the repository root declares the same
//! tables; the crate's tests keep the two identical.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression. Sized against runs of
    /// *different* seeds, as the benchmark's acceptance is.
    pub bound: f64,
    /// Simulated, not timed: digit-identical for a given seed, so two
    /// results files of the same seed are judged at
    /// [`SAME_SEED_SIMULATED_BOUND`] instead.
    pub simulated: bool,
}

/// What a simulated metric may lose between two runs of the same seed.
/// Nothing but a change of behaviour moves it at all.
pub const SAME_SEED_SIMULATED_BOUND: f64 = 0.02;

/// What a user of the simulator sees. The two host-time metrics are
/// on-CPU time of the simulating thread; `goodput_mbps` and
/// `outage_frac` are simulated and repeat exactly for a given seed.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "sim_rate",
        unit: "sim_s/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
        simulated: false,
    },
    EndToEnd {
        name: "goodput_mbps",
        unit: "Mbit/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: true,
    },
    EndToEnd {
        name: "outage_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        simulated: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layer = crate.module. Times are host CPU time; counts and ratios
/// are simulated and repeat exactly for a given seed.
pub const PER_LAYER: [PerLayer; 56] = [
    // The world's event loop, seen from outside.
    layer("scenario.world.events_per_sim_s", "1/s", Lower),
    layer("scenario.world.events_per_frame", "count", Lower),
    layer("scenario.world.ns_per_event", "ns", Lower),
    layer("scenario.world.us_per_frame", "us", Lower),
    layer("scenario.district.event_excess", "ratio", Lower),
    layer("scenario.district.cpu_ratio", "ratio", Lower),
    layer("scenario.advance.slice_us_p50", "us", Lower),
    layer("scenario.advance.slice_us_p99", "us", Lower),
    layer("scenario.advance.slice_growth", "ratio", Lower),
    // Set-up and tear-down, seconds per operation.
    layer("scenario.generate_s", "s", Lower),
    layer("scenario.world_new_s", "s", Lower),
    layer("scenario.begin_s", "s", Lower),
    layer("scenario.finish_s", "s", Lower),
    layer("scenario.reduce_s", "s", Lower),
    layer("scenario.merge_s", "s", Lower),
    layer("radio.link.ns_per_new", "ns", Lower),
    layer("radio.link.ns_per_mean_snr", "ns", Lower),
    layer("apps.mix.ns_per_deal", "ns", Lower),
    layer("sim.metrics.ns_per_record", "ns", Lower),
    layer("sim.sketch.ns_per_record", "ns", Lower),
    // The event queue.
    layer("sim.queue.ns_per_event_d1k", "ns", Lower),
    layer("sim.queue.ns_per_event_d1m", "ns", Lower),
    layer("sim.queue.ns_per_cancel", "ns", Lower),
    // The PHY.
    layer("radio.fading.ns_per_csi", "ns", Lower),
    layer("radio.fading.ns_per_powers", "ns", Lower),
    layer("radio.esnr.ns_per_map", "ns", Lower),
    layer("radio.batch.ns_per_link_8ap", "ns", Lower),
    // The MAC.
    layer("mac.medium.ns_per_tx_n10", "ns", Lower),
    layer("mac.medium.ns_per_tx_n200", "ns", Lower),
    layer("mac.aggregation.ns_per_ampdu", "ns", Lower),
    layer("mac.blockack.ns_per_ba", "ns", Lower),
    layer("mac.rate.ns_per_pick", "ns", Lower),
    layer("mac.blockack.collision_ratio", "ratio", Lower),
    // Transport.
    layer("net.tcp.ns_per_segment", "ns", Lower),
    layer("net.tcp.timeouts", "count", Lower),
    // The WGTT controller and its parts.
    layer("core.controller.ns_per_downlink_c1", "ns", Lower),
    layer("core.controller.ns_per_downlink_c200", "ns", Lower),
    layer("core.controller.ns_per_csi", "ns", Lower),
    layer("core.cyclic.ns_per_pkt", "ns", Lower),
    layer("core.controller.ns_per_uplink", "ns", Lower),
    layer("core.dedup.ns_per_key", "ns", Lower),
    layer("core.dedup.dup_ratio", "ratio", Lower),
    layer("core.controller.ns_per_idle_poll", "ns", Lower),
    layer("core.timerwheel.ns_per_arm_fire", "ns", Lower),
    layer("core.selection.ns_per_reading", "ns", Lower),
    layer("core.switching.switch_ms_mean", "ms", Lower),
    layer("core.switching.switches_per_vehicle_min", "1/min", Lower),
    layer("baseline.roamer.ns_per_poll", "ns", Lower),
    // Labelled estimates (unit cost x count / advance CPU), to be
    // replaced by measured spans when in-program tracing lands.
    layer("budget.radio_share_est", "ratio", Lower),
    layer("budget.queue_share_est", "ratio", Lower),
    layer("budget.controller_share_est", "ratio", Lower),
    layer("budget.unattributed_share", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    // The one multi-thread measurement: district_shard on two workers.
    layer("scenario.shard.wall_speedup_2w", "ratio", Higher),
    layer("scenario.shard.cpu_overhead_2w", "ratio", Lower),
    layer("scenario.shard.barrier_rounds", "count", Lower),
];

/// Which way `name` is better, whichever table it is in.
pub fn direction(name: &str) -> Option<Better> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.better));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.better));
    end_to_end
        .chain(per_layer)
        .find(|(n, _)| *n == name)
        .map(|(_, better)| better)
}

/// The name rule of `BENCHMARK.json`: starts with a letter or a digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;
    use std::collections::HashSet;

    fn is_valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_manifest_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(workloads::ALL.iter().map(|w| (w.name, "count")));
        for (name, unit) in all {
            assert!(is_valid_name(name), "{name}");
            assert!(is_valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn bounds_are_legal_and_setup_is_declared_as_the_contract_asks() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it saying what
    /// the binary prints.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(pairs) = &manifest else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
        let list = |k: &str| manifest.get(k).and_then(Json::as_arr).expect("a list");

        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let declared: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<_> = workloads::ALL
            .iter()
            .map(|w| (Some(w.name.to_string()), Some(w.why.to_string())))
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    Some(m.name.to_string()),
                    Some(m.unit.to_string()),
                    Some(m.better.as_str().to_string()),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    Some(m.name.to_string()),
                    Some(m.unit.to_string()),
                    Some(m.better.as_str().to_string()),
                )
            })
            .collect();
        assert_eq!(declared, ours);
    }
}
