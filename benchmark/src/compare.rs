//! `compare A.json B.json`: one row per (workload, end-to-end metric),
//! judged against the metric's own bound. Run on two results files of
//! the same commit it is the A/A check; on a parent's and a change's it
//! is the no-regression table. When both files were run with the same
//! `--seed`, the simulated metrics are judged at 2 %: they repeat to the
//! last digit, so only a change of behaviour moves them.

use crate::json::Json;
use crate::names::{Better, EndToEnd, END_TO_END, SAME_SEED_SIMULATED_BOUND};
use crate::stats;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Status {
    Ok,
    Regressed,
    /// The repeats of one side disagree among themselves by more than
    /// the bound, so the pair cannot be told apart at that bound.
    Unresolved,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// Share by which `b` is worse than `a` (negative when it is better).
pub fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The bound `metric` is held to: its declared one, which is sized
/// against runs of different seeds, or the sharp one a simulated metric
/// gets when both sides simulated the same seeds.
pub fn bound_for(metric: &EndToEnd, same_seed: bool) -> f64 {
    if same_seed && metric.simulated {
        SAME_SEED_SIMULATED_BOUND
    } else {
        metric.bound
    }
}

pub fn judge(metric: &EndToEnd, a: f64, b: f64, spread: f64, bound: f64) -> Status {
    if spread > bound {
        Status::Unresolved
    } else if worse_by(metric, a, b) > bound {
        Status::Regressed
    } else {
        Status::Ok
    }
}

/// Spread between the repeats behind a host-time metric: over the
/// operations that ran more than once, the summed distance from each
/// one's best sample to its median sample, as a share of the summed
/// best. (Not max - min: the first build of a process is cold, and one
/// cold sample says nothing about the rest.) Simulated metrics and the
/// one-sample `peak_rss_mb` have none.
fn repeat_spread(workload: &Json, metric: &str) -> f64 {
    let key = match metric {
        "sim_rate" => "run_cpu_s",
        "setup_s" => "setup_cpu_s",
        _ => return 0.0,
    };
    let (mut above, mut floor) = (0.0, 0.0);
    let operations = workload
        .get("detail")
        .and_then(|d| d.get("operations"))
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for op in operations {
        let samples: Vec<f64> = op
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        if samples.len() >= 2 {
            above += stats::median(&samples) - stats::min(&samples);
            floor += stats::min(&samples);
        }
    }
    if floor > 0.0 {
        above / floor
    } else {
        0.0
    }
}

/// The entry called `name` among a results file's workloads.
pub fn find_workload<'a>(workloads: &'a [Json], name: &str) -> Option<&'a Json> {
    workloads
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    find_workload(file.get("workloads")?.as_arr()?, name)
}

pub fn metric_value(workload: &Json, metric: &str) -> Option<f64> {
    workload.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn failed_share(file: &Json) -> f64 {
    let get = |k| file.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let attempted = get("ops_attempted");
    if attempted > 0.0 {
        get("ops_failed") / attempted
    } else {
        0.0
    }
}

/// Print the table; `Ok(true)` when nothing regressed and B fails no
/// larger a share of its operations than A.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("the first file has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let same = |key| a.get(key).is_some() && a.get(key) == b.get(key);
    let same_seed = same("seed") && same("quick");
    println!(
        "same --seed on both sides: {same_seed}{}",
        if same_seed {
            "; simulated metrics are judged at the same-seed bound"
        } else {
            ""
        }
    );
    println!(
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>7} {:>8}  status",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let mut clean = true;
    for name in names {
        let wa = workload(a, name).expect("listed above");
        let Some(wb) = workload(b, name) else {
            println!("{name:<16} missing from the second file");
            clean = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(wa, m.name), metric_value(wb, m.name)) else {
                continue;
            };
            let spread = repeat_spread(wa, m.name).max(repeat_spread(wb, m.name));
            let bound = bound_for(m, same_seed);
            let status = judge(m, va, vb, spread, bound);
            clean &= status != Status::Regressed;
            println!(
                "{:<16} {:<13} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}% {:>7.2}%  {}",
                name,
                m.name,
                va,
                vb,
                worse_by(m, va, vb) * 100.0,
                bound * 100.0,
                spread * 100.0,
                status.as_str()
            );
        }
        let print = |w: &Json| {
            w.get("detail")
                .and_then(|d| d.get("fingerprint"))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let (fa, fb) = (print(wa), print(wb));
        println!(
            "{:<16} fingerprint   {:>14} {:>14}  {}",
            name,
            &fa[..fa.len().min(14)],
            &fb[..fb.len().min(14)],
            if fa == fb {
                "same behaviour"
            } else {
                "BEHAVIOUR CHANGED"
            }
        );
    }
    let (sa, sb) = (failed_share(a), failed_share(b));
    println!(
        "failed operations: {:.2}% of A's, {:.2}% of B's",
        sa * 100.0,
        sb * 100.0
    );
    Ok(clean && sb <= sa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a metric by that name")
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let rate = metric("sim_rate");
        assert!(worse_by(rate, 10.0, 8.0) > 0.0, "slower is worse");
        assert!(worse_by(rate, 10.0, 12.0) < 0.0);
        let rss = metric("peak_rss_mb");
        assert!(worse_by(rss, 100.0, 120.0) > 0.0, "bigger is worse");
    }

    #[test]
    fn judged_against_the_metrics_own_bound() {
        let rate = metric("sim_rate");
        let bound = bound_for(rate, true);
        assert_eq!(bound, rate.bound, "host time has one bound");
        let just_inside = 10.0 * (1.0 - bound * 0.9);
        let outside = 10.0 * (1.0 - bound * 1.1);
        assert_eq!(judge(rate, 10.0, just_inside, 0.0, bound), Status::Ok);
        assert_eq!(judge(rate, 10.0, outside, 0.0, bound), Status::Regressed);
        assert_eq!(judge(rate, 10.0, 20.0, 0.0, bound), Status::Ok);
        assert_eq!(
            judge(rate, 10.0, 10.0, bound * 1.5, bound),
            Status::Unresolved
        );
    }

    /// A 20 % goodput loss passes the bound that different seeds need,
    /// and must not pass between two runs of the same seed.
    #[test]
    fn same_seed_files_hold_simulated_metrics_to_two_percent() {
        let goodput = metric("goodput_mbps");
        let across = bound_for(goodput, false);
        let same = bound_for(goodput, true);
        assert_eq!(same, SAME_SEED_SIMULATED_BOUND);
        assert_eq!(judge(goodput, 10.0, 9.7, 0.0, same), Status::Regressed);
        assert_eq!(judge(goodput, 10.0, 9.9, 0.0, same), Status::Ok);
        assert!(across > same);
        assert_eq!(judge(goodput, 10.0, 9.7, 0.0, across), Status::Ok);
    }
}
