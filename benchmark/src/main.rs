//! `wgtt-benchmark`: the repository's benchmark.
//!
//! ```text
//! wgtt-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one run of one workload in this process; the last line of stdout
//!     is the result object (`correct`, `attempted`, `failed`, `metrics`)
//! wgtt-benchmark run     [--seed N] [--seconds S] [--quick] [--out FILE]
//!     every workload, each in its own child process, one at a time;
//!     prints every end-to-end metric and writes the results file
//! wgtt-benchmark trace   [--seed N] [--seconds S] [--quick] [--out FILE]
//!     the separate traced pass: per-layer metrics, one span file each
//! wgtt-benchmark compare A.json B.json
//!     judge B against A, metric by metric, at each metric's bound
//! ```

mod clock;
mod compare;
mod host;
mod json;
mod layers;
mod measure;
mod names;
mod spans;
mod stats;
mod workloads;

use json::Json;
use measure::{Measured, Options};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
const DEFAULT_SECONDS: f64 = 14.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

/// `out/` beside this crate's manifest, wherever the binary is run from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_metrics(m: &Measured) {
    for metric in &m.metrics {
        println!(
            "  {:<42} {:>16.6} {:<8} ({} is better)",
            metric.name,
            metric.value,
            metric.unit,
            names::direction(metric.name).map_or("?", names::Better::as_str)
        );
    }
}

/// One workload in this process: the benchmark contract's entry point.
fn single(a: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("no workload called {name}; there are {}", known.join(", "))
    })?;
    let options = Options {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
    };
    let measured = if a.trace {
        measure::per_layer(&options, &out_dir())?
    } else {
        measure::end_to_end(&options)?
    };
    println!(
        "{name} seed {} ({}): {} operations, {} failed",
        a.seed,
        if a.trace { "traced" } else { "untraced" },
        measured.attempted,
        measured.failed
    );
    println!("  why: {}", workload.why);
    print_metrics(&measured);
    println!("detail {}", measured.detail.compact());
    println!("{}", measured.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process and parse what it printed.
fn child(a: &Args, name: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so one simulating process runs at a
    // time and none outlives this one.
    let output = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{name} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().ok_or(format!("{name} printed nothing"))?;
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or(format!("{name} printed no detail line"))?;
    for line in lines.iter().filter(|l| !l.starts_with("detail ")) {
        println!("{line}");
    }
    let mut result = Json::parse(result).map_err(|e| format!("{name}'s result line: {e}"))?;
    let detail = Json::parse(detail).map_err(|e| format!("{name}'s detail line: {e}"))?;
    if let Json::Obj(pairs) = &mut result {
        pairs.insert(0, ("name".to_string(), Json::Str(name.to_string())));
        pairs.push(("detail".to_string(), detail));
    }
    Ok(result)
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// `digest` of every operation of `workload`, keyed by seed.
fn digests(results: &[Json], workload: &str) -> Vec<(f64, String)> {
    compare::find_workload(results, workload)
        .and_then(|w| w.get("detail")?.get("operations")?.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|op| {
            Some((
                op.get("seed")?.as_f64()?,
                op.get("digest")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Every workload, one child process after the other.
fn all(a: &Args, trace: bool) -> Result<ExitCode, String> {
    let mut results = Vec::new();
    for w in &workloads::ALL {
        results.push(child(a, w.name, trace)?);
    }
    let mut attempted: f64 = results.iter().map(|r| num(r, "attempted")).sum();
    let mut failed: f64 = results.iter().map(|r| num(r, "failed")).sum();

    let mut derived = Vec::new();
    if !trace {
        // The two district workloads simulate the same physics on two
        // engines: on every seed both ran, the digests must be equal.
        let shard = digests(&results, "district_shard");
        for (seed, mono) in digests(&results, "district_mono") {
            if let Some((_, other)) = shard.iter().find(|(s, _)| *s == seed) {
                attempted += 1.0;
                let equal = *other == mono;
                failed += f64::from(u8::from(!equal));
                println!(
                    "district digests, seed {seed}: mono {mono} shard {other}: {}",
                    if equal { "equal" } else { "DIFFERENT" }
                );
            }
        }
        let value = |workload: &str, metric: &str| {
            compare::metric_value(compare::find_workload(&results, workload)?, metric)
        };
        let mut ratio = |label: &str, over: (&str, &str), under: (&str, &str)| {
            if let (Some(x), Some(y)) = (value(over.0, over.1), value(under.0, under.1)) {
                println!("derived {label}: {:.4}", x / y);
                derived.push((label.to_string(), Json::Num(x / y)));
            }
        };
        ratio(
            "goodput wgtt/baseline",
            ("drive_downlink", "goodput_mbps"),
            ("drive_baseline", "goodput_mbps"),
        );
        ratio(
            "sim_rate district shard/mono",
            ("district_shard", "sim_rate"),
            ("district_mono", "sim_rate"),
        );
    }
    println!("ops_attempted {attempted} ops_failed {failed}");

    let file = Json::obj([
        (
            "kind",
            Json::Str(if trace { "trace" } else { "run" }.into()),
        ),
        ("host", host::record()),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("quick", Json::Bool(a.quick)),
        ("ops_attempted", Json::Num(attempted)),
        ("ops_failed", Json::Num(failed)),
        ("derived", Json::Obj(derived)),
        ("workloads", Json::Arr(results)),
    ]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(if trace { "trace.json" } else { "results.json" }));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch() -> Result<ExitCode, String> {
    let a = parse(std::env::args().skip(1))?;
    if let Some(name) = &a.workload {
        return single(&a, name);
    }
    match a.positional.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["run"] => all(&a, false),
        ["trace"] => all(&a, true),
        ["compare", first, second] => {
            let clean = compare::compare(&load(first)?, &load(second)?)?;
            Ok(if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err(
            "usage: wgtt-benchmark --workload W --seed N --seconds S --trace 0|1 \
                  | run | trace | compare A.json B.json   \
                  (see benchmark/README.md)"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("wgtt-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
