//! The binary driven from outside, at `--quick` scale: the contract's
//! one-workload form, the `run` / `trace` / `compare`
//! subcommands, and the names they print against `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wgtt-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("UTF-8 output")
}

/// A scratch file under the test's own target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    dir.join(name)
}

/// The quoted strings that follow `"name":` in `section` of the
/// manifest — enough of a reader for a file whose shape the crate's
/// unit tests already pin.
fn declared_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("the section");
    let body = &text[start..];
    let end = body.find(']').expect("the section's end");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

/// Metric names of a result line, in order.
fn printed_names(result_line: &str) -> Vec<String> {
    let metrics = result_line
        .split("\"metrics\":{")
        .nth(1)
        .expect("a metrics object");
    metrics
        .split("\":{\"value\":")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_string)
        .collect()
}

#[test]
fn one_workload_prints_the_declared_metrics_last() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bench(&[
            "--workload",
            "corridor_smoke",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        let last = text.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{last}"
        );
        assert!(last.contains("\"failed\":0,\"metrics\":{"), "{last}");
        assert_eq!(
            printed_names(last),
            declared_names(section),
            "--trace {trace}"
        );
        assert!(!last.contains("null"), "a metric was NaN: {last}");
    }
}

/// The traced pass fits itself to `--seconds`: given no time for an
/// untraced/traced pair, it traces one operation against its warm-up.
#[test]
fn traced_pass_sizes_itself_to_the_seconds_it_is_given() {
    for (seconds, reused) in [("0.05", true), ("60", false)] {
        let out = bench(&[
            "--workload",
            "corridor_smoke",
            "--seed",
            "7",
            "--seconds",
            seconds,
            "--trace",
            "1",
            "--quick",
        ]);
        assert!(out.status.success());
        let text = stdout(&out);
        assert!(
            text.contains(&format!(
                "\"traced_operations\":1,\"warm_up_reused\":{reused}"
            )),
            "--seconds {seconds}: {text}"
        );
        assert!(text
            .lines()
            .last()
            .is_some_and(|l| l.contains("\"attempted\":2,")));
    }
}

#[test]
fn unknown_workloads_and_flags_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "drive_uplink", "--trace", "2"][..],
        &["--frobnicate"][..],
        &[][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn quick_run_fails_nothing_and_passes_its_own_a_a_compare() {
    let (a, b) = (scratch("quick-a.json"), scratch("quick-b.json"));
    for path in [&a, &b] {
        let out = bench(&[
            "run",
            "--quick",
            "--out",
            path.to_str().expect("UTF-8 path"),
        ]);
        let text = stdout(&out);
        assert!(out.status.success(), "{text}");
        assert!(text.contains("ops_failed 0"), "{text}");
        assert!(text.contains(": equal"), "district digests: {text}");
        for workload in declared_names("workloads") {
            assert!(text.contains(&format!("{workload} seed 1")), "{workload}");
        }
    }
    let paths = [a.to_str().expect("UTF-8"), b.to_str().expect("UTF-8")];

    // Simulated metrics repeat to the last digit; one-repeat host times
    // on a shared host do not, so only those rows are looked at.
    let out = bench(&["compare", paths[0], paths[1]]);
    let text = stdout(&out);
    for line in text.lines().filter(|l| {
        l.contains(" goodput_mbps ") || l.contains(" outage_frac ") || l.contains(" fingerprint ")
    }) {
        assert!(
            line.contains("+0.00%") || line.contains("same behaviour"),
            "{line}"
        );
    }
    assert!(
        text.contains("failed operations: 0.00% of A's, 0.00% of B's"),
        "{text}"
    );
}
