//! What the numbers were measured on: written into every results file.

use crate::json::Json;
use std::process::Command;

/// First line of a command's stdout, or "unknown" when the command is
/// missing or fails (the benchmark also runs where there is no git).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn record() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(cores() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "simd_backend",
            Json::Str(wgtt_simd::Backend::active().name().to_string()),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_rev",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
