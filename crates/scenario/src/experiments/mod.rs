//! One driver per table and figure of the paper's evaluation (§2, §5).
//!
//! Every experiment is a function from a seed to an
//! [`crate::results::ExperimentOutput`] whose rows have
//! the same shape as the paper's artifact. DESIGN.md §4 maps each id to
//! the paper's section; EXPERIMENTS.md records paper-vs-measured values.
//!
//! | id | artifact |
//! |----|----------|
//! | `fig2` | ESNR vs time and best-AP flips (the vehicular picocell regime) |
//! | `fig4` | stock 802.11r failure at speed, capacity loss |
//! | `table1` | switching-protocol execution time vs offered load |
//! | `fig13` | TCP/UDP throughput vs speed, WGTT vs Enhanced 802.11r |
//! | `fig14`/`fig15` | TCP/UDP throughput + serving-AP timeline @15 mph |
//! | `fig16` | link bit-rate CDF |
//! | `table2` | switching accuracy |
//! | `fig17` | per-client throughput vs client count |
//! | `fig18` | uplink loss, multi-AP reception vs single link |
//! | `fig20` | following / parallel / opposing two-car cases |
//! | `fig21` | capacity loss vs selection window *W* |
//! | `table3` | link-layer ACK collision rate |
//! | `fig22` | time-hysteresis sweep |
//! | `fig23` | AP density (sparse vs dense segments) |
//! | `table4` | video rebuffer ratio |
//! | `fig24` | conferencing fps CDF |
//! | `table5` | web page load time |
//!
//! Extensions beyond the paper's artifacts: `fig10` (coverage heatmap),
//! `ablation_selector`, `ablation_back_fwd`, `ext_stop_and_go`,
//! `ext_multichannel` (the §7 discussion, implemented), and
//! `fleet_smoke` (a CI-sized [`crate::fleet`] corridor), and
//! `policy_smoke` (the same corridor under each
//! [`wgtt::SwitchPolicyKind`]).

pub mod apps;
pub mod common;
pub mod endtoend;
pub mod extensions;
pub mod fleetexp;
pub mod micro;
pub mod motivation;
pub mod multiclient;

use crate::results::ExperimentOutput;

/// An experiment driver: `(seed, quick)` to its output. `quick` shrinks
/// sweeps for smoke testing; drivers without a sweep ignore it.
pub type Driver = fn(u64, bool) -> ExperimentOutput;

/// Every experiment by id: the paper's artifacts in paper order, then
/// the extension/ablation studies.
pub const EXPERIMENTS: [(&str, Driver); 25] = [
    ("fig2", |s, _| motivation::fig2(s)),
    ("fig4", |s, _| motivation::fig4(s)),
    ("table1", micro::table1),
    ("fig13", endtoend::fig13),
    ("fig14", |s, _| endtoend::fig14(s)),
    ("fig15", |s, _| endtoend::fig15(s)),
    ("fig16", |s, _| endtoend::fig16(s)),
    ("table2", |s, _| endtoend::table2(s)),
    ("fig17", multiclient::fig17),
    ("fig18", |s, _| multiclient::fig18(s)),
    ("fig20", |s, _| multiclient::fig20(s)),
    ("fig21", |s, _| micro::fig21(s)),
    ("table3", micro::table3),
    ("fig22", |s, _| micro::fig22(s)),
    ("fig23", micro::fig23),
    ("table4", apps::table4),
    ("fig24", |s, _| apps::fig24(s)),
    ("table5", apps::table5),
    ("fig10", |s, _| extensions::fig10(s)),
    ("ablation_selector", |s, _| extensions::ablation_selector(s)),
    ("ablation_back_fwd", |s, _| extensions::ablation_back_fwd(s)),
    ("ext_stop_and_go", |s, _| extensions::ext_stop_and_go(s)),
    ("ext_multichannel", |s, _| extensions::ext_multichannel(s)),
    ("fleet_smoke", fleetexp::fleet_smoke),
    ("policy_smoke", fleetexp::policy_smoke),
];

/// Every experiment id, in [`EXPERIMENTS`] order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id)
}

/// Run an experiment by id; `None` for an unknown id.
pub fn run(id: &str, seed: u64, quick: bool) -> Option<ExperimentOutput> {
    EXPERIMENTS
        .iter()
        .find(|&&(known, _)| known == id)
        .map(|&(_, driver)| driver(seed, quick))
}

/// Render `ids` on up to `jobs` worker threads and concatenate the
/// outputs in the requested order (each followed by a blank line, the
/// shape `wgtt-experiments` prints).
///
/// Each experiment is internally deterministic — a pure function of
/// `(id, seed, quick)` — and workers only race for *which* id to pull
/// next, never for what it produces, so the result is byte-identical
/// for every `jobs` value. `tests/integration_determinism.rs` pins
/// that guarantee.
pub fn render_all(ids: &[String], seed: u64, quick: bool, csv: bool, jobs: usize) -> String {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<String>>> =
        ids.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= ids.len() {
                    break;
                }
                let rendered = match run(&ids[i], seed, quick) {
                    Some(out) => {
                        if csv {
                            out.render_csv()
                        } else {
                            out.render()
                        }
                    }
                    None => format!("unknown experiment id: {} (try --list)\n", ids[i]),
                };
                *results[i].lock().expect("no panics hold this lock") = Some(rendered);
            });
        }
    });
    let mut out = String::new();
    for r in &results {
        if let Some(s) = r.lock().expect("threads joined").take() {
            out.push_str(&s);
            out.push('\n');
        }
    }
    out
}
