//! Oracle-equivalence property suite for the incremental sliding-window
//! ESNR reduction (`wgtt::window`).
//!
//! The incremental structures ([`EsnrWindow`], and [`ApSelector`] built
//! on top of it) must be indistinguishable from the seed's naive
//! sort-per-query implementation ([`NaiveWindow`], kept verbatim in
//! `tests/oracle/window.rs`) under arbitrary insert/expiry sequences —
//! duplicate timestamps, duplicate values, and exact window-boundary
//! readings included. [`ApSelector`]'s scan is held to the same bar
//! against [`FullScanSelector`] (`tests/oracle/selection.rs`), an
//! independent full expire-and-reduce selector.
//! Selection *verdicts* are a pure function of the reduced values, so
//! equality here means every experiment artifact in EXPERIMENTS.md is
//! unchanged by the optimization. Every reduction — median, mean, max
//! and latest — is held to exact equality; none has an epsilon.

mod oracle;

use oracle::selection::FullScanSelector;
use oracle::window::NaiveWindow;
use proptest::prelude::*;
use std::collections::BTreeMap;
use wgtt::selection::{ApLoads, ApSelector, SwitchPolicyKind, Verdict, WindowReduce};
use wgtt::window::EsnrWindow;
use wgtt_mac::frame::NodeId;
use wgtt_sim::time::{SimDuration, SimTime};

const WINDOW: SimDuration = SimDuration::from_millis(10);

const POLICIES: [WindowReduce; 4] = [
    WindowReduce::Median,
    WindowReduce::Mean,
    WindowReduce::Max,
    WindowReduce::Latest,
];

/// Decode a generated value into an ESNR-ish figure. Coarse 0.1 dB
/// quantization makes duplicate values common, which is exactly the
/// regime where order-statistics bookkeeping goes wrong.
fn esnr(raw: u32) -> f64 {
    raw as f64 / 10.0 - 20.0
}

/// The reduction of each of APs `0..aps` at `now`, as bits: the
/// per-AP view both selectors must agree on.
fn reductions(s: &mut ApSelector, aps: u32, now: SimTime) -> Vec<Option<u64>> {
    (0..aps)
        .map(|a| s.median_esnr(NodeId(a), now).map(f64::to_bits))
        .collect()
}

/// [`reductions`] on the oracle.
fn oracle_reductions(s: &mut FullScanSelector, aps: u32, now: SimTime) -> Vec<Option<u64>> {
    (0..aps)
        .map(|a| s.median_esnr(NodeId(a), now).map(f64::to_bits))
        .collect()
}

proptest! {
    /// After every insert, all four reductions agree with the oracle.
    /// `dt = 0` steps produce duplicate timestamps; steps larger than
    /// the window empty it completely.
    #[test]
    fn window_matches_oracle_after_every_insert(
        ops in proptest::collection::vec((0u64..3_000, 0u32..600), 1..200)
    ) {
        let (mut inc, mut naive) = (EsnrWindow::new(), NaiveWindow::new());
        let mut t_us = 0u64;
        for (dt_us, raw) in ops {
            // Scale some steps up so whole-window expiry happens too.
            t_us += if dt_us > 2_900 { dt_us * 10 } else { dt_us };
            let at = SimTime::from_micros(t_us);
            let v = esnr(raw);
            inc.push(at, v, WINDOW);
            naive.push(at, v, WINDOW);
            prop_assert_eq!(inc.len(), naive.len());
            for p in POLICIES {
                prop_assert_eq!(
                    inc.reduce(p), naive.reduce(p),
                    "{:?} diverged at t={}µs", p, t_us
                );
            }
        }
    }

    /// Interleaved insert and expiry-only steps (`median_esnr` and the
    /// argmax expire without inserting) stay equivalent.
    #[test]
    fn window_matches_oracle_under_expiry_only_steps(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u64..4_000, 0u32..600), 1..200
        )
    ) {
        let (mut inc, mut naive) = (EsnrWindow::new(), NaiveWindow::new());
        let mut t_us = 0u64;
        for (is_insert, dt_us, raw) in ops {
            t_us += dt_us;
            let at = SimTime::from_micros(t_us);
            if is_insert {
                inc.push(at, esnr(raw), WINDOW);
                naive.push(at, esnr(raw), WINDOW);
            } else {
                inc.expire(at, WINDOW);
                naive.expire(at, WINDOW);
            }
            prop_assert_eq!(inc.len(), naive.len());
            for p in POLICIES {
                prop_assert_eq!(
                    inc.reduce(p), naive.reduce(p),
                    "{:?} diverged at t={}µs (insert={})", p, t_us, is_insert
                );
            }
        }
    }

    /// Readings sitting exactly on the window boundary (`t + W == now`,
    /// retained by the strict `<` expiry) and one tick beyond it
    /// (dropped) are handled identically. Steps are drawn from the
    /// boundary-adjacent set {0, 1, W-1, W, W+1} µs-scale offsets.
    #[test]
    fn window_boundary_readings_match_oracle(
        steps in proptest::collection::vec((0usize..5, 0u32..600), 1..150)
    ) {
        const BOUNDARY_STEPS_US: [u64; 5] = [0, 1, 9_999, 10_000, 10_001];
        let (mut inc, mut naive) = (EsnrWindow::new(), NaiveWindow::new());
        let mut t_us = 0u64;
        for (step, raw) in steps {
            t_us += BOUNDARY_STEPS_US[step];
            let at = SimTime::from_micros(t_us);
            inc.push(at, esnr(raw), WINDOW);
            naive.push(at, esnr(raw), WINDOW);
            prop_assert_eq!(inc.len(), naive.len(), "len diverged at t={}µs", t_us);
            for p in POLICIES {
                prop_assert_eq!(
                    inc.reduce(p), naive.reduce(p),
                    "{:?} diverged at t={}µs", p, t_us
                );
            }
        }
    }

    /// Full-selector equivalence: `ApSelector::best` (argmax of the
    /// per-AP reduction, lowest AP id on ties) and `median_esnr` agree
    /// with a naive per-AP oracle scan for every policy and step of a
    /// multi-AP reading stream.
    #[test]
    fn selector_best_matches_naive_argmax(
        policy_idx in 0usize..4,
        ops in proptest::collection::vec((0u32..5, 0u64..2_000, 0u32..600), 1..250)
    ) {
        let policy = POLICIES[policy_idx];
        let mut selector = ApSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        selector.set_window_reduce(policy);
        let mut oracle: BTreeMap<u32, NaiveWindow> = BTreeMap::new();
        let mut t_us = 0u64;
        for (ap, dt_us, raw) in ops {
            t_us += dt_us;
            let at = SimTime::from_micros(t_us);
            let v = esnr(raw);
            selector.record(NodeId(ap), at, v);
            oracle.entry(ap).or_default().push(at, v, WINDOW);

            // Naive argmax: ascending AP id, strict > keeps the first.
            let mut expected: Option<(NodeId, f64)> = None;
            for (&id, w) in oracle.iter_mut() {
                w.expire(at, WINDOW);
                if let Some(m) = w.reduce(policy) {
                    if expected.is_none_or(|(_, bm)| m > bm) {
                        expected = Some((NodeId(id), m));
                    }
                }
            }
            prop_assert_eq!(selector.best(at), expected, "best diverged at t={}µs", t_us);
            for (&id, w) in oracle.iter() {
                prop_assert_eq!(
                    selector.median_esnr(NodeId(id), at), w.reduce(policy),
                    "median_esnr({}) diverged at t={}µs", id, t_us
                );
            }
        }
    }

    /// `ApSelector` is bit-identical to the full-scan oracle under random
    /// interleavings of readings, expiry-only queries, duplicate
    /// timestamps, verdict evaluation (with switches applied), and
    /// repeated same-`now` queries. `best()` is compared through
    /// `f64::to_bits` — bit-identical, not merely numerically equal.
    #[test]
    fn fast_selector_bit_identical_to_full_scan_oracle(
        policy_idx in 0usize..4,
        ops in proptest::collection::vec(
            (0u32..8, 0u32..6, 0u64..2_000, 0u32..600), 1..250
        )
    ) {
        let policy = POLICIES[policy_idx];
        let mut fast = ApSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut oracle = FullScanSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        fast.set_window_reduce(policy);
        oracle.set_window_reduce(policy);
        let mut t_us = 0u64;
        for (kind, ap_raw, dt_us, raw) in ops {
            // Step distribution: ~20% duplicate timestamps, mostly small
            // sub-window steps, occasionally a jump that empties every
            // window (and, at `dt_us == 1_900`, another zero step).
            t_us += match dt_us {
                0..=399 => 0,
                400..=1_899 => dt_us - 400,
                _ => (dt_us - 1_900) * 20_000,
            };
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 5);
            match kind {
                // Readings are the bulk of the workload.
                0..=3 => {
                    let v = esnr(raw);
                    fast.record(ap, now, v);
                    oracle.record(ap, now, v);
                }
                // Expiry-only paths: every window, then one.
                4 => {
                    prop_assert_eq!(
                        reductions(&mut fast, 5, now), oracle_reductions(&mut oracle, 5, now),
                        "reductions diverged at t={}µs", t_us
                    );
                }
                5 => {
                    prop_assert_eq!(
                        fast.median_esnr(ap, now), oracle.median_esnr(ap, now),
                        "median_esnr({:?}) diverged at t={}µs", ap, t_us
                    );
                }
                // Full verdicts, with decided switches applied so the
                // hysteresis/current bookkeeping is exercised too.
                6 => {
                    let fv = fast.evaluate(now);
                    let ov = oracle.evaluate(now);
                    prop_assert_eq!(fv, ov, "verdict diverged at t={}µs", t_us);
                    prop_assert_eq!(fast.current(), oracle.current());
                    if let Verdict::SwitchTo(target) = fv {
                        fast.set_current(target, now);
                        oracle.set_current(target, now);
                    }
                }
                // Repeated same-`now` queries must be idempotent.
                _ => {
                    let expected = oracle.best(now);
                    prop_assert_eq!(fast.best(now), expected);
                    prop_assert_eq!(fast.best(now), expected, "re-query at t={}µs changed", t_us);
                }
            }
            // After every op the argmax must agree to the bit.
            let fast_bits = fast.best(now).map(|(a, v)| (a, v.to_bits()));
            let oracle_bits = oracle.best(now).map(|(a, v)| (a, v.to_bits()));
            prop_assert_eq!(fast_bits, oracle_bits, "best diverged at t={}µs", t_us);
        }
    }

    /// The fused `record_and_evaluate` hot path (the controller's
    /// per-CsiReport entry) is exactly `record` followed by `evaluate`,
    /// on both the fast selector and the full-scan oracle — including
    /// under exact saturation-ceiling ties. The SIMD ESNR sweep
    /// preserves the per-modulation BER-clamp ceiling bit-for-bit, so
    /// several strong APs routinely report the *identical* float; the
    /// fused entry must keep breaking those ties to the lowest AP id
    /// (and never flap) just like the split calls do.
    #[test]
    fn fused_record_and_evaluate_identical_to_split_calls(
        ops in proptest::collection::vec(
            (0u32..6, 0u64..2_000, 0u32..600, any::<bool>()), 1..200
        )
    ) {
        // Exact per-modulation ESNR ceilings (the 1e-12 BER clamp).
        let ceilings: Vec<f64> = [
            wgtt_radio::Modulation::Bpsk,
            wgtt_radio::Modulation::Qpsk,
            wgtt_radio::Modulation::Qam16,
            wgtt_radio::Modulation::Qam64,
        ]
        .iter()
        .map(|m| wgtt_radio::linear_to_db(m.snr_for_ber(0.0)))
        .collect();
        let knobs = (WINDOW, SimDuration::from_millis(40), 1.0);
        let mut fast_fused = ApSelector::new(knobs.0, knobs.1, knobs.2);
        let mut fast_split = ApSelector::new(knobs.0, knobs.1, knobs.2);
        let mut oracle_split = FullScanSelector::new(knobs.0, knobs.1, knobs.2);
        let mut t_us = 0u64;
        for (ap_raw, dt_us, raw, saturate) in ops {
            t_us += dt_us;
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 4);
            // ~Half the readings sit exactly on a ceiling, so ties
            // across APs are the norm, not the exception.
            let v = if saturate {
                ceilings[(raw % 4) as usize]
            } else {
                esnr(raw)
            };
            let fused = fast_fused.record_and_evaluate(ap, now, v, now, &ApLoads::new());
            fast_split.record(ap, now, v);
            let split = fast_split.evaluate(now);
            oracle_split.record(ap, now, v);
            let oracle = oracle_split.evaluate(now);
            prop_assert_eq!(fused, split, "fused != split at t={}µs", t_us);
            prop_assert_eq!(fused, oracle, "fused != oracle at t={}µs", t_us);
            if let Verdict::SwitchTo(target) = fused {
                fast_fused.set_current(target, now);
                fast_split.set_current(target, now);
                oracle_split.set_current(target, now);
            }
            prop_assert_eq!(fast_fused.current(), fast_split.current());
            let fused_best = fast_fused.best(now).map(|(a, m)| (a, m.to_bits()));
            let split_best = fast_split.best(now).map(|(a, m)| (a, m.to_bits()));
            prop_assert_eq!(fused_best, split_best, "best diverged at t={}µs", t_us);
        }
    }

    /// The Mean policy, the one reduction that sums rather than indexes:
    /// window reductions equal the retained sort-per-query oracle's bit
    /// for bit under arbitrary insert/expiry interleavings — windows
    /// that drain completely and refill included — and the fast
    /// selector's `best()`/`evaluate()` verdicts under Mean are
    /// *identical* to the retained full-scan oracle's at every step.
    #[test]
    fn mean_bit_exact_with_identical_verdicts(
        ops in proptest::collection::vec(
            (0u32..4, 0u32..8, 0u64..3_000, 0u32..600), 1..250
        )
    ) {
        let mut inc = EsnrWindow::new();
        let mut naive = NaiveWindow::new();
        let mut fast = ApSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut full = FullScanSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        fast.set_window_reduce(WindowReduce::Mean);
        full.set_window_reduce(WindowReduce::Mean);
        let mut t_us = 0u64;
        for (ap_raw, kind, dt_us, raw) in ops {
            // Occasional large jumps drain every window completely, so
            // the mean of a refilled window is exercised.
            t_us += if dt_us > 2_800 { dt_us * 20 } else { dt_us };
            let at = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 5);
            let v = esnr(raw);
            match kind {
                0..=4 => {
                    inc.push(at, v, WINDOW);
                    naive.push(at, v, WINDOW);
                    fast.record(ap, at, v);
                    full.record(ap, at, v);
                }
                5 => {
                    inc.expire(at, WINDOW);
                    naive.expire(at, WINDOW);
                }
                _ => {
                    let fv = fast.evaluate(at);
                    prop_assert_eq!(
                        fv, full.evaluate(at),
                        "Mean verdict diverged at t={}µs", t_us
                    );
                    if let Verdict::SwitchTo(target) = fv {
                        fast.set_current(target, at);
                        full.set_current(target, at);
                    }
                }
            }
            prop_assert_eq!(
                inc.reduce(WindowReduce::Mean).map(f64::to_bits),
                naive.reduce(WindowReduce::Mean).map(f64::to_bits),
                "Mean window diverged at t={}µs", t_us
            );
            prop_assert_eq!(
                fast.best(at).map(|(a, m)| (a, m.to_bits())),
                full.best(at).map(|(a, m)| (a, m.to_bits())),
                "Mean best diverged from full-scan oracle at t={}µs", t_us
            );
        }
    }

    /// Mid-run `set_window_reduce` interleaved with readings, expiries,
    /// and verdicts: the selector must track a reduction-policy change
    /// exactly like the full-scan oracle, compared through `to_bits`.
    #[test]
    fn mid_run_set_policy_matches_full_scan_oracle(
        ops in proptest::collection::vec(
            (0u32..12, 0u32..5, 0u64..2_000, 0u32..600), 1..250
        )
    ) {
        let mut fast = ApSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut oracle = FullScanSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut t_us = 0u64;
        for (kind, ap_raw, dt_us, raw) in ops {
            t_us += match dt_us {
                0..=399 => 0,
                400..=1_899 => dt_us - 400,
                _ => (dt_us - 1_900) * 20_000,
            };
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 4);
            match kind {
                0..=5 => {
                    let v = esnr(raw);
                    fast.record(ap, now, v);
                    oracle.record(ap, now, v);
                }
                // The op under test: change the reduction mid-stream,
                // with warm memos behind it.
                6..=7 => {
                    let p = POLICIES[(raw as usize) % POLICIES.len()];
                    fast.set_window_reduce(p);
                    oracle.set_window_reduce(p);
                }
                8..=9 => {
                    prop_assert_eq!(
                        reductions(&mut fast, 4, now), oracle_reductions(&mut oracle, 4, now),
                        "reductions diverged at t={}µs", t_us
                    );
                }
                _ => {
                    let fv = fast.evaluate(now);
                    prop_assert_eq!(fv, oracle.evaluate(now), "verdict diverged at t={}µs", t_us);
                    if let Verdict::SwitchTo(target) = fv {
                        fast.set_current(target, now);
                        oracle.set_current(target, now);
                    }
                }
            }
            let fast_bits = fast.best(now).map(|(a, v)| (a, v.to_bits()));
            let oracle_bits = oracle.best(now).map(|(a, v)| (a, v.to_bits()));
            prop_assert_eq!(fast_bits, oracle_bits, "best diverged at t={}µs", t_us);
        }
    }

    /// The verdict under every [`SwitchPolicyKind`] — reactive and
    /// load-aware — is identical between `ApSelector` and the full-scan
    /// oracle, including mid-run rule swaps, shifting per-AP loads, and
    /// applied switches. The two sides share no verdict code, so a bug
    /// in either's argmax, scoring or damper chain shows up as a
    /// verdict or argmax mismatch.
    #[test]
    fn switch_policies_bit_identical_fast_vs_full_scan(
        kind_idx in 0usize..SwitchPolicyKind::all().len(),
        ops in proptest::collection::vec(
            (0u32..12, 0u32..5, 0u64..2_000, 0u32..600), 1..250
        )
    ) {
        let kinds = SwitchPolicyKind::all();
        let mut fast = ApSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut oracle = FullScanSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        fast.set_switch_policy(kinds[kind_idx]);
        oracle.set_switch_policy(kinds[kind_idx]);
        let mut loads = ApLoads::new();
        let mut t_us = 0u64;
        for (kind, ap_raw, dt_us, raw) in ops {
            t_us += match dt_us {
                0..=399 => 0,
                400..=1_899 => dt_us - 400,
                _ => (dt_us - 1_900) * 20_000,
            };
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 4);
            match kind {
                0..=5 => {
                    let v = esnr(raw);
                    fast.record(ap, now, v);
                    oracle.record(ap, now, v);
                }
                // Shift the load landscape the load-aware rule reads.
                6 => {
                    loads.reassign(None, ap);
                }
                // Swap the verdict rule mid-run on both sides.
                7 => {
                    let k = kinds[(raw as usize) % kinds.len()];
                    fast.set_switch_policy(k);
                    oracle.set_switch_policy(k);
                }
                8 => {
                    prop_assert_eq!(
                        reductions(&mut fast, 4, now), oracle_reductions(&mut oracle, 4, now),
                        "reductions diverged at t={}µs", t_us
                    );
                }
                // Verdicts with every load 0 (`evaluate`) and against the
                // load table (the fused entry the controller calls).
                _ => {
                    let (fv, ov) = if kind == 9 {
                        (fast.evaluate(now), oracle.evaluate(now))
                    } else {
                        let v = esnr(raw);
                        (
                            fast.record_and_evaluate(ap, now, v, now, &loads),
                            oracle.record_and_evaluate(ap, now, v, now, &loads),
                        )
                    };
                    prop_assert_eq!(fv, ov, "verdict diverged at t={}µs", t_us);
                    prop_assert_eq!(fast.current(), oracle.current());
                    if let Verdict::SwitchTo(target) = fv {
                        loads.reassign(fast.current(), target);
                        fast.set_current(target, now);
                        oracle.set_current(target, now);
                    }
                }
            }
            let fast_bits = fast.best(now).map(|(a, v)| (a, v.to_bits()));
            let oracle_bits = oracle.best(now).map(|(a, v)| (a, v.to_bits()));
            prop_assert_eq!(fast_bits, oracle_bits, "best diverged at t={}µs", t_us);
        }
    }

    /// Same lockstep check concentrated on window-boundary instants:
    /// steps drawn from {0, 1, W−1, W, W+1} µs offsets, where the strict
    /// `t + W < now` expiry rule decides which readings survive.
    #[test]
    fn fast_selector_matches_oracle_at_window_boundaries(
        steps in proptest::collection::vec((0usize..5, 0u32..3, 0u32..600), 1..150)
    ) {
        const BOUNDARY_STEPS_US: [u64; 5] = [0, 1, 9_999, 10_000, 10_001];
        let mut fast = ApSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut oracle = FullScanSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut t_us = 0u64;
        for (step, ap_raw, raw) in steps {
            t_us += BOUNDARY_STEPS_US[step];
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw);
            let v = esnr(raw);
            fast.record(ap, now, v);
            oracle.record(ap, now, v);
            let fast_bits = fast.best(now).map(|(a, m)| (a, m.to_bits()));
            let oracle_bits = oracle.best(now).map(|(a, m)| (a, m.to_bits()));
            prop_assert_eq!(fast_bits, oracle_bits, "best diverged at t={}µs", t_us);
            prop_assert_eq!(
                reductions(&mut fast, 3, now), oracle_reductions(&mut oracle, 3, now),
                "reductions diverged at t={}µs", t_us
            );
        }
    }
}

// ---- At the map sizes the scan serves: the properties above draw from
// 3–5 AP ids; `corridor_dense` gives a client 32.

/// APs along the road in the drive below.
const ROAD_APS: u32 = 32;

proptest! {
    /// A client drives past 32 APs. Each reading op is a run of readings
    /// from the APs around its position; a move op carries it on, and
    /// the windows of the APs behind it drain. After every op
    /// `ApSelector` agrees with the full-scan oracle: `best` to the bit,
    /// and verdicts under both rules — the rule swaps mid-run — against
    /// a random load table that moves with every applied switch.
    #[test]
    fn thirty_two_ap_drive_matches_full_scan_oracle(
        initial in proptest::collection::vec(0u32..ROAD_APS, 0..64),
        ops in proptest::collection::vec(
            (0u32..10, 0u32..5, 0u64..2_000, 0u32..600), 1..250
        )
    ) {
        let mut loads = ApLoads::new();
        for ap in initial {
            loads.reassign(None, NodeId(ap));
        }
        let kinds = SwitchPolicyKind::all();
        let mut fast = ApSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut oracle = FullScanSelector::new(WINDOW, SimDuration::from_millis(40), 1.0);
        let mut pos = 0u32;
        let mut t_us = 0u64;
        for (kind, offset, dt_us, raw) in ops {
            t_us += match dt_us {
                0..=399 => 0,
                400..=1_899 => dt_us - 400,
                _ => (dt_us - 1_900) * 200,
            };
            let now = SimTime::from_micros(t_us);
            // One of the five APs centred on the client.
            let ap = NodeId((pos + offset).saturating_sub(2).min(ROAD_APS - 1));
            match kind {
                // A run of one to four readings from neighbouring APs.
                0..=4 => {
                    for i in 0..=raw % 4 {
                        let a = NodeId((ap.0 + i).min(ROAD_APS - 1));
                        let v = esnr((raw + 97 * i) % 600);
                        fast.record(a, now, v);
                        oracle.record(a, now, v);
                    }
                }
                // Move on, leaving windows behind.
                5 => pos = (pos + 1 + raw % 3).min(ROAD_APS - 1),
                6 => {
                    let k = kinds[(raw as usize) % kinds.len()];
                    fast.set_switch_policy(k);
                    oracle.set_switch_policy(k);
                }
                _ => {
                    let (fv, ov) = if kind == 7 {
                        (fast.evaluate(now), oracle.evaluate(now))
                    } else {
                        let v = esnr(raw);
                        (
                            fast.record_and_evaluate(ap, now, v, now, &loads),
                            oracle.record_and_evaluate(ap, now, v, now, &loads),
                        )
                    };
                    prop_assert_eq!(fv, ov, "verdict diverged at t={}µs", t_us);
                    if let Verdict::SwitchTo(target) = fv {
                        loads.reassign(fast.current(), target);
                        fast.set_current(target, now);
                        oracle.set_current(target, now);
                    }
                }
            }
            let fast_bits = fast.best(now).map(|(a, v)| (a, v.to_bits()));
            let oracle_bits = oracle.best(now).map(|(a, v)| (a, v.to_bits()));
            prop_assert_eq!(fast_bits, oracle_bits, "best diverged at t={}µs", t_us);
        }
    }
}

// ---- Pinned cases: the Fig. 6 window, boundary and duplicate readings,
// and the two verdict-layer regressions, on the shipping type and its
// oracle side by side.

const HYSTERESIS: SimDuration = SimDuration::from_millis(40);
const AP1: NodeId = NodeId(1);
const AP2: NodeId = NodeId(2);

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn both() -> (EsnrWindow, NaiveWindow) {
    (EsnrWindow::new(), NaiveWindow::new())
}

#[test]
fn matches_oracle_on_fig6_window() {
    let (mut inc, mut naive) = both();
    for (i, v) in [23.0, 23.0, 23.0, 9.0, 9.0].iter().enumerate() {
        inc.push(ms(100 + i as u64), *v, WINDOW);
        naive.push(ms(100 + i as u64), *v, WINDOW);
    }
    for p in POLICIES {
        assert_eq!(inc.reduce(p), naive.reduce(p), "{p:?} fig6 window");
    }
    assert_eq!(inc.reduce(WindowReduce::Median), Some(23.0));
}

#[test]
fn expiry_matches_oracle_boundary() {
    // A reading exactly `window` old is retained (strict <).
    let (mut inc, mut naive) = both();
    inc.push(ms(0), 30.0, WINDOW);
    naive.push(ms(0), 30.0, WINDOW);
    inc.expire(ms(10), WINDOW);
    naive.expire(ms(10), WINDOW);
    assert_eq!(inc.len(), 1);
    assert_eq!(inc.reduce(WindowReduce::Median), Some(30.0));
    inc.expire(SimTime::from_micros(10_001), WINDOW);
    naive.expire(SimTime::from_micros(10_001), WINDOW);
    assert_eq!(inc.len(), naive.len());
    assert_eq!(inc.reduce(WindowReduce::Median), None);
}

#[test]
fn sliding_stream_matches_oracle() {
    // A long pseudo-random stream with a 10 ms window: every prefix
    // must agree with the oracle for every policy.
    let (mut inc, mut naive) = both();
    let mut t = 0u64;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..2_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += x % 700; // µs steps, ties included
        let v = ((x >> 16) % 600) as f64 / 10.0 - 20.0;
        let at = SimTime::from_micros(t);
        inc.push(at, v, WINDOW);
        naive.push(at, v, WINDOW);
        for p in POLICIES {
            assert_eq!(inc.reduce(p), naive.reduce(p), "{p:?} at t={t}µs");
        }
        assert_eq!(inc.len(), naive.len());
    }
}

#[test]
fn duplicate_values_and_timestamps_match_oracle() {
    let (mut inc, mut naive) = both();
    for (t, v) in [(0u64, 5.0), (0, 5.0), (0, 5.0), (3, 5.0), (3, 7.0)] {
        inc.push(ms(t), v, WINDOW);
        naive.push(ms(t), v, WINDOW);
    }
    for p in POLICIES {
        assert_eq!(inc.reduce(p), naive.reduce(p), "{p:?} duplicates");
    }
    // Slide far enough that the t=0 triple expires.
    inc.expire(ms(12), WINDOW);
    naive.expire(ms(12), WINDOW);
    for p in POLICIES {
        assert_eq!(inc.reduce(p), naive.reduce(p), "{p:?} after expiry");
    }
}

#[test]
fn non_finite_readings_are_rejected() {
    // Regression: a NaN reading used to enter the window and wedge
    // the strict-`>` argmax (NaN compares false both ways),
    // so best() returned the NaN link until its window expired and
    // no finite challenger could dethrone it meanwhile.
    let mut s = ApSelector::new(WINDOW, HYSTERESIS, 1.0);
    let mut o = FullScanSelector::new(WINDOW, HYSTERESIS, 1.0);
    for (ap, at, v) in [
        (AP1, ms(0), f64::NAN),
        (AP2, ms(0), 10.0),
        (AP1, ms(1), f64::INFINITY),
        (AP1, ms(1), f64::NEG_INFINITY),
    ] {
        s.record(ap, at, v);
        o.record(ap, at, v);
    }
    assert_eq!(s.best(ms(2)), Some((AP2, 10.0)));
    assert_eq!(o.best(ms(2)), Some((AP2, 10.0)));
    // A rejected reading must not refresh range liveness either.
    assert_eq!(s.last_heard(AP1), None);
    assert_eq!(o.last_heard(AP1), None);
}

#[test]
fn silence_grace_boundary_is_inclusive() {
    // Regression: the serving AP was abandoned only strictly
    // *after* the grace (`last_reading + GRACE < now`), while the
    // doc promises abandonment once it has been "silent for the
    // grace period". Pin the inclusive boundary on both selectors:
    // dead at exactly t = last_reading + SILENCE_GRACE, alive one
    // nanosecond before.
    let just_before = ms(100) - SimDuration::from_nanos(1);
    let mut s = ApSelector::new(WINDOW, HYSTERESIS, 1.0);
    s.record(AP1, ms(0), 25.0);
    s.set_current(AP1, ms(0));
    s.record(AP2, ms(50), 3.0);
    s.record(AP2, just_before, 3.0);
    assert_eq!(s.evaluate(just_before), Verdict::Stay);
    assert_eq!(s.evaluate(ms(100)), Verdict::SwitchTo(AP2));

    let mut o = FullScanSelector::new(WINDOW, HYSTERESIS, 1.0);
    o.record(AP1, ms(0), 25.0);
    o.set_current(AP1, ms(0));
    o.record(AP2, ms(50), 3.0);
    o.record(AP2, just_before, 3.0);
    assert_eq!(o.evaluate(just_before), Verdict::Stay);
    assert_eq!(o.evaluate(ms(100)), Verdict::SwitchTo(AP2));
}
