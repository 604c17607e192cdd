//! Property suite for the pluggable switch-verdict layer
//! (`wgtt::policy`).
//!
//! Three contracts are pinned here:
//!
//! 1. **The trait extraction changed nothing.** `ReactiveMedian`
//!    through `evaluate()` must reproduce the seed's decision table
//!    *verbatim*. The oracle is an external replica of that table,
//!    computed in the test from public selector queries only (`best`,
//!    `median_esnr`, `last_heard`) plus shadow `current`/`last_switch`
//!    bookkeeping — so a regression anywhere in the trait plumbing
//!    (view wiring, damper order, margin comparison) diverges from a
//!    reimplementation that never touches the trait.
//! 2. **The slope fit is a least-squares fit.** `EsnrWindow::
//!    slope_db_per_s` against a from-scratch two-pass least-squares
//!    oracle over the same readings, plus recompute determinism to the
//!    bit.
//! 3. **The new policies do what they claim.** `Predictive` switches on
//!    an extrapolated crossing the reactive rule ignores (and never
//!    later than reactive); `LoadAware` spreads clients off a piled-up
//!    AP and degrades to the reactive rule when no load table is in
//!    scope.
//!
//! Fast-vs-full-scan bit-identity for every policy lives in
//! `prop_selection.rs`; this file owns verdict-semantics correctness.

mod oracle;

use oracle::selection::FullScanSelector;
use proptest::prelude::*;
use std::sync::Arc;
use wgtt::policy::{ApLoads, PolicyEnv, SwitchPolicyKind};
use wgtt::selection::{ApSelector, Verdict};
use wgtt::window::EsnrWindow;
use wgtt_mac::frame::NodeId;
use wgtt_sim::time::{SimDuration, SimTime};

const WINDOW: SimDuration = SimDuration::from_millis(10);
const HYSTERESIS: SimDuration = SimDuration::from_millis(40);
const MARGIN_DB: f64 = 1.0;
/// Must track `wgtt::selection::SILENCE_GRACE`; the replica hardcodes
/// the value on purpose, so a change to the constant shows up here.
const GRACE: SimDuration = SimDuration::from_millis(100);

fn esnr(raw: u32) -> f64 {
    raw as f64 / 10.0 - 20.0
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// The seed's `evaluate` decision table, recomputed from public queries
/// against `probe` (kept in lockstep with the selectors under test) and
/// the shadow `current`/`last_switch` the driver maintains.
fn legacy_verdict(
    probe: &mut FullScanSelector,
    current: Option<NodeId>,
    last_switch: Option<SimTime>,
    now: SimTime,
) -> Verdict {
    let Some((best_ap, best_v)) = probe.best(now) else {
        return Verdict::NoCandidate;
    };
    let Some(current) = current else {
        return Verdict::SwitchTo(best_ap);
    };
    if best_ap == current {
        return Verdict::Stay;
    }
    if let Some(last) = last_switch {
        if now.saturating_since(last) < HYSTERESIS {
            return Verdict::Stay;
        }
    }
    match probe.median_esnr(current, now) {
        None => {
            // Post-bugfix boundary: silent for the full grace ⇒ dead.
            let silent = probe.last_heard(current).is_none_or(|t| t + GRACE <= now);
            if silent {
                Verdict::SwitchTo(best_ap)
            } else {
                Verdict::Stay
            }
        }
        Some(cv) if best_v > cv + MARGIN_DB => Verdict::SwitchTo(best_ap),
        Some(_) => Verdict::Stay,
    }
}

proptest! {
    /// `ReactiveMedian` through the trait layer reproduces the seed
    /// decision table exactly, on both selectors, under adversarial
    /// interleavings of readings, removals, long silences, and applied
    /// switches.
    #[test]
    fn reactive_median_matches_legacy_decision_table(
        ops in proptest::collection::vec(
            (0u32..10, 0u32..5, 0u64..2_500, 0u32..600), 1..250
        )
    ) {
        let mut fast = ApSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        let mut full = FullScanSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        // The replica's query source — identical reading stream, but
        // never asked for a verdict, so the decision table below is the
        // only decision logic on this side.
        let mut probe = FullScanSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        let mut current: Option<NodeId> = None;
        let mut last_switch: Option<SimTime> = None;
        let mut t_us = 0u64;
        for (kind, ap_raw, dt_us, raw) in ops {
            // Mostly sub-window steps; the tail makes multi-window
            // silences (the grace path) routine.
            t_us += match dt_us {
                0..=499 => 0,
                500..=1_999 => dt_us - 500,
                _ => (dt_us - 2_000) * 25_000,
            };
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 4);
            match kind {
                0..=5 => {
                    let v = esnr(raw);
                    fast.record(ap, now, v);
                    full.record(ap, now, v);
                    probe.record(ap, now, v);
                }
                6 => {
                    fast.remove_ap(ap);
                    full.remove_ap(ap);
                    probe.remove_ap(ap);
                }
                _ => {
                    let expected = legacy_verdict(&mut probe, current, last_switch, now);
                    let fv = fast.evaluate(now);
                    let ov = full.evaluate(now);
                    prop_assert_eq!(fv, expected, "fast diverged from seed table at t={}µs", t_us);
                    prop_assert_eq!(ov, expected, "oracle diverged from seed table at t={}µs", t_us);
                    if let Verdict::SwitchTo(target) = expected {
                        fast.set_current(target, now);
                        full.set_current(target, now);
                        current = Some(target);
                        last_switch = Some(now);
                    }
                }
            }
        }
    }

    /// `EsnrWindow::slope_db_per_s` equals a from-scratch least-squares
    /// fit over the window's live readings (absolute-time formulation,
    /// a numerically different path than the implementation's
    /// relative-time one), and recomputation is deterministic to the
    /// bit.
    #[test]
    fn slope_matches_least_squares_oracle(
        ops in proptest::collection::vec((0u64..2_000, 0u32..600), 1..120)
    ) {
        let mut w = EsnrWindow::new();
        let mut kept: Vec<(u64, f64)> = Vec::new();
        let mut t_us = 0u64;
        for (dt_us, raw) in ops {
            t_us += if dt_us > 1_900 { dt_us * 15 } else { dt_us };
            let at = SimTime::from_micros(t_us);
            let v = esnr(raw);
            w.push(at, v, WINDOW);
            kept.push((t_us, v));
            // Mirror the strict `t + W < now` expiry.
            kept.retain(|&(t, _)| SimTime::from_micros(t) + WINDOW >= at);
            prop_assert_eq!(w.len(), kept.len());

            let got = w.slope_db_per_s();
            prop_assert_eq!(
                got.map(f64::to_bits),
                w.slope_db_per_s().map(f64::to_bits),
                "recompute not deterministic at t={}µs", t_us
            );
            // Oracle fit in absolute seconds.
            let n = kept.len() as f64;
            let distinct = kept.iter().any(|&(t, _)| t != kept[0].0);
            if kept.len() < 2 || !distinct {
                prop_assert_eq!(got.map(f64::to_bits), None, "expected no fit at t={}µs", t_us);
            } else {
                let t_mean = kept.iter().map(|&(t, _)| t as f64 * 1e-6).sum::<f64>() / n;
                let v_mean = kept.iter().map(|&(_, v)| v).sum::<f64>() / n;
                let num: f64 = kept
                    .iter()
                    .map(|&(t, v)| (t as f64 * 1e-6 - t_mean) * (v - v_mean))
                    .sum();
                let den: f64 = kept
                    .iter()
                    .map(|&(t, _)| (t as f64 * 1e-6 - t_mean).powi(2))
                    .sum();
                let expected = num / den;
                let slope = got.expect("fit exists");
                let tol = 1e-6 * expected.abs().max(1.0);
                prop_assert!(
                    (slope - expected).abs() <= tol,
                    "slope {} vs oracle {} at t={}µs", slope, expected, t_us
                );
            }
        }
    }

    /// `Predictive` never switches *later* than `ReactiveMedian`: on
    /// any reading stream, whenever the reactive twin switches, the
    /// predictive twin has either already switched or switches at the
    /// same instant (its verdict rule contains the reactive trigger).
    /// Concretely: at every evaluation, reactive `SwitchTo` implies
    /// predictive `SwitchTo` unless their serving state already
    /// diverged by an *earlier* predictive switch.
    #[test]
    fn predictive_is_never_later_than_reactive(
        ops in proptest::collection::vec(
            (0u32..8, 0u32..4, 0u64..1_500, 0u32..600), 1..200
        )
    ) {
        let mut reactive = ApSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        let mut predictive = ApSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        predictive.set_switch_policy(SwitchPolicyKind::predictive().build());
        let mut diverged = false;
        let mut t_us = 0u64;
        for (kind, ap_raw, dt_us, raw) in ops {
            t_us += if dt_us > 1_400 { dt_us * 15 } else { dt_us };
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 4);
            match kind {
                0..=5 => {
                    let v = esnr(raw);
                    reactive.record(ap, now, v);
                    predictive.record(ap, now, v);
                }
                _ => {
                    let rv = reactive.evaluate(now);
                    let pv = predictive.evaluate(now);
                    if !diverged {
                        // Identical serving state: the predictive rule
                        // is reactive-trigger ∨ forecast-trigger, so a
                        // reactive switch forces a predictive one.
                        if let Verdict::SwitchTo(t) = rv {
                            prop_assert!(
                                matches!(pv, Verdict::SwitchTo(_)),
                                "predictive lagged reactive at t={}µs: {:?} vs SwitchTo({:?})",
                                t_us, pv, t
                            );
                        }
                        prop_assert_eq!(
                            matches!(rv, Verdict::NoCandidate),
                            matches!(pv, Verdict::NoCandidate),
                            "candidate emptiness diverged at t={}µs", t_us
                        );
                    }
                    if rv != pv {
                        diverged = true;
                    }
                    if let Verdict::SwitchTo(t) = rv {
                        reactive.set_current(t, now);
                    }
                    if let Verdict::SwitchTo(t) = pv {
                        predictive.set_current(t, now);
                    }
                }
            }
        }
    }

    /// With no load table in scope, `LoadAware` is verdict-identical to
    /// `ReactiveMedian`: every load reads 0, the score argmax collapses
    /// to the plain reduction argmax (same strict-`>`, ascending-id
    /// tie-break), and the margin comparison loses its β terms.
    #[test]
    fn load_aware_without_loads_is_reactive(
        ops in proptest::collection::vec(
            (0u32..8, 0u32..4, 0u64..1_500, 0u32..600), 1..200
        )
    ) {
        let mut reactive = ApSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        let mut loadaware = ApSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        loadaware.set_switch_policy(SwitchPolicyKind::load_aware().build());
        let mut t_us = 0u64;
        for (kind, ap_raw, dt_us, raw) in ops {
            t_us += if dt_us > 1_400 { dt_us * 15 } else { dt_us };
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 4);
            match kind {
                0..=5 => {
                    let v = esnr(raw);
                    reactive.record(ap, now, v);
                    loadaware.record(ap, now, v);
                }
                _ => {
                    let rv = reactive.evaluate(now);
                    let lv = loadaware.evaluate(now);
                    prop_assert_eq!(
                        rv, lv,
                        "LoadAware with empty env diverged from reactive at t={}µs", t_us
                    );
                    if let Verdict::SwitchTo(t) = rv {
                        reactive.set_current(t, now);
                        loadaware.set_current(t, now);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned behavioral scenarios for the two new policies.
// ---------------------------------------------------------------------

/// The hand-off geometry: serving AP decaying at 100 dB/s, challenger
/// rising at 100 dB/s, currently 1 dB apart — inside the 2.5 dB margin,
/// so the reactive rule stays. Extrapolated 40 ms ahead the gap is 9 dB
/// and the predictive rule switches — one hysteresis period earlier
/// than reactive would.
#[test]
fn predictive_switches_on_extrapolated_crossing() {
    let margin = 2.5;
    let mk = || ApSelector::new(WINDOW, HYSTERESIS, margin);
    let ap1 = NodeId(1);
    let ap2 = NodeId(2);
    let mut reactive = mk();
    let mut predictive = mk();
    predictive.set_switch_policy(SwitchPolicyKind::predictive().build());
    for s in [&mut reactive, &mut predictive] {
        s.set_current(ap1, ms(0));
        for i in 0..=10u64 {
            // AP1: 16.5 → 15.5 dB (−100 dB/s), median 16.0.
            s.record(ap1, ms(100 + i), 16.5 - 0.1 * i as f64);
            // AP2: 16.5 → 17.5 dB (+100 dB/s), median 17.0.
            s.record(ap2, ms(100 + i), 16.5 + 0.1 * i as f64);
        }
    }
    // Challenger leads by 1.0 dB — under the margin: reactive stays.
    assert_eq!(reactive.evaluate(ms(110)), Verdict::Stay);
    // Extrapolated to now + 40 ms: 12.0 vs 21.0 — predictive switches.
    assert_eq!(predictive.evaluate(ms(110)), Verdict::SwitchTo(ap2));
}

/// A flat geometry must NOT trigger the forecast: same setup but both
/// links steady. Predictive agrees with reactive (Stay).
#[test]
fn predictive_stays_on_flat_links() {
    let ap1 = NodeId(1);
    let ap2 = NodeId(2);
    let mut s = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    s.set_switch_policy(SwitchPolicyKind::predictive().build());
    s.set_current(ap1, ms(0));
    for i in 0..=10u64 {
        s.record(ap1, ms(100 + i), 16.0);
        s.record(ap2, ms(100 + i), 17.0); // 1 dB lead, no trend
    }
    assert_eq!(s.evaluate(ms(110)), Verdict::Stay);
}

/// The fleet pile-up: two equal-ESNR APs, ten clients on the serving
/// one, none on the other. Reactive ties break to the serving AP and it
/// stays forever; load-aware pays β·ln(10) ≈ 4.6 dB for the crowd,
/// which clears the 2.5 dB margin, and spreads to the empty AP.
#[test]
fn load_aware_spreads_off_a_piled_up_ap() {
    let ap1 = NodeId(1);
    let ap2 = NodeId(2);
    let mut loads = ApLoads::new();
    for _ in 0..10 {
        loads.reassign(None, ap1);
    }
    let env = PolicyEnv {
        loads: Some(&loads),
    };

    let mut reactive = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    let mut loadaware = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    loadaware.set_switch_policy(SwitchPolicyKind::load_aware().build());
    for s in [&mut reactive, &mut loadaware] {
        s.set_current(ap1, ms(0));
        for i in 0..=5u64 {
            s.record(ap1, ms(100 + i), 18.0);
            s.record(ap2, ms(100 + i), 18.0);
        }
    }
    assert_eq!(reactive.evaluate_with(ms(105), env), Verdict::Stay);
    assert_eq!(
        loadaware.evaluate_with(ms(105), env),
        Verdict::SwitchTo(ap2)
    );
}

/// β is sized to break ties, not to override a decisively stronger
/// link: the same pile-up with the crowded AP 8 dB stronger stays put.
#[test]
fn load_aware_does_not_override_a_decisive_esnr_lead() {
    let ap1 = NodeId(1);
    let ap2 = NodeId(2);
    let mut loads = ApLoads::new();
    for _ in 0..10 {
        loads.reassign(None, ap1);
    }
    let env = PolicyEnv {
        loads: Some(&loads),
    };
    let mut s = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    s.set_switch_policy(SwitchPolicyKind::load_aware().build());
    s.set_current(ap1, ms(0));
    for i in 0..=5u64 {
        s.record(ap1, ms(100 + i), 26.0);
        s.record(ap2, ms(100 + i), 18.0);
    }
    assert_eq!(s.evaluate_with(ms(105), env), Verdict::Stay);
}

/// Policies are shared trait objects: one `Arc` serving two selectors
/// must not entangle their verdicts (stateless by contract).
#[test]
fn one_policy_arc_serves_independent_selectors() {
    let sp: Arc<_> = SwitchPolicyKind::predictive().build();
    let ap1 = NodeId(1);
    let ap2 = NodeId(2);
    let mut a = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    let mut b = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    a.set_switch_policy(Arc::clone(&sp));
    b.set_switch_policy(sp);
    a.record(ap1, ms(0), 20.0);
    b.record(ap2, ms(0), 20.0);
    assert_eq!(a.evaluate(ms(0)), Verdict::SwitchTo(ap1));
    assert_eq!(b.evaluate(ms(0)), Verdict::SwitchTo(ap2));
}
