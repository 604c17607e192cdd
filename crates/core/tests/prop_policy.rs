//! Property suite for the switch verdict ([`SwitchPolicyKind`] inside
//! `ApSelector::evaluate`).
//!
//! Two contracts are pinned here:
//!
//! 1. **Each rule is its decision table.** The oracle is an external
//!    replica of that table, computed in the test from public selector
//!    queries only (`best`, `in_range`, `median_esnr`, `last_heard`)
//!    plus shadow `current`/`last_switch` bookkeeping — so a regression
//!    anywhere in the verdict (argmax, scoring, damper order, margin
//!    comparison) diverges from a reimplementation that shares none of
//!    its code. The reactive twin is the seed's table verbatim; the
//!    load-aware twin scores `v − β·ln(1 + competing)` with the
//!    own-AP discount, against random load tables that move with every
//!    applied switch.
//! 2. **`LoadAware` does what it claims.** It spreads clients off a
//!    piled-up AP, does not override a decisive ESNR lead, and degrades
//!    to the reactive rule when no load table is in scope.
//!
//! Fast-vs-full-scan bit-identity for both rules lives in
//! `prop_selection.rs`; this file owns verdict-semantics correctness.

mod oracle;

use oracle::selection::FullScanSelector;
use proptest::prelude::*;
use wgtt::selection::{ApLoads, ApSelector, SwitchPolicyKind, Verdict};
use wgtt_mac::frame::NodeId;
use wgtt_sim::time::{SimDuration, SimTime};

const WINDOW: SimDuration = SimDuration::from_millis(10);
const HYSTERESIS: SimDuration = SimDuration::from_millis(40);
const MARGIN_DB: f64 = 1.0;
/// Must track `wgtt::selection::SILENCE_GRACE`; the replica hardcodes
/// the value on purpose, so a change to the constant shows up here.
const GRACE: SimDuration = SimDuration::from_millis(100);
/// Must track `wgtt::selection::LOAD_BETA_DB`, hardcoded for the same
/// reason.
const BETA_DB: f64 = 2.0;

fn esnr(raw: u32) -> f64 {
    raw as f64 / 10.0 - 20.0
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// The decision table, recomputed from public queries against `probe`
/// (kept in lockstep with the selectors under test) and the shadow
/// `current`/`last_switch` the property loop maintains. With `loads` absent it
/// is the seed's reactive table; with a load table, every candidate and
/// the serving AP are judged by their load-discounted score.
fn legacy_verdict(
    probe: &mut FullScanSelector,
    current: Option<NodeId>,
    last_switch: Option<SimTime>,
    now: SimTime,
    loads: Option<&ApLoads>,
) -> Verdict {
    let score = |ap: NodeId, v: f64| match loads {
        None => v,
        Some(l) => {
            let competing = l.get(ap).saturating_sub(u32::from(current == Some(ap)));
            v - BETA_DB * (1.0 + f64::from(competing)).ln()
        }
    };
    let best = match loads {
        None => probe.best(now),
        Some(_) => {
            let mut best: Option<(NodeId, f64)> = None;
            for ap in probe.in_range(now) {
                let s = score(ap, probe.median_esnr(ap, now).expect("in range"));
                if best.is_none_or(|(_, b)| s > b) {
                    best = Some((ap, s));
                }
            }
            best
        }
    };
    let Some((best_ap, best_v)) = best else {
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
        Some(cv) if best_v > score(current, cv) + MARGIN_DB => Verdict::SwitchTo(best_ap),
        Some(_) => Verdict::Stay,
    }
}

/// Decode a time step: mostly sub-window steps; the tail makes
/// multi-window silences (the grace path) routine.
fn step_us(dt_us: u64) -> u64 {
    match dt_us {
        0..=499 => 0,
        500..=1_999 => dt_us - 500,
        _ => (dt_us - 2_000) * 25_000,
    }
}

proptest! {
    /// `ReactiveMedian` reproduces the seed decision table exactly, on
    /// both selectors, under adversarial interleavings of readings, long
    /// silences, and applied switches.
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
            t_us += step_us(dt_us);
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 4);
            match kind {
                0..=6 => {
                    let v = esnr(raw);
                    fast.record(ap, now, v);
                    full.record(ap, now, v);
                    probe.record(ap, now, v);
                }
                _ => {
                    let expected = legacy_verdict(&mut probe, current, last_switch, now, None);
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

    /// `LoadAware` reproduces its decision table — the reactive table
    /// with every figure discounted by `β·ln(1 + competing)` — on both
    /// selectors. The load table starts random and non-empty, and every
    /// applied switch moves the client's own count from the old AP to
    /// the new one, so the own-AP discount is exercised on both sides of
    /// every switch.
    #[test]
    fn load_aware_matches_its_decision_table(
        initial in proptest::collection::vec(0u32..4, 1..24),
        ops in proptest::collection::vec(
            (0u32..10, 0u32..5, 0u64..2_500, 0u32..600), 1..250
        )
    ) {
        let mut loads = ApLoads::new();
        for ap in initial {
            loads.reassign(None, NodeId(ap));
        }
        let mut fast = ApSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        let mut full = FullScanSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        fast.set_switch_policy(SwitchPolicyKind::LoadAware);
        full.set_switch_policy(SwitchPolicyKind::LoadAware);
        let mut probe = FullScanSelector::new(WINDOW, HYSTERESIS, MARGIN_DB);
        let mut current: Option<NodeId> = None;
        let mut last_switch: Option<SimTime> = None;
        let mut t_us = 0u64;
        for (kind, ap_raw, dt_us, raw) in ops {
            t_us += step_us(dt_us);
            let now = SimTime::from_micros(t_us);
            let ap = NodeId(ap_raw % 4);
            let v = esnr(raw);
            match kind {
                0..=5 => {
                    fast.record(ap, now, v);
                    full.record(ap, now, v);
                    probe.record(ap, now, v);
                }
                _ => {
                    // The controller's entry: the reading, then the
                    // verdict against the load table.
                    probe.record(ap, now, v);
                    let expected =
                        legacy_verdict(&mut probe, current, last_switch, now, Some(&loads));
                    let fv = fast.record_and_evaluate(ap, now, v, now, &loads);
                    let ov = full.record_and_evaluate(ap, now, v, now, &loads);
                    prop_assert_eq!(fv, expected, "fast diverged from load table at t={}µs", t_us);
                    prop_assert_eq!(ov, expected, "oracle diverged from load table at t={}µs", t_us);
                    if let Verdict::SwitchTo(target) = expected {
                        loads.reassign(current, target);
                        fast.set_current(target, now);
                        full.set_current(target, now);
                        current = Some(target);
                        last_switch = Some(now);
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
        loadaware.set_switch_policy(SwitchPolicyKind::LoadAware);
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
                        "LoadAware without loads diverged from reactive at t={}µs", t_us
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
// Pinned behavioral scenarios for the load-aware rule.
// ---------------------------------------------------------------------

/// Ten clients on `ap1`: the pile-up both scenarios below start from.
fn piled_up_on(ap1: NodeId) -> ApLoads {
    let mut loads = ApLoads::new();
    for _ in 0..10 {
        loads.reassign(None, ap1);
    }
    loads
}

/// The fleet pile-up: two equal-ESNR APs, ten clients on the serving
/// one, none on the other. Reactive ties break to the serving AP and it
/// stays forever; load-aware pays β·ln(10) ≈ 4.6 dB for the crowd,
/// which clears the 2.5 dB margin, and spreads to the empty AP.
#[test]
fn load_aware_spreads_off_a_piled_up_ap() {
    let ap1 = NodeId(1);
    let ap2 = NodeId(2);
    let loads = piled_up_on(ap1);

    let mut reactive = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    let mut loadaware = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    loadaware.set_switch_policy(SwitchPolicyKind::LoadAware);
    for s in [&mut reactive, &mut loadaware] {
        s.set_current(ap1, ms(0));
        for i in 0..5u64 {
            s.record(ap1, ms(100 + i), 18.0);
            s.record(ap2, ms(100 + i), 18.0);
        }
        s.record(ap1, ms(105), 18.0);
    }
    assert_eq!(
        reactive.record_and_evaluate(ap2, ms(105), 18.0, ms(105), &loads),
        Verdict::Stay
    );
    assert_eq!(
        loadaware.record_and_evaluate(ap2, ms(105), 18.0, ms(105), &loads),
        Verdict::SwitchTo(ap2)
    );
}

/// β is sized to break ties, not to override a decisively stronger
/// link: the same pile-up with the crowded AP 8 dB stronger stays put.
#[test]
fn load_aware_does_not_override_a_decisive_esnr_lead() {
    let ap1 = NodeId(1);
    let ap2 = NodeId(2);
    let loads = piled_up_on(ap1);
    let mut s = ApSelector::new(WINDOW, HYSTERESIS, 2.5);
    s.set_switch_policy(SwitchPolicyKind::LoadAware);
    s.set_current(ap1, ms(0));
    for i in 0..5u64 {
        s.record(ap1, ms(100 + i), 26.0);
        s.record(ap2, ms(100 + i), 18.0);
    }
    s.record(ap1, ms(105), 26.0);
    assert_eq!(
        s.record_and_evaluate(ap2, ms(105), 18.0, ms(105), &loads),
        Verdict::Stay
    );
}
