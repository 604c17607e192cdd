//! AP selection: maximum median ESNR over a sliding window (paper §3.1.1).
//!
//! Each AP computes ESNR from the CSI of every uplink frame it hears and
//! reports it to the controller. Per client, the controller keeps the
//! readings of the last *W* = 10 ms per AP and selects
//! `a* = argmax_a median(E(a))` (Fig. 6). The median — not the mean or
//! the latest sample — is what makes the choice robust to single-frame
//! fading spikes while still reacting within a coherence time.
//!
//! The module also implements the two dampers the paper applies:
//! a *time hysteresis* between switches (§5.3.3) and the rule that the
//! in-range candidate set is "those APs that have received a packet from
//! the client within the AP selection window W" (§3.1.2 footnote).
//!
//! The per-link window reduction is delegated to
//! [`crate::window::EsnrWindow`], an incremental order-statistics
//! structure (an indexable sorted ring, so the median is an index read).
//!
//! ## The scan
//!
//! A client's links sit in a `Vec` sorted by AP id, and every argmax is
//! one pass over them: expire the window at `now`, read its reduction,
//! score it. No workload gives a client more than a few
//! dozen candidate APs, and the controller already walks the same links
//! on every downlink packet ([`ApSelector::for_each_heard`]), so the
//! pass costs about what the bookkeeping to avoid it would.
//! `crates/core/tests/prop_selection.rs` holds it bit-identical to an
//! independent full-scan selector (`tests/oracle/selection.rs`) under
//! adversarial interleavings.
//!
//! ## The verdict
//!
//! Two layers sit on top of the windows:
//!
//! * [`WindowReduce`] (from [`crate::window`]) is the **window
//!   reduction** — how one AP's readings collapse to a scalar (median,
//!   mean, max, latest).
//! * [`SwitchPolicyKind`] is the **verdict rule** — how the reduced
//!   candidates become a [`Verdict`]. [`ApSelector::evaluate`] is one
//!   `match` on it with two arms: the paper's reactive-median rule (the
//!   default) and a load-aware variant that discounts each candidate by
//!   the clients already on it. Both share the paper's dampers, in one
//!   order: no serving AP, best already serving, hysteresis, the
//!   silence grace, then the margin.

use crate::window::EsnrWindow;
use std::collections::BTreeMap;
use wgtt_mac::frame::NodeId;
use wgtt_sim::time::{SimDuration, SimTime};

pub use crate::window::WindowReduce;

/// How long the serving AP may go unheard before it is declared dead and
/// abandoned regardless of margin. Shorter than this, a CSI lull (a pair
/// of lost Block ACKs) must not force a panic switch. The boundary is
/// inclusive: an AP silent for exactly the grace period is already dead
/// (`last_reading + SILENCE_GRACE <= now` abandons it).
pub const SILENCE_GRACE: SimDuration = SimDuration::from_millis(100);

/// Load-penalty weight of [`SwitchPolicyKind::LoadAware`], dB per
/// natural-log unit of (1 + competing clients). One competing client
/// costs ≈ 1.4 dB and five cost ≈ 3.6 dB — comparable to the 2.5 dB
/// switch margin, so load breaks ties between comparably strong cells
/// without overriding a decisively stronger link. Ours, unvalidated.
pub const LOAD_BETA_DB: f64 = 2.0;

/// How the reduced candidates become a switch verdict (`WgttConfig`'s
/// `switch_policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchPolicyKind {
    /// The paper's rule (§3.1.1 + §5.3.3): switch when the max-median
    /// challenger beats the serving AP's median by the margin.
    #[default]
    ReactiveMedian,
    /// Load-aware decentralized selection (arXiv 1606.02316): candidates
    /// score `esnr − β·ln(1 + competing)`, where `competing` counts the
    /// *other* clients on that AP ([`LOAD_BETA_DB`]), and the best score
    /// challenges the serving AP's under the same dampers and margin.
    /// The log makes the first few co-residents cheap and a pile-up
    /// expensive, so a fleet spreads across overlapping picocells.
    LoadAware,
}

impl SwitchPolicyKind {
    /// Stable CLI/report label.
    pub fn label(self) -> &'static str {
        match self {
            SwitchPolicyKind::ReactiveMedian => "reactive-median",
            SwitchPolicyKind::LoadAware => "load-aware",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reactive" | "reactive-median" | "median" => Some(SwitchPolicyKind::ReactiveMedian),
            "load-aware" | "loadaware" | "load" => Some(SwitchPolicyKind::LoadAware),
            _ => None,
        }
    }

    /// Both rules, reactive first (comparison order).
    pub const fn all() -> [SwitchPolicyKind; 2] {
        [
            SwitchPolicyKind::ReactiveMedian,
            SwitchPolicyKind::LoadAware,
        ]
    }
}

/// The load-aware score of one candidate. `is_current` discounts the
/// client's own association, so the serving AP is not penalized for
/// serving it.
#[inline]
fn load_score(esnr_db: f64, load: u32, is_current: bool) -> f64 {
    let competing = load.saturating_sub(u32::from(is_current));
    esnr_db - LOAD_BETA_DB * f64::from(competing + 1).ln()
}

/// Per-AP associated-client counts the controller tracks: the input of
/// [`SwitchPolicyKind::LoadAware`] and the source of the controller's
/// `max_ap_load` high-water mark. Updated at association and switch
/// completion.
#[derive(Debug, Default, Clone)]
pub struct ApLoads {
    counts: BTreeMap<NodeId, u32>,
}

impl ApLoads {
    /// No clients associated anywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clients currently served by `ap`.
    #[inline]
    pub fn get(&self, ap: NodeId) -> u32 {
        self.counts.get(&ap).copied().unwrap_or(0)
    }

    /// Move one client from `from` (if any) to `to`; returns `to`'s new
    /// count so the caller can track the high-water mark. A re-assignment
    /// to the same AP is a net no-op.
    pub fn reassign(&mut self, from: Option<NodeId>, to: NodeId) -> u32 {
        if let Some(f) = from {
            if let Some(c) = self.counts.get_mut(&f) {
                *c = c.saturating_sub(1);
                if *c == 0 {
                    self.counts.remove(&f);
                }
            }
        }
        let c = self.counts.entry(to).or_default();
        *c += 1;
        *c
    }
}

/// Per-AP link state: the selection window plus the range-liveness
/// timestamp, kept in one entry so each reading costs a single lookup.
#[derive(Debug, Default)]
struct Link {
    window: EsnrWindow,
    /// Most recent reading regardless of window expiry (range liveness
    /// for the fan-out grace rule).
    last_reading: SimTime,
}

/// Per-client AP selection state.
#[derive(Debug)]
pub struct ApSelector {
    window: SimDuration,
    hysteresis: SimDuration,
    margin_db: f64,
    policy: WindowReduce,
    /// Every AP ever heard, sorted by AP id.
    links: Vec<(NodeId, Link)>,
    current: Option<NodeId>,
    last_switch: Option<SimTime>,
    /// The verdict rule [`evaluate`](Self::evaluate) runs (the paper's
    /// reactive-median rule by default).
    switch_policy: SwitchPolicyKind,
}

/// The selector's verdict after a new reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Keep the current AP.
    Stay,
    /// Switch to this AP (hysteresis and margin already applied).
    SwitchTo(NodeId),
    /// No AP has any reading in the window (client out of range).
    NoCandidate,
}

impl ApSelector {
    /// Build with the paper's knobs: window *W*, switch hysteresis, and
    /// the minimum median advantage a challenger needs.
    pub fn new(window: SimDuration, hysteresis: SimDuration, margin_db: f64) -> Self {
        ApSelector {
            window,
            hysteresis,
            margin_db,
            policy: WindowReduce::Median,
            links: Vec::new(),
            current: None,
            last_switch: None,
            switch_policy: SwitchPolicyKind::ReactiveMedian,
        }
    }

    /// Override the window reduction (ablation studies; the paper's
    /// algorithm is the default median).
    pub fn set_window_reduce(&mut self, policy: WindowReduce) {
        self.policy = policy;
    }

    /// Override the switch-verdict rule (the paper's reactive-median
    /// rule by default).
    pub fn set_switch_policy(&mut self, policy: SwitchPolicyKind) {
        self.switch_policy = policy;
    }

    /// Where `ap` sits in `links`: `Ok` at its entry, `Err` where it
    /// would be inserted.
    fn slot(&self, ap: NodeId) -> Result<usize, usize> {
        self.links.binary_search_by_key(&ap, |&(id, _)| id)
    }

    /// Record an ESNR reading from `ap` at `at`.
    ///
    /// Non-finite readings (a corrupt CSI report) are rejected outright:
    /// a NaN compares false both ways and would wedge the strict-`>`
    /// argmax for as long as it sat in the window, and a ±inf would pin
    /// the argmax for a whole window. A rejected reading does not
    /// refresh range liveness either — garbage is not evidence the link
    /// is alive.
    pub fn record(&mut self, ap: NodeId, at: SimTime, esnr_db: f64) {
        if !esnr_db.is_finite() {
            return;
        }
        let i = match self.slot(ap) {
            Ok(i) => i,
            Err(i) => {
                self.links.insert(i, (ap, Link::default()));
                i
            }
        };
        let link = &mut self.links[i].1;
        link.last_reading = link.last_reading.max(at);
        link.window.push(at, esnr_db, self.window);
    }

    /// Whether any AP has heard this client within `grace` of `now` —
    /// if not, the client is out of coverage and downlink fan-out should
    /// stop rather than burn airtime on a dark link.
    pub fn heard_within(&self, now: SimTime, grace: SimDuration) -> bool {
        self.links
            .iter()
            .any(|(_, l)| l.last_reading + grace >= now)
    }

    /// Visit the downlink replication set — every AP heard within
    /// `grace` of `now`, in ascending AP-id order. The set is
    /// deliberately wider than the selection window: an AP whose CSI
    /// arrives sporadically must still hold the client's packets in its
    /// cyclic queue, or a switch to it starts with holes in the ring.
    /// The controller's fan-out streams packets through this straight
    /// into its action sink, so the per-packet hot path allocates
    /// nothing.
    pub fn for_each_heard(&self, now: SimTime, grace: SimDuration, mut f: impl FnMut(NodeId)) {
        for &(ap, ref l) in &self.links {
            if l.last_reading + grace >= now {
                f(ap);
            }
        }
    }

    /// The AP currently serving this client, if any.
    pub fn current(&self) -> Option<NodeId> {
        self.current
    }

    /// Force the serving AP (initial association, or completion of a
    /// switch decided elsewhere).
    pub fn set_current(&mut self, ap: NodeId, now: SimTime) {
        self.current = Some(ap);
        self.last_switch = Some(now);
    }

    /// Reduced (by the configured [`WindowReduce`]; median by default)
    /// ESNR of `ap` over the window, if it has readings.
    pub fn median_esnr(&mut self, ap: NodeId, now: SimTime) -> Option<f64> {
        let i = self.slot(ap).ok()?;
        let window = &mut self.links[i].1.window;
        window.expire(now, self.window);
        window.reduce(self.policy)
    }

    /// The selector's one pass: expire every window at `now`, read its
    /// reduction, and keep the AP with the highest `score`.
    /// Links are in ascending AP id and the comparison is a strict `>`,
    /// so the lowest id wins ties.
    fn argmax(
        &mut self,
        now: SimTime,
        score: impl Fn(NodeId, f64) -> f64,
    ) -> Option<(NodeId, f64)> {
        let (window, policy) = (self.window, self.policy);
        let mut best: Option<(NodeId, f64)> = None;
        for (ap, l) in &mut self.links {
            l.window.expire(now, window);
            if let Some(v) = l.window.reduce(policy) {
                let s = score(*ap, v);
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((*ap, s));
                }
            }
        }
        best
    }

    /// The instantaneous argmax-median AP (no hysteresis) — the paper's
    /// "optimal AP" from the selector's own windows. (Table 2's
    /// reference is `World::selection_accuracy`, which samples the
    /// channel itself.)
    ///
    /// **Tie-break contract:** exact ties go to the *lowest AP id*,
    /// independent of reading arrival order or re-query. Ties are not
    /// hypothetical: the ESNR inversion clamps BER at 1e-12, so every
    /// strong in-range AP saturates at the identical per-modulation
    /// ceiling, and an unstable order here would flap the serving AP
    /// among them on every frame.
    pub fn best(&mut self, now: SimTime) -> Option<(NodeId, f64)> {
        self.argmax(now, |_, v| v)
    }

    /// Most recent reading timestamp from `ap` regardless of window
    /// expiry (`None` if the AP was never heard) — the range-liveness
    /// anchor the silence grace tests against.
    pub fn last_heard(&self, ap: NodeId) -> Option<SimTime> {
        self.slot(ap).ok().map(|i| self.links[i].1.last_reading)
    }

    /// Record a reading and immediately evaluate the selection rule —
    /// the controller's per-CsiReport entry. Exactly `record(ap, at,
    /// esnr_db)` and then the verdict against `loads`; the lockstep
    /// suite in `tests/prop_selection.rs` holds it to that. `loads` is
    /// the controller's per-AP table; only
    /// [`SwitchPolicyKind::LoadAware`] reads it.
    pub fn record_and_evaluate(
        &mut self,
        ap: NodeId,
        at: SimTime,
        esnr_db: f64,
        now: SimTime,
        loads: &ApLoads,
    ) -> Verdict {
        self.record(ap, at, esnr_db);
        self.decide(now, loads)
    }

    /// Evaluate the configured switch rule at `now`, with every AP's
    /// load read as 0 (so [`SwitchPolicyKind::LoadAware`] reduces to the
    /// reactive rule). Returns [`Verdict::SwitchTo`] only when the best
    /// AP differs from the current, beats it by the margin, and the
    /// hysteresis has elapsed.
    pub fn evaluate(&mut self, now: SimTime) -> Verdict {
        self.decide(now, &ApLoads::new())
    }

    /// The verdict: the challenger the configured rule picks, then the
    /// paper's dampers in order — no serving AP yet → switch; best is
    /// already serving → stay; hysteresis not elapsed → stay; serving
    /// window empty → switch only once it has been silent past the
    /// grace — then the margin.
    fn decide(&mut self, now: SimTime, loads: &ApLoads) -> Verdict {
        // The figure every candidate, the serving AP included, is judged
        // by: its reduction, discounted by its load under the load-aware
        // rule.
        let (kind, current) = (self.switch_policy, self.current);
        let score = |ap: NodeId, v: f64| match kind {
            SwitchPolicyKind::ReactiveMedian => v,
            SwitchPolicyKind::LoadAware => load_score(v, loads.get(ap), current == Some(ap)),
        };
        let Some((best_ap, best_v)) = self.argmax(now, score) else {
            return Verdict::NoCandidate;
        };
        let Some(current) = current else {
            return Verdict::SwitchTo(best_ap);
        };
        if best_ap == current {
            return Verdict::Stay;
        }
        if let Some(last) = self.last_switch {
            if now.saturating_since(last) < self.hysteresis {
                return Verdict::Stay;
            }
        }
        let Some(cv) = self.median_esnr(current, now) else {
            let silent = self
                .last_heard(current)
                .is_none_or(|t| t + SILENCE_GRACE <= now);
            return if silent {
                Verdict::SwitchTo(best_ap)
            } else {
                Verdict::Stay
            };
        };
        if best_v > score(current, cv) + self.margin_db {
            Verdict::SwitchTo(best_ap)
        } else {
            Verdict::Stay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn selector() -> ApSelector {
        ApSelector::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(40),
            1.0,
        )
    }

    const AP1: NodeId = NodeId(1);
    const AP2: NodeId = NodeId(2);
    const AP3: NodeId = NodeId(3);

    #[test]
    fn picks_max_median_like_fig6() {
        // Paper Fig. 6: AP3's window {23, 23, 23, 9, 9} has median 23 and
        // wins over AP1 {17, 13, 12, 11, 15} (median 13) and AP2
        // {13, 19, 18, 14, 13} (median 14) — despite AP3's recent dips.
        let mut s = selector();
        let t = ms(100);
        for (ap, vals) in [
            (AP1, [17.0, 13.0, 12.0, 11.0, 15.0]),
            (AP2, [13.0, 19.0, 18.0, 14.0, 13.0]),
            (AP3, [23.0, 23.0, 23.0, 9.0, 9.0]),
        ] {
            for (i, v) in vals.iter().enumerate() {
                s.record(ap, t + SimDuration::from_millis(i as u64), *v);
            }
        }
        let (best, median) = s.best(ms(105)).expect("candidates exist");
        assert_eq!(best, AP3);
        assert_eq!(median, 23.0);
    }

    #[test]
    fn window_expires_old_readings() {
        let mut s = selector();
        s.record(AP1, ms(0), 30.0);
        s.record(AP2, ms(11), 10.0);
        // At t=12 ms, AP1's reading (t=0) is outside the 10 ms window.
        let (best, _) = s.best(ms(12)).unwrap();
        assert_eq!(best, AP2);
        assert_eq!(s.median_esnr(AP1, ms(12)), None);
    }

    #[test]
    fn first_candidate_selected_immediately() {
        let mut s = selector();
        s.record(AP1, ms(1), 12.0);
        assert_eq!(s.evaluate(ms(1)), Verdict::SwitchTo(AP1));
    }

    #[test]
    fn hysteresis_blocks_rapid_flapping() {
        let mut s = selector();
        s.record(AP1, ms(0), 20.0);
        s.set_current(AP1, ms(0));
        // 10 ms later AP2 looks better, but hysteresis is 40 ms.
        s.record(AP1, ms(10), 10.0);
        s.record(AP2, ms(10), 20.0);
        assert_eq!(s.evaluate(ms(10)), Verdict::Stay);
        // After the hysteresis elapses the switch goes through.
        s.record(AP1, ms(45), 10.0);
        s.record(AP2, ms(45), 20.0);
        assert_eq!(s.evaluate(ms(45)), Verdict::SwitchTo(AP2));
    }

    #[test]
    fn margin_suppresses_noise_switches() {
        let mut s = selector();
        s.set_current(AP1, ms(0));
        s.record(AP1, ms(100), 15.0);
        s.record(AP2, ms(100), 15.5); // within the 1 dB margin
        assert_eq!(s.evaluate(ms(100)), Verdict::Stay);
        s.record(AP1, ms(101), 15.0);
        s.record(AP2, ms(101), 17.0); // decisive
        assert!(matches!(s.evaluate(ms(101)), Verdict::SwitchTo(AP2)));
    }

    #[test]
    fn current_out_of_range_forces_switch() {
        let mut s = selector();
        s.record(AP1, ms(0), 25.0);
        s.set_current(AP1, ms(0));
        // AP1 goes silent. Inside the silence grace (100 ms) the selector
        // holds on — a brief CSI lull is not a dead link.
        s.record(AP2, ms(90), 3.0);
        assert_eq!(s.evaluate(ms(90)), Verdict::Stay);
        // Once the grace elapses, a weak link beats a dead one.
        s.record(AP2, ms(150), 3.0);
        assert_eq!(s.evaluate(ms(150)), Verdict::SwitchTo(AP2));
    }

    #[test]
    fn no_candidates_reported() {
        let mut s = selector();
        assert_eq!(s.evaluate(ms(0)), Verdict::NoCandidate);
        s.record(AP1, ms(0), 20.0);
        s.set_current(AP1, ms(0));
        // Everything expired 100 ms later.
        assert_eq!(s.evaluate(ms(100)), Verdict::NoCandidate);
    }

    #[test]
    fn for_each_heard_is_sorted_and_graced() {
        let mut s = selector();
        s.record(AP3, ms(5), 10.0);
        s.record(AP1, ms(6), 10.0);
        s.record(AP2, ms(7), 10.0);
        let heard = |s: &ApSelector, now, grace| {
            let mut aps = Vec::new();
            s.for_each_heard(now, grace, |ap| aps.push(ap));
            aps
        };
        let grace = SimDuration::from_millis(50);
        assert_eq!(heard(&s, ms(8), grace), vec![AP1, AP2, AP3]);
        // AP3 (last heard at 5 ms) falls out first; the boundary is
        // inclusive.
        assert_eq!(heard(&s, ms(56), grace), vec![AP1, AP2]);
        assert!(s.heard_within(ms(57), grace));
        assert!(!s.heard_within(ms(58), grace));
    }

    #[test]
    fn policies_reduce_differently() {
        let readings = [5.0, 6.0, 50.0];
        let build = |policy| {
            let mut s = selector();
            s.set_window_reduce(policy);
            for (i, v) in readings.iter().enumerate() {
                s.record(AP1, ms(i as u64), *v);
            }
            s.median_esnr(AP1, ms(3)).unwrap()
        };
        assert_eq!(build(WindowReduce::Median), 6.0);
        assert!((build(WindowReduce::Mean) - 61.0 / 3.0).abs() < 1e-9);
        assert_eq!(build(WindowReduce::Max), 50.0);
        assert_eq!(build(WindowReduce::Latest), 50.0);
    }

    #[test]
    fn median_is_order_statistic_not_mean() {
        let mut s = selector();
        // One huge outlier must not dominate: median of
        // {5, 6, 50} = 6, mean would be ≈20.
        for (i, v) in [5.0, 6.0, 50.0].iter().enumerate() {
            s.record(AP1, ms(i as u64), *v);
        }
        assert_eq!(s.median_esnr(AP1, ms(3)), Some(6.0));
    }

    #[test]
    fn repeated_same_now_queries_are_stable() {
        let mut s = selector();
        s.record(AP1, ms(0), 20.0);
        s.record(AP2, ms(1), 25.0);
        let first = s.best(ms(2));
        // The reductions must return the identical answer on every
        // re-query at the same instant.
        for _ in 0..5 {
            assert_eq!(s.best(ms(2)), first);
        }
        assert_eq!(s.best(ms(2)), Some((AP2, 25.0)));
    }

    #[test]
    fn saturation_ties_break_to_lowest_ap_id() {
        // Multiple strong in-range APs saturate at the same per-
        // modulation ESNR ceiling (the 1e-12 BER clamp), producing
        // *exact* float ties. The documented order: lowest AP id wins,
        // regardless of which AP's reading arrived first.
        let ceiling = wgtt_radio::linear_to_db(wgtt_radio::Modulation::Qam16.snr_for_ber(0.0));
        for order in [
            [AP1, AP2, AP3],
            [AP3, AP2, AP1],
            [AP2, AP1, AP3],
            [AP3, AP1, AP2],
        ] {
            let mut s = selector();
            for (i, &ap) in order.iter().enumerate() {
                s.record(ap, ms(i as u64), ceiling);
            }
            let (best, v) = s.best(ms(3)).expect("candidates exist");
            assert_eq!(best, AP1, "insertion order {order:?} broke the tie");
            assert_eq!(v, ceiling);
            // Stable across re-queries and later tied readings.
            s.record(AP3, ms(4), ceiling);
            assert_eq!(s.best(ms(4)), Some((AP1, ceiling)));
        }
    }

    #[test]
    fn saturation_ties_do_not_flap_the_serving_ap() {
        // A client parked between saturated APs: whoever serves stays
        // serving — a tied challenger never wins the margin test, and
        // the argmax itself is pinned to the lowest id, so evaluate()
        // returns Stay forever instead of ping-ponging.
        let ceiling = wgtt_radio::linear_to_db(wgtt_radio::Modulation::Qam64.snr_for_ber(0.0));
        let mut s = selector();
        s.record(AP2, ms(0), ceiling);
        s.set_current(AP2, ms(0));
        for t in 1..200u64 {
            s.record(AP1, ms(t), ceiling);
            s.record(AP2, ms(t), ceiling);
            s.record(AP3, ms(t), ceiling);
            assert_eq!(
                s.evaluate(ms(t)),
                Verdict::Stay,
                "tied APs must not flap at t={t}"
            );
        }
    }

    #[test]
    fn one_late_query_expires_cascaded_fronts() {
        let mut s = selector();
        // Three readings whose deadlines pass at different instants; a
        // single late query must expire all of them at once.
        s.record(AP1, ms(0), 30.0);
        s.record(AP1, ms(2), 20.0);
        s.record(AP1, ms(4), 10.0);
        s.record(AP2, ms(4), 15.0);
        assert_eq!(s.best(ms(5)), Some((AP1, 20.0)));
        // t=13: AP1 readings at 0 and 2 ms expired, leaving {10}.
        assert_eq!(s.best(ms(13)), Some((AP2, 15.0)));
        assert_eq!(s.median_esnr(AP1, ms(13)), Some(10.0));
    }

    #[test]
    fn loads_reassign_and_max() {
        let mut l = ApLoads::new();
        assert_eq!(l.get(AP1), 0);
        assert_eq!(l.reassign(None, AP1), 1);
        assert_eq!(l.reassign(None, AP1), 2);
        assert_eq!(l.reassign(None, AP2), 1);
        // Moving one client over flips the majority.
        assert_eq!(l.reassign(Some(AP1), AP2), 2);
        assert_eq!(l.get(AP1), 1);
        // Re-association to the same AP is a net no-op.
        assert_eq!(l.reassign(Some(AP2), AP2), 2);
        assert_eq!(l.get(AP2), 2);
        // Draining an AP removes its entry entirely.
        assert_eq!(l.reassign(Some(AP1), AP2), 3);
        assert_eq!(l.get(AP1), 0);
        assert!(!l.counts.contains_key(&AP1));
    }

    #[test]
    fn load_aware_score_discounts_own_association() {
        // Serving AP with only us on it scores like an empty AP.
        assert_eq!(load_score(20.0, 1, true), load_score(20.0, 0, false));
        // A competing client costs β·ln 2.
        let d = load_score(20.0, 1, false) - load_score(20.0, 0, false);
        assert!((d + LOAD_BETA_DB * 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn kind_parses_labels() {
        for kind in SwitchPolicyKind::all() {
            assert_eq!(SwitchPolicyKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SwitchPolicyKind::parse("nope"), None);
        assert_eq!(
            SwitchPolicyKind::parse("reactive"),
            Some(SwitchPolicyKind::ReactiveMedian)
        );
    }
}
