//! Pluggable switch-verdict policies (ROADMAP item 5).
//!
//! The paper's selector is purely *reactive*: switch when a challenger's
//! median ESNR beats the serving AP's by the margin (§3.1.1, §5.3). That
//! rule is one point in a design space this module opens up:
//!
//! * [`ReactiveMedian`] — the paper's rule, extracted verbatim from
//!   `ApSelector::evaluate`. Bit-identical to the pre-refactor selector;
//!   `crates/core/tests/prop_selection.rs` and `prop_policy.rs` hold it
//!   to that.
//! * [`Predictive`] — trajectory-predictive switching (the ML
//!   handover-prediction direction, arXiv 2111.13879, realized as a
//!   least-squares ESNR slope): fit each link's dB-per-second trend over
//!   the selection window and switch as soon as the *extrapolated*
//!   serving ESNR falls below the challenger's extrapolation by the
//!   margin within the evaluation horizon — before the degradation is
//!   fully realized, instead of after.
//! * [`LoadAware`] — interference/load-aware decentralized selection
//!   (arXiv 1606.02316): at fleet density a greedy per-client max-ESNR
//!   rule piles every vehicle on the same strong AP; scoring candidates
//!   by `esnr − β·ln(1 + load)` spreads clients across overlapping
//!   picocells at a small ESNR cost.
//!
//! ## Architecture
//!
//! A policy is a stateless verdict function over a [`PolicyView`] — a
//! narrow, dyn-compatible lens onto one client's selector state (reduced
//! windows, argmax, slopes, silence liveness) plus the optional
//! controller-level [`PolicyEnv`] (per-AP association loads).
//! `ApSelector` implements the view in this crate and the full-scan
//! oracle of the test suites (`tests/oracle/selection.rs`) implements it
//! again, so **every policy is differentially tested through the same
//! fast-vs-full-scan harness as the paper's rule**, and the fast path's
//! caches are exercised by all of them.
//!
//! All three policies share the paper's dampers — candidate-set
//! emptiness, time hysteresis, and the silence grace on the serving
//! AP — via `dampers`; they differ only in the comparison that runs
//! once those gates pass. Policies are handed around as
//! `Arc<dyn SwitchPolicy>` (`Send + Sync`: the sharded world engine
//! moves selectors across scoped threads), chosen by the `Copy`-able
//! [`SwitchPolicyKind`] in `WgttConfig`.

use crate::selection::Verdict;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use wgtt_mac::frame::NodeId;
use wgtt_sim::time::{SimDuration, SimTime};

/// Per-AP associated-client counts the controller already tracks — the
/// "load" term of the decentralized objective. One instance per
/// controller, updated at association and switch completion, shared
/// read-only with every client's evaluation through [`PolicyEnv`].
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

    /// Highest current per-AP count (0 when nobody is associated).
    pub fn max_load(&self) -> u32 {
        self.counts.values().copied().max().unwrap_or(0)
    }
}

/// Controller-level context a selector-local view cannot know on its
/// own. Absent fields degrade gracefully: with no loads table,
/// [`LoadAware`] scores every AP at load 0 and reduces to the reactive
/// rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyEnv<'a> {
    /// Per-AP associated-client counts (the controller's table).
    pub loads: Option<&'a ApLoads>,
}

/// The policy's lens onto one client's selection state at one instant.
///
/// Dyn-compatible on purpose: the O(1) `ApSelector` implements it here
/// and the test suites' full-scan oracle implements it again, so a
/// policy decided through this trait is automatically covered by the
/// fast-vs-oracle differential suites. Methods taking `&mut self` may
/// expire windows (queries are as-of `now`, exactly like the selector's
/// own methods).
pub trait PolicyView {
    /// The evaluation instant.
    fn now(&self) -> SimTime;
    /// The serving AP, if any.
    fn current(&self) -> Option<NodeId>;
    /// Instant of the last switch (hysteresis anchor).
    fn last_switch(&self) -> Option<SimTime>;
    /// Configured time hysteresis between switches.
    fn hysteresis(&self) -> SimDuration;
    /// Configured challenger margin, dB.
    fn margin_db(&self) -> f64;
    /// Argmax of the per-AP window reduction (lowest AP id on ties).
    fn best(&mut self) -> Option<(NodeId, f64)>;
    /// Reduced window value of `ap`, if it has readings.
    fn reduced(&mut self, ap: NodeId) -> Option<f64>;
    /// Least-squares ESNR slope of `ap`'s *trend* window, dB/s (`None`
    /// without two distinct-timestamp readings). The trend window is an
    /// order of magnitude longer than the selection window: over 10 ms
    /// the fit would measure Rayleigh-fading wiggle (hundreds of
    /// spurious dB/s), while the path-loss trend a hand-off should
    /// anticipate lives at the ~100 ms scale. Maintained only when the
    /// active policy's [`SwitchPolicy::wants_trend`] says so.
    fn slope_db_per_s(&mut self, ap: NodeId) -> Option<f64>;
    /// Whether `ap` has been silent for at least the silence grace (or
    /// was removed outright) — the "dead serving link" test.
    fn silent_past_grace(&self, ap: NodeId) -> bool;
    /// Associated-client count of `ap` from the [`PolicyEnv`] (0 when no
    /// loads table was supplied).
    fn load(&self, ap: NodeId) -> u32;
    /// Visit every candidate AP (non-empty window) in ascending AP-id
    /// order as `(ap, reduced_value, load)`.
    fn for_each_candidate(&mut self, f: &mut dyn FnMut(NodeId, f64, u32));
}

/// A switch-verdict rule: pure function of the view, no internal state,
/// so one `Arc` serves every client of a controller (and crosses the
/// shard engine's thread boundaries).
pub trait SwitchPolicy: fmt::Debug + Send + Sync {
    /// Decide the verdict for the client behind `view`.
    fn decide(&self, view: &mut dyn PolicyView) -> Verdict;

    /// Whether the selector should maintain the long per-link trend
    /// window [`PolicyView::slope_db_per_s`] fits over. Policies that
    /// never call the slope leave this `false` and pay nothing on the
    /// record hot path.
    fn wants_trend(&self) -> bool {
        false
    }
}

/// The dampers every policy applies before its own comparison, in the
/// exact order of the pre-refactor `ApSelector::evaluate` (preserving
/// that order is what keeps [`ReactiveMedian`] bit-identical to the
/// seed): no serving AP yet → switch; best is already serving → stay;
/// hysteresis not elapsed → stay; serving AP's window empty → switch
/// only once it has been silent past the grace, else stay.
///
/// Returns `Err(verdict)` when a damper decides, `Ok((current,
/// current_value))` when the policy's own comparison should run.
fn dampers(view: &mut dyn PolicyView, best_ap: NodeId) -> Result<(NodeId, f64), Verdict> {
    let Some(current) = view.current() else {
        return Err(Verdict::SwitchTo(best_ap));
    };
    if best_ap == current {
        return Err(Verdict::Stay);
    }
    if let Some(last) = view.last_switch() {
        if view.now().saturating_since(last) < view.hysteresis() {
            return Err(Verdict::Stay);
        }
    }
    match view.reduced(current) {
        None => Err(if view.silent_past_grace(current) {
            Verdict::SwitchTo(best_ap)
        } else {
            Verdict::Stay
        }),
        Some(cv) => Ok((current, cv)),
    }
}

/// The paper's rule (§3.1.1 + §5.3.3): switch when the max-median
/// challenger beats the serving AP's median by the margin. Extracted
/// verbatim from the pre-refactor `ApSelector::evaluate`; the property
/// suites pin it bit-identical to that code.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactiveMedian;

impl SwitchPolicy for ReactiveMedian {
    fn decide(&self, view: &mut dyn PolicyView) -> Verdict {
        let Some((best_ap, best_v)) = view.best() else {
            return Verdict::NoCandidate;
        };
        match dampers(view, best_ap) {
            Err(v) => v,
            Ok((_, cv)) => {
                if best_v > cv + view.margin_db() {
                    Verdict::SwitchTo(best_ap)
                } else {
                    Verdict::Stay
                }
            }
        }
    }
}

/// Trajectory-predictive switching: extrapolate each link's
/// least-squares ESNR slope `horizon` ahead and switch when the
/// challenger's *predicted* value beats the serving AP's by the margin —
/// the reactive trigger still applies, so this policy switches no later
/// than [`ReactiveMedian`], and earlier whenever the serving link is
/// measurably decaying while the challenger rises (the approaching-AP /
/// receding-AP geometry of every cell hand-off).
#[derive(Debug, Clone, Copy)]
pub struct Predictive {
    /// How far ahead to extrapolate. The default equals the switch
    /// hysteresis (40 ms): after deciding, the selector cannot revisit
    /// the choice for one hysteresis period, so that is exactly the
    /// interval over which acting on the forecast beats waiting.
    pub horizon: SimDuration,
}

impl Default for Predictive {
    fn default() -> Self {
        Predictive {
            horizon: SimDuration::from_millis(40),
        }
    }
}

impl SwitchPolicy for Predictive {
    fn wants_trend(&self) -> bool {
        true
    }

    fn decide(&self, view: &mut dyn PolicyView) -> Verdict {
        let Some((best_ap, best_v)) = view.best() else {
            return Verdict::NoCandidate;
        };
        match dampers(view, best_ap) {
            Err(v) => v,
            Ok((current, cv)) => {
                let margin = view.margin_db();
                if best_v > cv + margin {
                    // The reactive trigger already fires; no forecast
                    // needed (and none could say otherwise).
                    return Verdict::SwitchTo(best_ap);
                }
                // Extrapolate both links to `now + horizon`. A window
                // too flat or too short to fit (slope `None`) predicts
                // persistence — exactly the reactive assumption.
                let h = self.horizon.as_secs_f64();
                let cur_hat = cv + view.slope_db_per_s(current).unwrap_or(0.0) * h;
                let best_hat = best_v + view.slope_db_per_s(best_ap).unwrap_or(0.0) * h;
                if best_hat > cur_hat + margin {
                    Verdict::SwitchTo(best_ap)
                } else {
                    Verdict::Stay
                }
            }
        }
    }
}

/// Interference/load-aware decentralized selection (arXiv 1606.02316):
/// candidates are scored `reduced_esnr − β·ln(1 + competing)` where
/// `competing` is the number of *other* clients associated to that AP,
/// and the argmax-score AP challenges the serving AP under the same
/// margin/hysteresis/grace dampers as the reactive rule. The log makes
/// the first few co-residents cheap and a pile-up expensive — the shape
/// of airtime-fair-share throughput loss — so clients spread across
/// overlapping picocells instead of all chasing the single strongest AP.
#[derive(Debug, Clone, Copy)]
pub struct LoadAware {
    /// Load-penalty weight, dB per natural-log unit of (1 + competing
    /// clients). At the default 2.0, one competing client costs
    /// ~1.4 dB and five cost ~3.6 dB — comparable to the 2.5 dB switch
    /// margin, so load breaks ties between comparably strong cells
    /// without overriding a decisively stronger link.
    pub beta_db: f64,
}

impl Default for LoadAware {
    fn default() -> Self {
        LoadAware { beta_db: 2.0 }
    }
}

impl LoadAware {
    /// Score one candidate. `is_current` discounts the client's own
    /// association so the serving AP is not penalized for serving us.
    #[inline]
    fn score(&self, esnr_db: f64, load: u32, is_current: bool) -> f64 {
        let competing = load.saturating_sub(u32::from(is_current));
        esnr_db - self.beta_db * f64::from(competing + 1).ln()
    }
}

impl SwitchPolicy for LoadAware {
    fn decide(&self, view: &mut dyn PolicyView) -> Verdict {
        let current = view.current();
        // Argmax of the load-discounted score, ascending AP-id order
        // with strict `>` — the same lowest-id tie-break contract as
        // the reduction argmax.
        let mut best: Option<(NodeId, f64)> = None;
        view.for_each_candidate(&mut |ap, v, load| {
            let score = self.score(v, load, current == Some(ap));
            if best.is_none_or(|(_, bs)| score > bs) {
                best = Some((ap, score));
            }
        });
        let Some((best_ap, best_score)) = best else {
            return Verdict::NoCandidate;
        };
        match dampers(view, best_ap) {
            Err(v) => v,
            Ok((cur, cv)) => {
                let cur_score = self.score(cv, view.load(cur), true);
                if best_score > cur_score + view.margin_db() {
                    Verdict::SwitchTo(best_ap)
                } else {
                    Verdict::Stay
                }
            }
        }
    }
}

/// Config-friendly (`Copy`) policy selector for `WgttConfig`; `build`
/// turns it into the shared trait object.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SwitchPolicyKind {
    /// The paper's reactive max-median rule (the default).
    #[default]
    ReactiveMedian,
    /// Slope-extrapolating predictive switching.
    Predictive {
        /// Extrapolation horizon.
        horizon: SimDuration,
    },
    /// Load-discounted decentralized selection.
    LoadAware {
        /// Load-penalty weight, dB per ln-unit of (1 + competing).
        beta_db: f64,
    },
}

impl SwitchPolicyKind {
    /// The predictive policy at its default horizon (= the 40 ms switch
    /// hysteresis).
    pub fn predictive() -> Self {
        SwitchPolicyKind::Predictive {
            horizon: Predictive::default().horizon,
        }
    }

    /// The load-aware policy at its default β.
    pub fn load_aware() -> Self {
        SwitchPolicyKind::LoadAware {
            beta_db: LoadAware::default().beta_db,
        }
    }

    /// Instantiate the shared policy object.
    pub fn build(self) -> Arc<dyn SwitchPolicy> {
        match self {
            SwitchPolicyKind::ReactiveMedian => Arc::new(ReactiveMedian),
            SwitchPolicyKind::Predictive { horizon } => Arc::new(Predictive { horizon }),
            SwitchPolicyKind::LoadAware { beta_db } => Arc::new(LoadAware { beta_db }),
        }
    }

    /// Stable CLI/report label.
    pub fn label(self) -> &'static str {
        match self {
            SwitchPolicyKind::ReactiveMedian => "reactive-median",
            SwitchPolicyKind::Predictive { .. } => "predictive",
            SwitchPolicyKind::LoadAware { .. } => "load-aware",
        }
    }

    /// Parse a CLI label (the defaults of each policy's knobs).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reactive" | "reactive-median" | "median" => Some(SwitchPolicyKind::ReactiveMedian),
            "predictive" => Some(Self::predictive()),
            "load-aware" | "loadaware" | "load" => Some(Self::load_aware()),
            _ => None,
        }
    }

    /// All three shipped policies, reactive first (comparison order).
    pub const fn all() -> [SwitchPolicyKind; 3] {
        [
            SwitchPolicyKind::ReactiveMedian,
            SwitchPolicyKind::Predictive {
                horizon: SimDuration::from_millis(40),
            },
            SwitchPolicyKind::LoadAware { beta_db: 2.0 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AP1: NodeId = NodeId(1);
    const AP2: NodeId = NodeId(2);

    #[test]
    fn loads_reassign_and_max() {
        let mut l = ApLoads::new();
        assert_eq!(l.get(AP1), 0);
        assert_eq!(l.reassign(None, AP1), 1);
        assert_eq!(l.reassign(None, AP1), 2);
        assert_eq!(l.reassign(None, AP2), 1);
        assert_eq!(l.max_load(), 2);
        // Moving one client over flips the majority.
        assert_eq!(l.reassign(Some(AP1), AP2), 2);
        assert_eq!(l.get(AP1), 1);
        // Re-association to the same AP is a net no-op.
        assert_eq!(l.reassign(Some(AP2), AP2), 2);
        assert_eq!(l.get(AP2), 2);
        // Draining an AP removes its entry entirely.
        l.reassign(Some(AP1), AP2);
        assert_eq!(l.get(AP1), 0);
        assert_eq!(l.max_load(), 3);
    }

    #[test]
    fn load_aware_score_discounts_own_association() {
        let p = LoadAware::default();
        // Serving AP with only us on it scores like an empty AP.
        assert_eq!(p.score(20.0, 1, true), p.score(20.0, 0, false));
        // A competing client costs β·ln 2.
        let d = p.score(20.0, 1, false) - p.score(20.0, 0, false);
        assert!((d + p.beta_db * 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn kind_parses_labels_and_builds() {
        for kind in SwitchPolicyKind::all() {
            assert_eq!(SwitchPolicyKind::parse(kind.label()), Some(kind));
            let _ = kind.build(); // constructible
        }
        assert_eq!(SwitchPolicyKind::parse("nope"), None);
        assert_eq!(
            SwitchPolicyKind::parse("reactive"),
            Some(SwitchPolicyKind::ReactiveMedian)
        );
    }
}
