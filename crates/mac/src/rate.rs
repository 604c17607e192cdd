//! Minstrel-style rate adaptation.
//!
//! The paper runs the TP-Link APs "without modification of the default
//! rate control algorithm" (§4) — i.e. Linux Minstrel-HT — and shows in
//! Table 2's discussion that WGTT's gain comes from *switching decisions*,
//! not from better bit-rate adaptation. We therefore model a faithful
//! Minstrel abstraction: per-MCS EWMA success probability learned from
//! Block ACK feedback, pick the rate maximizing expected goodput, and
//! spend a fraction of frames probing other rates.

use crate::mcs::{Mcs, ALL_MCS};
use wgtt_sim::rng::Xoshiro256;

/// EWMA weight for new observations (Minstrel default ≈ 25 %).
const EWMA_ALPHA: f64 = 0.25;

/// Probe every Nth A-MPDU.
const PROBE_INTERVAL: u32 = 10;

/// Per-peer rate controller state.
#[derive(Debug, Clone)]
pub struct RateController {
    /// EWMA MPDU delivery probability per MCS.
    prob: [f64; 8],
    /// Whether an MCS has ever been sampled.
    sampled: [bool; 8],
    frames_since_probe: u32,
    rng: Xoshiro256,
}

impl RateController {
    /// New controller with optimistic priors (start fast, back off on
    /// evidence — Minstrel's behaviour after a reset).
    pub fn new(rng: Xoshiro256) -> Self {
        RateController {
            prob: [1.0; 8],
            sampled: [false; 8],
            frames_since_probe: 0,
            rng,
        }
    }

    /// EWMA delivery probability currently estimated for `mcs`.
    ///
    /// An MCS that has never been sampled inherits the estimate of the
    /// nearest *sampled higher* MCS: since PER is monotone in constellation
    /// density, a lower rate succeeds at least as often as a higher one,
    /// so that neighbour's probability is a sound lower bound. With no
    /// sampled rate above, the prior stays optimistic (1.0) so the
    /// controller starts fast — Minstrel's post-reset behaviour.
    pub fn probability(&self, mcs: Mcs) -> f64 {
        let i = mcs.index();
        if self.sampled[i] {
            return self.prob[i];
        }
        for j in (i + 1)..8 {
            if self.sampled[j] {
                return self.prob[j];
            }
        }
        1.0
    }

    /// Expected goodput of `mcs` under current estimates, Mbit/s.
    fn expected_goodput(&self, mcs: Mcs) -> f64 {
        mcs.rate_mbps() * self.probability(mcs)
    }

    /// The rate to use for the next A-MPDU. Mostly the max-goodput rate;
    /// every `PROBE_INTERVAL`th (10th) call samples a random other rate so
    /// estimates stay fresh (critical when the channel improves).
    pub fn select(&mut self) -> Mcs {
        self.frames_since_probe += 1;
        let best = self.best_rate();
        if self.frames_since_probe >= PROBE_INTERVAL {
            self.frames_since_probe = 0;
            // Probe a uniformly random rate ≠ best: draw one of the other
            // seven and step over `best`'s slot.
            let p = self.rng.below(ALL_MCS.len() as u64 - 1) as usize;
            return ALL_MCS[p + usize::from(p >= best.index())];
        }
        best
    }

    /// Current max-expected-goodput rate (no probing).
    ///
    /// Ties break toward the *lowest* rate. This matters after a total
    /// loss at the top rate with nothing else sampled: every unsampled
    /// rate inherits that 0.0 estimate, all expected goodputs tie, and
    /// a last-wins scan (`max_by`) would keep re-selecting the rate
    /// that just failed — sparse flows (a TCP handshake retry every
    /// RTO) could then never connect. Lowest-on-tie falls back to the
    /// most robust modulation instead, Minstrel's last-resort rate.
    pub fn best_rate(&self) -> Mcs {
        let mut best = ALL_MCS[0];
        for &m in &ALL_MCS[1..] {
            if self.expected_goodput(m) > self.expected_goodput(best) {
                best = m;
            }
        }
        best
    }

    /// Feed back the outcome of one A-MPDU: `attempted` MPDUs at `mcs`,
    /// of which `delivered` were acknowledged.
    pub fn on_feedback(&mut self, mcs: Mcs, attempted: usize, delivered: usize) {
        if attempted == 0 {
            return;
        }
        let observed = delivered as f64 / attempted as f64;
        let i = mcs.index();
        if self.sampled[i] {
            self.prob[i] = (1.0 - EWMA_ALPHA) * self.prob[i] + EWMA_ALPHA * observed;
        } else {
            self.prob[i] = observed;
            self.sampled[i] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_sim::rng::RngStream;

    fn ctl(seed: u64) -> RateController {
        RateController::new(RngStream::root(seed).derive("rate").rng())
    }

    #[test]
    fn starts_at_top_rate() {
        let c = ctl(1);
        assert_eq!(c.best_rate(), Mcs::Mcs7);
    }

    #[test]
    fn failures_drive_rate_down() {
        let mut c = ctl(2);
        // MCS7 keeps failing, MCS3 keeps succeeding.
        for _ in 0..20 {
            c.on_feedback(Mcs::Mcs7, 32, 0);
            c.on_feedback(Mcs::Mcs3, 32, 32);
        }
        assert_eq!(c.best_rate(), Mcs::Mcs3);
        assert!(c.probability(Mcs::Mcs7) < 0.05);
    }

    #[test]
    fn total_loss_at_top_rate_steps_down_immediately() {
        let mut c = ctl(7);
        // One whole A-MPDU lost at MCS7, nothing else ever sampled —
        // the first exchange a client has with a freshly assigned AP on
        // a marginal link. Every unsampled rate inherits the 0.0
        // estimate, so expected goodputs all tie; the controller must
        // fall back to the robust bottom rate, not retry the one rate
        // that just demonstrably failed (which would strand sparse
        // flows like TCP handshake retries at an unusable rate).
        c.on_feedback(Mcs::Mcs7, 10, 0);
        assert_eq!(c.best_rate(), Mcs::Mcs0);
    }

    #[test]
    fn recovery_after_channel_improves() {
        let mut c = ctl(3);
        for _ in 0..20 {
            c.on_feedback(Mcs::Mcs7, 32, 0);
        }
        assert!(c.probability(Mcs::Mcs7) < 0.05);
        // The channel improves: everything now succeeds. The only path
        // back up is the 1-in-10 probe (the written-down MCS7 estimate
        // must be EWMA-rebuilt from probe successes), so give it enough
        // frames for ~20 probes per rate.
        for _ in 0..2000 {
            let m = c.select();
            c.on_feedback(m, 32, 32);
        }
        assert_eq!(c.best_rate(), Mcs::Mcs7, "must recover to top rate");
    }

    #[test]
    fn select_probes_periodically() {
        let mut c = ctl(4);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            distinct.insert(c.select());
        }
        assert!(distinct.len() > 1, "probing must try other rates");
    }

    #[test]
    fn probes_reach_every_rate_but_the_best() {
        let mut c = ctl(9);
        c.on_feedback(Mcs::Mcs7, 32, 4);
        c.on_feedback(Mcs::Mcs4, 32, 30);
        let best = c.best_rate();
        assert_eq!(best, Mcs::Mcs4);
        let mut probed = [0u32; 8];
        for i in 1..=2_000 {
            let m = c.select();
            if i % PROBE_INTERVAL == 0 {
                probed[m.index()] += 1;
            } else {
                assert_eq!(m, best);
            }
        }
        // Every rate but the best is probed, and the best never is.
        for (i, &n) in probed.iter().enumerate() {
            assert_eq!(n > 0, i != best.index(), "{:?} probed {n}×", ALL_MCS[i]);
        }
    }

    #[test]
    fn ewma_is_gradual() {
        let mut c = ctl(5);
        c.on_feedback(Mcs::Mcs5, 32, 32); // first sample pins to 1.0
        c.on_feedback(Mcs::Mcs5, 32, 0);
        let p = c.probability(Mcs::Mcs5);
        assert!((p - 0.75).abs() < 1e-9, "one bad frame: p = {p}");
    }

    #[test]
    fn zero_attempts_ignored() {
        let mut c = ctl(6);
        let before = c.probability(Mcs::Mcs4);
        c.on_feedback(Mcs::Mcs4, 0, 0);
        assert_eq!(c.probability(Mcs::Mcs4), before);
    }

    #[test]
    fn mid_rate_wins_under_partial_loss() {
        let mut c = ctl(7);
        for _ in 0..30 {
            c.on_feedback(Mcs::Mcs7, 32, 4); // 12.5 % at 72.2 ⇒ ~9 Mbps
            c.on_feedback(Mcs::Mcs4, 32, 30); // 94 % at 43.3 ⇒ ~40 Mbps
            c.on_feedback(Mcs::Mcs0, 32, 32); // 100 % at 7.2 ⇒ 7.2 Mbps
        }
        assert_eq!(c.best_rate(), Mcs::Mcs4);
    }
}
