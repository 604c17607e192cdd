//! Deciding a frame's threshold tests before synthesizing its channel.
//!
//! Three of the frame path's four PHY consumers never read a channel
//! *value*: a delivery roll asks whether a uniform draw falls under
//! `per(esnr)`, the capture check whether `wanted − strongest interferer`
//! clears a margin. Each can often be settled from an upper bound that
//! costs a fraction of the exact arithmetic (DESIGN.md §17):
//!
//! * `per` is non-increasing in ESNR, so `u < per(upper bound)` implies
//!   `u < per(exact)` — the frame is lost whatever the exact ESNR is.
//!   [`Ladder`] walks the bounds from cheapest to exact and stops at the
//!   first rung that settles the draw.
//! * `wanted − max_n r_n ≥ m` is `∀n: wanted − r_n ≥ m`, and IEEE
//!   subtraction is monotone in both operands, so a ceiling on `wanted`
//!   can fail the test and a ceiling on `r_n` can pass a term without
//!   evaluating either ([`capture_survives`]).
//!
//! Every bound gets [`BOUND_MARGIN_DB`] of headroom before it is trusted.
//! Nothing here draws a random number or skips one: the caller draws
//! first, exactly where `chance(per)` drew, and only the arithmetic
//! *after* the draw shrinks. The functions are pure so that
//! `crates/scenario/tests/prop_decide.rs` can difference them against the
//! always-exact bodies they replaced.

use wgtt_mac::Mcs;
use wgtt_radio::link::BOUND_MARGIN_DB;

/// The rungs of the [`Ladder`], cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Static ceiling: mean SNR plus the fading process's peak gain.
    Ceiling,
    /// Instant bound: the wideband SNR from the six tap gains.
    Bound,
    /// The exact ESNR (computed now, or found in the link's memo).
    Exact,
}

/// What [`Ladder::step`] found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Settled: whether the frame is lost, and the rung that said so.
    Lost(bool, Rung),
    /// Undecided until the caller supplies this rung's ESNR through
    /// [`Ladder::set`] and steps again.
    Need(Rung),
}

/// What is known so far about one (link, instant, MCS) reception: per
/// rung, `Mcs::q1500` of its ESNR once the caller has supplied it — the
/// length-independent half of `Mcs::per` — and the PER it last gave,
/// with that length. An A-MPDU's MPDUs mostly share one length, so each
/// rung pays `Mcs::per_from_q`'s `powf` once per length it meets. A rung
/// is asked for at most once, and only when the cheaper ones failed to
/// settle a draw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ladder {
    ceiling: Option<Known>,
    bound: Option<Known>,
    exact: Option<Known>,
}

/// One rung's `q1500` and its PER at the last length asked.
#[derive(Debug, Clone, Copy)]
struct Known {
    q: f64,
    per: Option<(u16, f64)>,
}

impl Known {
    fn new(q: f64) -> Self {
        Known { q, per: None }
    }

    /// `Mcs::per_from_q(q, len)`, the same bits whether computed now or
    /// remembered.
    fn per(&mut self, len: u16) -> f64 {
        match self.per {
            Some((at, per)) if at == len => per,
            _ => {
                let per = Mcs::per_from_q(self.q, len);
                self.per = Some((len, per));
                per
            }
        }
    }
}

impl Ladder {
    /// Supply `rung`'s ESNR (dB) for receptions at `mcs`. The two bounds
    /// take their margin here.
    pub fn set(&mut self, mcs: Mcs, rung: Rung, esnr_db: f64) {
        match rung {
            Rung::Ceiling => self.ceiling = Some(Known::new(mcs.q1500(esnr_db + BOUND_MARGIN_DB))),
            Rung::Bound => self.bound = Some(Known::new(mcs.q1500(esnr_db + BOUND_MARGIN_DB))),
            Rung::Exact => self.exact = Some(Known::new(mcs.q1500(esnr_db))),
        }
    }

    /// Whether a `len`-byte MPDU whose delivery draw came up `u` is lost
    /// — `u < mcs.per(exact, len)`, bit for bit — or which rung is needed
    /// to say.
    pub fn step(&mut self, u: f64, len: u16) -> Step {
        if let Some(exact) = &mut self.exact {
            return Step::Lost(u < exact.per(len), Rung::Exact);
        }
        for (known, rung) in [
            (&mut self.ceiling, Rung::Ceiling),
            (&mut self.bound, Rung::Bound),
        ] {
            let Some(known) = known else {
                return Step::Need(rung);
            };
            if u < known.per(len) {
                return Step::Lost(true, rung);
            }
        }
        Step::Need(Rung::Exact)
    }
}

/// Capture-aware reception: whether `wanted − max_n r_n ≥ capture_db`,
/// where the maximum runs over the interferers' received powers from
/// −∞ and, like `f64::max`, passes over NaN.
///
/// `interferers` pairs each interferer with a ceiling on its `r_n`;
/// `wanted_ceiling` bounds `wanted`; `exact(None)` evaluates `wanted` and
/// `exact(Some(i))` the `r_n` of `interferers[i]`. The interferer with
/// the highest ceiling is evaluated first (the likeliest to fail the
/// test): if even `wanted_ceiling` cannot clear it, `wanted` is never
/// evaluated. Otherwise `wanted` is evaluated once, interferers whose
/// ceiling already clears are passed over, and the first term that fails
/// ends the walk. Which interferer goes first changes the work, never
/// the answer.
pub fn capture_survives<T>(
    capture_db: f64,
    wanted_ceiling: f64,
    interferers: &[(T, f64)],
    mut exact: impl FnMut(Option<&T>) -> f64,
) -> bool {
    // One term of the fold, in the fold's own form: its accumulator
    // starts at −∞ and drops a NaN power.
    let clears = |wanted: f64, r: f64| wanted - f64::NEG_INFINITY.max(r) >= capture_db;
    let mut first = 0;
    for (i, (_, ceiling)) in interferers.iter().enumerate() {
        if *ceiling > interferers[first].1 {
            first = i;
        }
    }
    let Some((strongest, _)) = interferers.get(first) else {
        return clears(exact(None), f64::NEG_INFINITY);
    };
    let r0 = exact(Some(strongest));
    if (wanted_ceiling + BOUND_MARGIN_DB) - f64::NEG_INFINITY.max(r0) < capture_db {
        return false;
    }
    let wanted = exact(None);
    if !clears(wanted, r0) {
        return false;
    }
    for (i, (interferer, ceiling)) in interferers.iter().enumerate() {
        if i == first || wanted - (ceiling + BOUND_MARGIN_DB) >= capture_db {
            continue;
        }
        if !clears(wanted, exact(Some(interferer))) {
            return false;
        }
    }
    true
}
