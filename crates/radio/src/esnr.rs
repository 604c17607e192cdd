//! Effective SNR (Halperin et al., SIGCOMM 2010).
//!
//! The WGTT controller ranks APs not by RSSI but by *Effective SNR*: map
//! each subcarrier's SNR through the modulation's AWGN bit-error-rate
//! curve, average the BERs (errors are what actually accumulate across a
//! frequency-selective channel), and invert the curve to get the flat-
//! channel SNR that would produce the same average BER. ESNR therefore
//! punishes deeply faded subcarriers the way real decoding does, which is
//! why it predicts delivery far better than RSSI in strong multipath —
//! the property the paper's AP selection depends on (§3.1.1).
//!
//! The BER→SNR inversion runs once per (frame, AP, modulation) across
//! every overhearing AP, so it is the hottest scalar computation in the
//! system. [`Modulation::snr_for_ber`] therefore uses a precomputed
//! monotone Hermite table polished by Newton steps on the exact curve;
//! the seed's 200-step bisection is retained verbatim in [`mod@reference`]
//! — dead links below the table floor still take it, and it is the
//! equivalence oracle of `crates/radio/tests/prop_esnr.rs`. The BER
//! sweep itself has one implementation: the lane sweep `ber_mean`, which
//! mirrors [`Modulation::ber`] operation for operation
//! (`crates/radio/tests/prop_simd.rs`).

use crate::csi::{Csi, NUM_SUBCARRIERS};
use crate::{db_to_linear, linear_to_db};
use std::sync::OnceLock;
use wgtt_simd::{multiversion, Backend, F64s};

/// Modulation schemes of 802.11n MCS 0–7 (single spatial stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary PSK (MCS 0).
    Bpsk,
    /// Quadrature PSK (MCS 1–2).
    Qpsk,
    /// 16-QAM (MCS 3–4).
    Qam16,
    /// 64-QAM (MCS 5–7).
    Qam64,
}

/// Gaussian Q-function via the complementary error function.
fn q(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function, Abramowitz & Stegun 7.1.26 rational
/// approximation (|ε| ≤ 1.5·10⁻⁷ — ample for BER curves).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Horner evaluation written as a statement chain: operation-for-
    // operation the same nested polynomial as A&S print it (so results
    // are bit-identical to the nested-expression form), without the
    // deep expression tree that sends rustfmt into exponential layout
    // search.
    let mut p = 0.17087277;
    p = -0.82215223 + t * p;
    p = 1.48851587 + t * p;
    p = -1.13520398 + t * p;
    p = 0.27886807 + t * p;
    p = -0.18628806 + t * p;
    p = 0.09678418 + t * p;
    p = 0.37409196 + t * p;
    p = 1.00002368 + t * p;
    let tau = t * (-z * z - 1.26551223 + t * p).exp();
    if x >= 0.0 {
        tau
    } else {
        2.0 - tau
    }
}

impl Modulation {
    /// Uncoded AWGN bit error rate at per-symbol SNR `snr` (linear).
    /// Standard Gray-coded approximations (Halperin et al., Table 1).
    pub fn ber(self, snr: f64) -> f64 {
        let s = snr.max(0.0);
        match self {
            Modulation::Bpsk => q((2.0 * s).sqrt()),
            Modulation::Qpsk => q(s.sqrt()),
            Modulation::Qam16 => 0.75 * q((s / 5.0).sqrt()),
            Modulation::Qam64 => (7.0 / 12.0) * q((s / 21.0).sqrt()),
        }
    }

    /// Invert [`Modulation::ber`]: the linear SNR at which this modulation
    /// produces bit error rate `ber`. `ber` is clamped into the curve's
    /// achievable range `[1e-12, ber(0)]`.
    ///
    /// The seed implementation ran a fixed 200-step bisection — each step
    /// an `erfc` — which at ~13 µs per call was the dominant per-frame
    /// cost of the whole PHY path. This fast inverse reads a lazily
    /// built, per-modulation monotone piecewise-cubic-Hermite table over
    /// (log-BER → SNR dB) and polishes the interpolant with two Newton
    /// steps on the exact [`Modulation::ber`] curve, which lands within
    /// 1e-6 dB of the retained bisection (`reference::snr_for_ber`) —
    /// the contract `crates/radio/tests/prop_esnr.rs` enforces across
    /// the full achievable BER range of all four modulations. Targets
    /// below the table's −120 dB floor (dead links) take the reference
    /// bisection verbatim, so the clamp endpoints are *exactly* the
    /// seed's values.
    pub fn snr_for_ber(self, ber: f64) -> f64 {
        let table = self.inv_table();
        let target = ber.clamp(1e-12, table.max_ber);
        let u = target.ln();
        if u > table.u_last {
            // Below the table floor the SNR-dB curve dives toward −∞
            // steeply enough that no fixed knot set holds 1e-6 dB; such
            // BERs only arise on effectively dead links, so exactness
            // beats speed: take the seed bisection unchanged.
            return reference::snr_for_ber(self, ber);
        }
        let y_db = table.eval(u.max(table.u_first));
        // Newton in x = √(g·snr) — the Q-function argument — with a
        // log-space residual: globally smooth (no √s singularity at
        // s → 0), so two steps reach machine precision from the
        // interpolated start anywhere in the table's domain.
        let mut x = (db_to_linear(y_db) * table.gain).sqrt();
        let qt_log = u - table.ln_coeff; // ln(target / c)
        for _ in 0..2 {
            let qx = q(x);
            x += (qx.ln() - qt_log) * qx / phi(x);
            if x < 0.0 {
                x = 0.0;
            }
        }
        x * x * table.inv_gain
    }

    /// Decompose the BER curve as `ber(s) = c·Q(√(g·s))`:
    /// `(c, g, 1/g)` per modulation, with `1/g` exact so `x²·(1/g)`
    /// round-trips the `√(s·g)` inside [`Modulation::ber`] to the ulp.
    fn curve_params(self) -> (f64, f64, f64) {
        match self {
            Modulation::Bpsk => (1.0, 2.0, 0.5),
            Modulation::Qpsk => (1.0, 1.0, 1.0),
            Modulation::Qam16 => (0.75, 0.2, 5.0),
            Modulation::Qam64 => (7.0 / 12.0, 1.0 / 21.0, 21.0),
        }
    }

    /// Curve parameters for the lane sweep: `(coeff, scale,
    /// scale_divides)` with the Q argument written `√(s·scale)` or
    /// `√(s/scale)` exactly as [`Modulation::ber`] spells it (multiply for
    /// BPSK/QPSK, *divide* for the QAMs, so each lane op rounds
    /// identically to the scalar's).
    fn lane_params(self) -> (f64, f64, bool) {
        match self {
            Modulation::Bpsk => (1.0, 2.0, false),
            Modulation::Qpsk => (1.0, 1.0, false),
            Modulation::Qam16 => (0.75, 5.0, true),
            Modulation::Qam64 => (7.0 / 12.0, 21.0, true),
        }
    }

    /// The lazily built inverse table for this modulation.
    fn inv_table(self) -> &'static InvBerTable {
        static TABLES: [OnceLock<InvBerTable>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        let slot = match self {
            Modulation::Bpsk => 0,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        };
        TABLES[slot].get_or_init(|| InvBerTable::build(self))
    }
}

/// Standard normal density `φ(x)` — the derivative magnitude of the
/// Q-function, used by the Newton polish.
#[inline]
fn phi(x: f64) -> f64 {
    const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    FRAC_1_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Knot count of the inverse table. 256 knots uniform in SNR dB over
/// [−120 dB, SNR(BER = 1e-12)] put one knot roughly every 0.55 dB; the
/// Newton polish wipes out the remaining interpolation error.
const INV_KNOTS: usize = 256;

/// SNR floor of the table, dB. Below this the fast path defers to the
/// reference bisection (see [`Modulation::snr_for_ber`]).
const INV_FLOOR_DB: f64 = -120.0;

/// Bucket count of the segment index that accelerates knot lookup in
/// [`InvBerTable::eval`]: uniform buckets over `[u_first, u_last]`, each
/// holding the knot index at its left edge, narrow the binary search to
/// the handful of knots inside one bucket (typically 0–2 probe steps
/// instead of log₂ 256 = 8 over the full array). The bucket only changes
/// *where the search starts* — the resulting knot index, and therefore
/// every output bit, is identical to the full-array search.
const INV_SEG: usize = 1024;

/// Monotone piecewise-cubic-Hermite inverse of one modulation's BER
/// curve: knots over `u = ln(BER)` (ascending) mapping to SNR in dB
/// (descending), with Fritsch–Carlson slopes so the interpolant is
/// monotone like the curve it approximates.
struct InvBerTable {
    /// ln(BER) at each knot, strictly ascending.
    u: [f64; INV_KNOTS],
    /// SNR dB at each knot, strictly descending.
    y: [f64; INV_KNOTS],
    /// dy/du Hermite slopes (Fritsch–Carlson monotone-limited).
    d: [f64; INV_KNOTS],
    /// `u[0]` / `u[INV_KNOTS-1]`, hoisted for the range checks.
    u_first: f64,
    u_last: f64,
    /// Segment index: knot index at the left edge of each uniform
    /// `u`-bucket (see [`INV_SEG`]).
    seg: [u16; INV_SEG],
    /// `INV_SEG / (u_last − u_first)` — maps `u` to its bucket.
    seg_scale: f64,
    /// `ber(0)` — the clamp ceiling, computed once.
    max_ber: f64,
    /// ln(c) of the `c·Q(√(g·s))` decomposition.
    ln_coeff: f64,
    /// g and 1/g.
    gain: f64,
    inv_gain: f64,
}

impl InvBerTable {
    fn build(m: Modulation) -> Self {
        let (coeff, gain, inv_gain) = m.curve_params();
        // Anchor the top knot at the exact SNR the reference bisection
        // assigns to the clamp floor BER = 1e-12 (the saturation
        // ceiling), and space the remaining knots uniformly in dB down
        // to the table floor. Knot BERs come from the *forward* curve,
        // so every (u, y) pair lies on the exact function by
        // construction.
        let y_top = linear_to_db(reference::snr_for_ber(m, 1e-12));
        let step = (y_top - INV_FLOOR_DB) / (INV_KNOTS - 1) as f64;
        let mut u = [0.0; INV_KNOTS];
        let mut y = [0.0; INV_KNOTS];
        for k in 0..INV_KNOTS {
            let y_db = y_top - step * k as f64;
            u[k] = m.ber(db_to_linear(y_db)).ln();
            y[k] = y_db;
        }
        debug_assert!(u.windows(2).all(|w| w[0] < w[1]), "knots must ascend");

        // Fritsch–Carlson monotone slopes. All secants share a sign
        // (the curve is strictly monotone), so interior slopes use the
        // weighted harmonic mean; endpoints use the one-sided
        // three-point formula with the standard monotonicity clip.
        let mut h = [0.0; INV_KNOTS - 1];
        let mut delta = [0.0; INV_KNOTS - 1];
        for k in 0..INV_KNOTS - 1 {
            h[k] = u[k + 1] - u[k];
            delta[k] = (y[k + 1] - y[k]) / h[k];
        }
        let mut d = [0.0; INV_KNOTS];
        let endpoint = |h0: f64, h1: f64, d0: f64, d1: f64| -> f64 {
            let s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
            if s * d0 <= 0.0 {
                0.0
            } else if s.abs() > 3.0 * d0.abs() {
                3.0 * d0
            } else {
                s
            }
        };
        d[0] = endpoint(h[0], h[1], delta[0], delta[1]);
        d[INV_KNOTS - 1] = endpoint(
            h[INV_KNOTS - 2],
            h[INV_KNOTS - 3],
            delta[INV_KNOTS - 2],
            delta[INV_KNOTS - 3],
        );
        for k in 1..INV_KNOTS - 1 {
            let (d0, d1) = (delta[k - 1], delta[k]);
            if d0 * d1 <= 0.0 {
                d[k] = 0.0;
            } else {
                let w1 = 2.0 * h[k] + h[k - 1];
                let w2 = h[k] + 2.0 * h[k - 1];
                d[k] = (w1 + w2) / (w1 / d0 + w2 / d1);
            }
        }

        // Segment index: for each uniform bucket over [u_first, u_last],
        // the knot index `eval`'s full-array search would produce at the
        // bucket's left edge (same clamp formula). Knots at the dense end
        // of the curve cluster many-per-bucket; the in-bucket binary
        // search in `eval` absorbs that.
        let width = (u[INV_KNOTS - 1] - u[0]) / INV_SEG as f64;
        let mut seg = [0u16; INV_SEG];
        for (b, slot) in seg.iter_mut().enumerate() {
            let left = u[0] + b as f64 * width;
            let k = u
                .partition_point(|&knot| knot <= left)
                .clamp(1, INV_KNOTS - 1)
                - 1;
            *slot = k as u16;
        }

        InvBerTable {
            u_first: u[0],
            u_last: u[INV_KNOTS - 1],
            seg,
            seg_scale: INV_SEG as f64 / (u[INV_KNOTS - 1] - u[0]),
            u,
            y,
            d,
            max_ber: m.ber(0.0),
            ln_coeff: coeff.ln(),
            gain,
            inv_gain,
        }
    }

    /// Evaluate the Hermite interpolant at `u` (must be within the knot
    /// range).
    fn eval(&self, u: f64) -> f64 {
        // Bucket hint → in-bucket binary search → exact-boundary guards.
        // The guards repair any off-by-one from the floating bucket map,
        // so `k` is *exactly* the index the full-array
        // `partition_point(|knot| knot <= u).clamp(1, 255) − 1` search
        // yields (the last knot ≤ u, capped at INV_KNOTS − 2) — same
        // index, same Hermite arithmetic, same bits, fewer probes.
        let b = (((u - self.u_first) * self.seg_scale) as usize).min(INV_SEG - 1);
        let lo = self.seg[b] as usize;
        let hi = (self.seg[(b + 1).min(INV_SEG - 1)] as usize + 2).min(INV_KNOTS);
        let mut k = lo + self.u[lo..hi].partition_point(|&knot| knot <= u);
        k = k.clamp(1, INV_KNOTS - 1) - 1;
        while k > 0 && self.u[k] > u {
            k -= 1;
        }
        while k < INV_KNOTS - 2 && self.u[k + 1] <= u {
            k += 1;
        }
        let h = self.u[k + 1] - self.u[k];
        let t = (u - self.u[k]) / h;
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        self.y[k] * h00 + h * self.d[k] * h10 + self.y[k + 1] * h01 + h * self.d[k + 1] * h11
    }
}

/// The seed's ESNR inversion, kept verbatim (the pattern of
/// `crate::fading::reference`): a fixed 200-step monotone bisection per
/// call. Production reaches it below the table floor and when anchoring
/// the table's top knot; `crates/radio/tests/prop_esnr.rs` proves the
/// fast table-plus-Newton inverse within 1e-6 dB of it everywhere.
pub mod reference {
    use super::Modulation;
    use crate::{db_to_linear, linear_to_db};

    /// Invert [`Modulation::ber`] by monotone bisection; `ber` is
    /// clamped into the curve's achievable range. Verbatim seed
    /// implementation.
    pub fn snr_for_ber(modulation: Modulation, ber: f64) -> f64 {
        let target = ber.clamp(1e-12, modulation.ber(0.0));
        let (mut lo, mut hi) = (0.0f64, 1e7f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if modulation.ber(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// [`crate::effective_snr_db`] computed through the bisection — the
    /// downstream oracle for the property suite's frame-verdict replays.
    pub fn effective_snr_db(csi: &crate::Csi, mean_snr_db: f64, modulation: Modulation) -> f64 {
        let mean_snr = db_to_linear(mean_snr_db);
        let mut ber_acc = 0.0;
        for h in &csi.h {
            ber_acc += modulation.ber(mean_snr * h.norm_sq());
        }
        let mean_ber = ber_acc / csi.h.len() as f64;
        linear_to_db(snr_for_ber(modulation, mean_ber))
    }
}

/// Lane width of the BER sweep. All 56 subcarriers form **one** pack:
/// each lane operation compiles to seven independent 512-bit (or
/// fourteen 256-bit) instructions, so the deep erfc/exp Horner chains —
/// which Rust never FMA-contracts, keeping them bit-exact — overlap in
/// the out-of-order core instead of serializing per 8-lane chunk.
/// Lane width is correctness-neutral (no operation crosses lanes);
/// `prop_simd` pins bit-identity across widths.
const LANES: usize = 8;

multiversion! {
    /// Subcarrier-mean BER: `mean_k ber(mean_snr · powers[k])` as one SoA
    /// sweep. Mirrors the scalar [`Modulation::ber`]/`q`/`erfc` operation
    /// sequence lane-wise (same A&S 7.1.26 Horner, same divisions); the
    /// only deviation is the faithful vector `exp`. The 56-term reduction
    /// is sequential in subcarrier order, so results are bit-identical on
    /// every backend and lane width.
    fn ber_mean, ber_mean_with(
        powers: &[f64; NUM_SUBCARRIERS],
        mean_snr: f64,
        coeff: f64,
        scale: f64,
        scale_divides: bool,
    ) -> f64 {
        // Constant lanes hoisted out of the chunk loop (same values,
        // same per-lane operations — hoisting only cuts in-loop
        // broadcast traffic so more independent chunks fit the
        // out-of-order window).
        let vsnr = F64s::<LANES>::splat(mean_snr);
        let vscale = F64s::splat(scale);
        let vsqrt2 = F64s::splat(std::f64::consts::SQRT_2);
        let one = F64s::splat(1.0);
        let half = F64s::splat(0.5);
        let vcoeff = F64s::splat(coeff);
        let a0 = F64s::splat(0.17087277);
        let a1 = F64s::splat(-0.82215223);
        let a2 = F64s::splat(1.48851587);
        let a3 = F64s::splat(-1.13520398);
        let a4 = F64s::splat(0.27886807);
        let a5 = F64s::splat(-0.18628806);
        let a6 = F64s::splat(0.09678418);
        let a7 = F64s::splat(0.37409196);
        let a8 = F64s::splat(1.00002368);
        let a9 = F64s::splat(1.26551223);
        let mut acc = 0.0;
        for c in 0..NUM_SUBCARRIERS / LANES {
            let p = F64s::<LANES>::from_slice(&powers[c * LANES..]);
            // s = (mean_snr · |H_k|²).max(0)  — as Modulation::ber clamps.
            let s = (p * vsnr).max(F64s::ZERO);
            let y = if scale_divides { s / vscale } else { s * vscale };
            let x = y.sqrt();
            // q(x) = 0.5·erfc(x/√2); x ≥ 0 here so erfc's |x| mirror and
            // 2−τ branch never engage.
            let z = x / vsqrt2;
            let t = one / (one + half * z);
            let arg = -z * z - a9
                + t * (a8
                    + t * (a7
                        + t * (a6
                            + t * (a5 + t * (a4 + t * (a3 + t * (a2 + t * (a1 + t * a0))))))));
            let tau = t * arg.exp();
            let q = half * tau;
            let ber = vcoeff * q;
            // Accumulate this chunk's lanes immediately, in subcarrier
            // order — the identical sequence of scalar adds the old
            // store-then-scan epilogue performed (so the same bits), but
            // the serial add chain now overlaps the next chunk's
            // independent lane work instead of running exposed at the
            // end.
            for i in 0..LANES {
                acc += ber.0[i];
            }
        }
        acc / NUM_SUBCARRIERS as f64
    }
}

/// Effective SNR in dB for a CSI snapshot, a mean (large-scale) SNR in dB,
/// and a reference modulation.
///
/// ```
/// use wgtt_radio::{effective_snr_db, Csi, Modulation};
/// // A flat channel's ESNR equals its mean SNR…
/// let flat = effective_snr_db(&Csi::flat(), 20.0, Modulation::Qam16);
/// assert!((flat - 20.0).abs() < 0.1);
/// ```
///
/// `csi` carries the normalized frequency response; `mean_snr_db` carries
/// the link budget (tx power + antenna gains − path loss − noise). The
/// per-subcarrier SNR is their product.
pub fn effective_snr_db(csi: &Csi, mean_snr_db: f64, modulation: Modulation) -> f64 {
    effective_snr_from_powers(&csi.powers(), mean_snr_db, modulation)
}

/// [`effective_snr_db`] from a fused per-subcarrier power array (what
/// [`crate::fading::FadingProcess::powers_at`] produces without
/// materializing a [`Csi`]) — the entry point of the batch/memoized ESNR
/// paths. Bit-identical to `effective_snr_db(&csi, …)` when `powers ==
/// csi.powers()`.
pub fn effective_snr_from_powers(
    powers: &[f64; NUM_SUBCARRIERS],
    mean_snr_db: f64,
    modulation: Modulation,
) -> f64 {
    esnr_from_mean_ber(
        mean_ber_from_powers(powers, mean_snr_db, modulation),
        modulation,
    )
}

/// First half of [`effective_snr_from_powers`]: the lane BER sweep,
/// stopping at the subcarrier-mean BER. [`crate::batch`] runs this stage
/// for every overhearing AP before any inversion, so the independent
/// divider-bound sweeps overlap in the out-of-order core; composing the
/// halves is operation-for-operation the fused function.
pub(crate) fn mean_ber_from_powers(
    powers: &[f64; NUM_SUBCARRIERS],
    mean_snr_db: f64,
    modulation: Modulation,
) -> f64 {
    let (coeff, scale, scale_divides) = modulation.lane_params();
    ber_mean(
        powers,
        db_to_linear(mean_snr_db),
        coeff,
        scale,
        scale_divides,
    )
}

/// Second half of [`effective_snr_from_powers`]: the BER→SNR inversion
/// back to dB.
pub(crate) fn esnr_from_mean_ber(mean_ber: f64, modulation: Modulation) -> f64 {
    linear_to_db(modulation.snr_for_ber(mean_ber))
}

/// [`effective_snr_from_powers`] on an explicit backend (differential
/// tests; results are bit-identical across backends).
pub fn effective_snr_from_powers_with(
    backend: Backend,
    powers: &[f64; NUM_SUBCARRIERS],
    mean_snr_db: f64,
    modulation: Modulation,
) -> f64 {
    let (coeff, scale, scale_divides) = modulation.lane_params();
    let mean_ber = ber_mean_with(
        backend,
        powers,
        db_to_linear(mean_snr_db),
        coeff,
        scale,
        scale_divides,
    );
    linear_to_db(modulation.snr_for_ber(mean_ber))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::csi::NUM_SUBCARRIERS;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(5.0) < 2e-11);
    }

    #[test]
    fn ber_monotone_decreasing_in_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let mut prev = m.ber(0.0);
            for snr_db in 1..30 {
                let b = m.ber(db_to_linear(snr_db as f64));
                assert!(b <= prev, "{m:?} BER must fall with SNR");
                prev = b;
            }
        }
    }

    #[test]
    fn denser_constellations_need_more_snr() {
        let snr = db_to_linear(12.0);
        assert!(Modulation::Bpsk.ber(snr) < Modulation::Qpsk.ber(snr));
        assert!(Modulation::Qpsk.ber(snr) < Modulation::Qam16.ber(snr));
        assert!(Modulation::Qam16.ber(snr) < Modulation::Qam64.ber(snr));
    }

    #[test]
    fn snr_for_ber_inverts_ber() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            for snr_db in [3.0, 8.0, 15.0, 22.0] {
                let snr = db_to_linear(snr_db);
                let ber = m.ber(snr);
                if ber < 1e-11 {
                    continue; // outside the invertible floor
                }
                let back = m.snr_for_ber(ber);
                assert!(
                    (linear_to_db(back) - snr_db).abs() < 0.05,
                    "{m:?} at {snr_db} dB inverted to {} dB",
                    linear_to_db(back)
                );
            }
        }
    }

    #[test]
    fn fast_inverse_tracks_reference_across_decades() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            for exp in 1..=11 {
                let ber = 10f64.powi(-exp);
                let fast = linear_to_db(m.snr_for_ber(ber));
                let oracle = linear_to_db(reference::snr_for_ber(m, ber));
                assert!(
                    (fast - oracle).abs() <= 1e-6,
                    "{m:?} ber=1e-{exp}: fast {fast} vs oracle {oracle}"
                );
            }
        }
    }

    #[test]
    fn clamp_endpoints_match_reference_exactly() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            // Dead link: BER at/above the curve maximum falls back to the
            // bisection bit for bit.
            for ber in [m.ber(0.0), 0.9, f64::INFINITY] {
                assert_eq!(
                    m.snr_for_ber(ber).to_bits(),
                    reference::snr_for_ber(m, ber).to_bits(),
                    "{m:?} dead-link target {ber}"
                );
            }
            // Saturation ceiling: every clamped-to-floor BER produces the
            // same ceiling value (exact ties across callers)…
            let ceiling = m.snr_for_ber(1e-12);
            assert_eq!(ceiling.to_bits(), m.snr_for_ber(0.0).to_bits());
            assert_eq!(ceiling.to_bits(), m.snr_for_ber(1e-15).to_bits());
            // …within tolerance of the oracle's ceiling.
            let oracle = linear_to_db(reference::snr_for_ber(m, 1e-12));
            assert!((linear_to_db(ceiling) - oracle).abs() <= 1e-6);
        }
    }

    #[test]
    fn flat_channel_esnr_equals_mean_snr() {
        let csi = Csi::flat();
        for snr_db in [5.0, 10.0, 20.0] {
            let e = effective_snr_db(&csi, snr_db, Modulation::Qam16);
            assert!((e - snr_db).abs() < 0.1, "flat ESNR {e} vs {snr_db}");
        }
    }

    #[test]
    fn faded_subcarriers_drag_esnr_below_mean() {
        // Half the subcarriers in a deep fade: ESNR must fall well below
        // the mean SNR, unlike an RSSI-style average.
        let mut h = [Complex::ONE; NUM_SUBCARRIERS];
        for hk in h.iter_mut().take(NUM_SUBCARRIERS / 2) {
            *hk = Complex::new(0.05, 0.0); // −26 dB fade
        }
        let csi = Csi { h };
        let e = effective_snr_db(&csi, 20.0, Modulation::Qam16);
        let rssi_like = linear_to_db(csi.mean_power()) + 20.0;
        assert!(
            e < rssi_like - 5.0,
            "ESNR {e} vs RSSI-equivalent {rssi_like}"
        );
    }

    /// The lane sweep's oracle: one libm [`Modulation::ber`] per
    /// subcarrier, then the shared inversion (so only the sweep differs).
    fn scalar_esnr_db(csi: &Csi, mean_snr_db: f64, m: Modulation) -> f64 {
        let mean_snr = db_to_linear(mean_snr_db);
        let mut ber_acc = 0.0;
        for h in &csi.h {
            ber_acc += m.ber(mean_snr * h.norm_sq());
        }
        linear_to_db(m.snr_for_ber(ber_acc / csi.h.len() as f64))
    }

    /// A deterministic frequency-selective CSI for differential checks.
    fn selective_csi(phase_step: f64) -> Csi {
        let mut h = [Complex::ZERO; NUM_SUBCARRIERS];
        for (k, hk) in h.iter_mut().enumerate() {
            let a = 0.2 + 1.3 * ((k as f64 * phase_step).sin() * 0.5 + 0.5);
            *hk = Complex::from_polar(a, k as f64 * 0.37);
        }
        Csi { h }
    }

    #[test]
    fn lane_sweep_tracks_scalar_oracle() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            for snr_db in [-5.0, 4.0, 12.0, 21.0, 33.0] {
                for step in [0.21, 0.73, 1.9] {
                    let csi = selective_csi(step);
                    let fast = effective_snr_db(&csi, snr_db, m);
                    let oracle = scalar_esnr_db(&csi, snr_db, m);
                    assert!(
                        (fast - oracle).abs() <= 1e-6,
                        "{m:?} at {snr_db} dB: lane {fast} vs scalar {oracle}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_sweep_bit_identical_across_backends() {
        let csi = selective_csi(0.43);
        let powers = csi.powers();
        for m in [Modulation::Qpsk, Modulation::Qam64] {
            let base = effective_snr_from_powers_with(Backend::Scalar, &powers, 17.0, m);
            for b in [Backend::Avx2, Backend::Avx512] {
                let v = effective_snr_from_powers_with(b, &powers, 17.0, m);
                assert_eq!(base.to_bits(), v.to_bits(), "{m:?} on {b:?}");
            }
        }
    }

    #[test]
    fn saturated_links_hit_identical_ceiling_on_both_paths() {
        // At very high SNR every subcarrier BER underflows the 1e-12
        // clamp floor, so both sweeps must return the *same exact* ceiling
        // — the property that keeps AP-selection saturation ties true ties
        // under the SIMD path.
        let csi = Csi::flat();
        for m in [Modulation::Bpsk, Modulation::Qam64] {
            let fast = effective_snr_db(&csi, 60.0, m);
            let oracle = scalar_esnr_db(&csi, 60.0, m);
            assert_eq!(fast.to_bits(), oracle.to_bits(), "{m:?} ceiling");
        }
    }

    #[test]
    fn esnr_zero_channel_is_floor() {
        let csi = Csi {
            h: [Complex::ZERO; NUM_SUBCARRIERS],
        };
        let e = effective_snr_db(&csi, 20.0, Modulation::Qpsk);
        assert!(e < -20.0, "dead channel should have very low ESNR, got {e}");
    }
}
