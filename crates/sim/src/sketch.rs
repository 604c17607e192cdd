//! Bounded-memory streaming quantile sketch (extended P² algorithm).
//!
//! No recorder in the simulator uses it:
//! [`metrics::Distribution`](crate::metrics::Distribution) stores every
//! sample, so each quantile it reports is a value that was recorded.
//! Its only remaining caller is the `sim.sketch.ns_per_record` layer
//! metric of the `benchmark/` crate; the module goes with that metric.
//!
//! The algorithm is the **piecewise-parabolic (P²) method** of Jain &
//! Chlamtac (CACM 1985), extended from the original 5 markers tracking
//! one quantile to a uniform grid of [`MARKERS`] markers tracking the
//! whole CDF. Marker *i* estimates the `i/(MARKERS-1)` quantile; on
//! every observation the bracketing markers' counts advance and each
//! interior marker is nudged toward its desired rank along a parabola
//! through its neighbours (with a linear fallback that preserves marker
//! ordering). Memory is O([`MARKERS`]) forever; an observation is
//! O([`MARKERS`]) worst-case with no allocation.
//!
//! ## Accuracy contract
//!
//! Until [`MARKERS`] samples have been observed the sketch stores them
//! verbatim and every quantile is **exact**. Beyond that, for the
//! workloads this harness records (smooth, mixture, and
//! monotone-sorted streams), the returned value sits within
//! [`EPSILON`] of the requested *rank*: if `v = sketch.quantile(q)`,
//! then the fraction of recorded samples `< v` (equivalently `≤ v`)
//! brackets an interval within `EPSILON` of `q`. Rank error — not value
//! error — is the meaningful metric for a CDF estimate: it is invariant
//! under monotone rescaling and does not explode on bimodal inputs
//! where a hair of rank crosses a valley of value. The property suite
//! in `crates/sim/tests/prop_metrics.rs` enforces the contract on
//! uniform, normal, bimodal, and adversarially-sorted streams, and the
//! memory bound after 10⁶ observations.

use crate::metrics::nearest_rank;

/// Number of CDF markers the sketch maintains (heights + positions).
/// 33 markers put the estimation grid at 1/32 ≈ 3.1% quantile spacing,
/// comfortably inside the [`EPSILON`] = 5% rank contract while keeping
/// the whole sketch two cache lines of `f64`s.
pub const MARKERS: usize = 33;

/// Documented rank-error bound for quantile queries once the sketch is
/// past its exact phase (see the module docs for the precise statement).
pub const EPSILON: f64 = 0.05;

/// Extended P² streaming quantile estimator with O([`MARKERS`]) memory.
///
/// ```
/// use wgtt_sim::sketch::P2Sketch;
/// let mut s = P2Sketch::new();
/// for i in 0..10_000 {
///     s.observe(i as f64);
/// }
/// let med = s.quantile(0.5).unwrap();
/// assert!((med - 5_000.0).abs() < 500.0, "median ≈ {med}");
/// ```
#[derive(Debug, Clone)]
pub struct P2Sketch {
    /// Marker heights `q[i]`, non-decreasing in `i`.
    heights: [f64; MARKERS],
    /// Marker positions `n[i]`: the (1-based) rank each marker currently
    /// occupies in the observed stream. `n[0] = 1`,
    /// `n[MARKERS-1] = count` once initialized.
    positions: [f64; MARKERS],
    /// Observations seen so far.
    count: u64,
}

impl Default for P2Sketch {
    fn default() -> Self {
        Self::new()
    }
}

impl P2Sketch {
    /// An empty sketch.
    pub fn new() -> Self {
        P2Sketch {
            heights: [0.0; MARKERS],
            positions: [0.0; MARKERS],
            count: 0,
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether the sketch is still in its exact phase (fewer than
    /// [`MARKERS`] observations, all stored verbatim).
    pub fn is_exact(&self) -> bool {
        (self.count as usize) < MARKERS
    }

    /// Record one observation. `NaN` is rejected with a panic — the same
    /// contract as the exact distribution, whose sort would die on it.
    pub fn observe(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        let seen = self.count as usize;
        self.count += 1;
        if seen < MARKERS {
            // Exact phase: insertion-sort into the height array, which
            // doubles as the sample buffer until it fills.
            let pos = self.heights[..seen].partition_point(|&h| h <= x);
            self.heights.copy_within(pos..seen, pos + 1);
            self.heights[pos] = x;
            if seen + 1 == MARKERS {
                for (i, p) in self.positions.iter_mut().enumerate() {
                    *p = (i + 1) as f64;
                }
            }
            return;
        }

        // Locate the marker cell containing x, stretching the extremes
        // when x falls outside the observed support.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[MARKERS - 1] {
            self.heights[MARKERS - 1] = self.heights[MARKERS - 1].max(x);
            MARKERS - 2
        } else {
            // partition_point gives the first height > x; the cell is
            // the one just below it.
            self.heights.partition_point(|&h| h <= x) - 1
        };
        for p in &mut self.positions[k + 1..] {
            *p += 1.0;
        }

        // Nudge each interior marker at most one rank toward its
        // desired position on the uniform quantile grid.
        let n_total = self.count as f64;
        for i in 1..MARKERS - 1 {
            let desired = 1.0 + (n_total - 1.0) * i as f64 / (MARKERS - 1) as f64;
            let d = desired - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// The P² piecewise-parabolic height prediction for moving marker
    /// `i` by `d` ∈ {−1, +1} ranks.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, q, qp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        q + d / (np - nm)
            * ((n - nm + d) * (qp - q) / (np - n) + (np - n - d) * (q - qm) / (n - nm))
    }

    /// Linear fallback when the parabola would break marker ordering.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Estimate the `q`-quantile. `None` when empty or `q` outside
    /// `[0, 1]`. Exact (nearest-rank, matching the exact
    /// `Distribution`) during the exact phase; marker interpolation
    /// afterwards, within the [`EPSILON`] rank contract.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let seen = self.count as usize;
        if seen < MARKERS {
            return nearest_rank(seen, q).map(|idx| self.heights[idx]);
        }
        // Interpolate on the markers' *actual* positions, not the
        // desired grid — positions lag desired by design.
        let rank = 1.0 + q * (self.count as f64 - 1.0);
        if rank <= self.positions[0] {
            return Some(self.heights[0]);
        }
        if rank >= self.positions[MARKERS - 1] {
            return Some(self.heights[MARKERS - 1]);
        }
        let hi = self.positions.partition_point(|&p| p < rank).max(1);
        let lo = hi - 1;
        let (p0, p1) = (self.positions[lo], self.positions[hi]);
        let (h0, h1) = (self.heights[lo], self.heights[hi]);
        if p1 <= p0 {
            return Some(h0);
        }
        Some(h0 + (rank - p0) * (h1 - h0) / (p1 - p0))
    }

    /// The sketch's CDF estimate as `(value, cumulative_fraction)`
    /// marker pairs — at most [`MARKERS`] points, monotone in both
    /// coordinates, last fraction exactly 1.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let seen = self.count as usize;
        if seen == 0 {
            return Vec::new();
        }
        let n = self.count as f64;
        if seen < MARKERS {
            return self.heights[..seen]
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, (i + 1) as f64 / n))
                .collect();
        }
        self.heights
            .iter()
            .zip(self.positions.iter())
            .map(|(&h, &p)| (h, p / n))
            .collect()
    }

    /// Upper bound on retained values — the fixed marker count, however
    /// many observations have streamed through (the memory-bound test's
    /// hard assertion).
    pub fn stored_values(&self) -> usize {
        (self.count as usize).min(MARKERS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_phase_matches_nearest_rank() {
        let mut s = P2Sketch::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.observe(v);
        }
        assert!(s.is_exact());
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(3.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn out_of_range_and_empty_are_none() {
        let mut s = P2Sketch::new();
        assert_eq!(s.quantile(0.5), None);
        s.observe(1.0);
        assert_eq!(s.quantile(-0.1), None);
        assert_eq!(s.quantile(1.1), None);
        assert_eq!(s.quantile(f64::NAN), None);
        assert_eq!(s.quantile(0.5), Some(1.0));
    }

    #[test]
    fn markers_stay_sorted_under_stream() {
        let mut s = P2Sketch::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.observe((x % 10_000) as f64 / 10.0);
            if !s.is_exact() {
                for w in s.heights.windows(2) {
                    assert!(w[0] <= w[1], "marker heights out of order");
                }
                for w in s.positions.windows(2) {
                    assert!(w[0] < w[1], "marker positions out of order");
                }
            }
        }
        assert_eq!(s.stored_values(), MARKERS);
    }

    #[test]
    fn extremes_are_tracked_exactly() {
        // P² keeps the end markers at the true min/max.
        let mut s = P2Sketch::new();
        let mut x = 42u64;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((x >> 33) % 100_000) as f64 - 50_000.0;
            lo = lo.min(v);
            hi = hi.max(v);
            s.observe(v);
        }
        assert_eq!(s.quantile(0.0), Some(lo));
        assert_eq!(s.quantile(1.0), Some(hi));
    }
}
