//! Incremental order-statistics sliding window for ESNR readings.
//!
//! The paper's selection rule (§3.1.1) evaluates `argmax_a median(E(a))`
//! over the last *W* = 10 ms on **every uplink frame**, which makes the
//! window reduction the hottest path in the whole system. The seed
//! implementation re-collected and re-sorted the window per AP per
//! frame — O(A · n log n) with an allocation per query. This module
//! keeps the window sorted *across* queries instead:
//!
//! * an **indexable sorted ring** (`SortedRing`): the window's live
//!   values kept sorted under `f64::total_cmp`; insert and expiry
//!   binary-search the position and shift the tail, and any order
//!   statistic — the median, the maximum — is a direct index. For the
//!   at-most-few-hundred readings a 10 ms window holds, the shift is a
//!   small `memmove` — measured faster than a two-heap lazy-deletion
//!   median (no hashing, no tombstones, no rebalancing) while staying
//!   exactly population-sized;
//! * a deque of `(time, value)` readings giving expiry order, the
//!   latest sample, and the mean.
//!
//! [`EsnrWindow::reduce`] is a plain read of that state: an index into
//! the ring, the deque's back, or (for the mean, which only the
//! selector ablation asks for) one pass over the deque.
//!
//! **Equivalence guarantee.** [`EsnrWindow`] is the crate's one window.
//! For every [`WindowReduce`] the reduced value is bit-identical to the
//! seed's naive sort-per-query window, which survives verbatim as the
//! oracle in `crates/core/tests/oracle/window.rs`:
//!
//! * *Median*: the ring is the window multiset sorted under
//!   `total_cmp`, and the reduction reads element `n/2` (0-based) —
//!   exactly the index the oracle picks. Total order and the
//!   oracle's `partial_cmp` sort can only disagree about the relative
//!   order of bit-distinct but numerically equal values (`-0.0` vs
//!   `0.0`), which cannot change the value at any sorted index.
//! * *Mean*: the oracle's own expression — the deque summed left to
//!   right, oldest first, divided by its length.
//! * *Max*: the ring's last element. Every reading is finite (the
//!   selector rejects the rest), so this is the oracle's `f64::max`
//!   fold up to the sign of a zero, which no ESNR reading carries.
//! * *Latest*: positional, identical by construction.
//!
//! `crates/core/tests/prop_selection.rs` pins this equivalence under
//! arbitrary insert/expiry sequences, duplicate timestamps included.

use std::cmp::Ordering;
use std::collections::VecDeque;
use wgtt_sim::time::{SimDuration, SimTime};

/// How the sliding window of ESNR readings reduces to one figure per AP.
///
/// The paper picks the **median** (Fig. 6) for robustness to single-frame
/// fading spikes; the other reducers exist for the ablation study that
/// quantifies that choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowReduce {
    /// Median of the window — the paper's algorithm.
    #[default]
    Median,
    /// Arithmetic mean of the window.
    Mean,
    /// Maximum reading in the window (optimistic).
    Max,
    /// Most recent reading only (no smoothing).
    Latest,
}

/// Indexable sorted ring: the window's live ESNR values kept sorted
/// under the IEEE-754 total order, so any order statistic is a direct
/// index (`sorted[len/2]` is the oracle's median).
///
/// Insert and remove binary-search the position and shift the tail.
/// The shift is formally O(n), but the window never holds more than a
/// few hundred readings (*W* = 10 ms of uplink frames), so it is one
/// small `memmove` — measured several times faster than a two-heap
/// lazy-deletion median at these populations, with zero slack memory:
/// the ring is always exactly population-sized.
///
/// Equal values under `total_cmp` have identical bit patterns (the
/// total order distinguishes `-0.0` from `0.0` and every NaN payload),
/// so removing "one occurrence of `v`" cannot pick the wrong victim
/// among duplicates.
#[derive(Debug, Default, Clone)]
struct SortedRing {
    sorted: Vec<f64>,
}

impl SortedRing {
    /// Live element count (used by the memory-bound test).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.sorted.len()
    }

    /// First index whose value is `>= v` in the total order — the
    /// insertion point, and the leftmost copy of `v` if present.
    #[inline]
    fn lower_bound(&self, v: f64) -> usize {
        self.sorted
            .partition_point(|x| x.total_cmp(&v) == Ordering::Less)
    }

    #[inline]
    fn insert(&mut self, v: f64) {
        let i = self.lower_bound(v);
        self.sorted.insert(i, v);
    }

    /// Remove one occurrence of `v`. The caller guarantees `v` is in the
    /// multiset (it expires a reading it previously inserted).
    #[inline]
    fn remove(&mut self, v: f64) {
        let i = self.lower_bound(v);
        debug_assert!(
            self.sorted
                .get(i)
                .is_some_and(|x| x.to_bits() == v.to_bits()),
            "remove of a value that was never inserted"
        );
        self.sorted.remove(i);
    }

    /// `sorted[len/2]` of the live multiset — the oracle's median index.
    #[inline]
    fn median(&self) -> Option<f64> {
        self.sorted.get(self.sorted.len() / 2).copied()
    }

    /// The largest live value.
    #[inline]
    fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// Incremental sliding-window ESNR history for one (client, AP) link.
///
/// Maintains median / mean / max / latest under time-ordered inserts
/// ([`EsnrWindow::push`]) and front expiry ([`EsnrWindow::expire`]).
///
/// ```
/// use wgtt::window::{EsnrWindow, WindowReduce};
/// use wgtt_sim::time::{SimDuration, SimTime};
///
/// let w = SimDuration::from_millis(10);
/// let mut win = EsnrWindow::default();
/// for (t, v) in [(0u64, 5.0), (1, 6.0), (2, 50.0)] {
///     win.push(SimTime::from_millis(t), v, w);
/// }
/// assert_eq!(win.reduce(WindowReduce::Median), Some(6.0));
/// assert_eq!(win.reduce(WindowReduce::Max), Some(50.0));
/// ```
#[derive(Debug, Default, Clone)]
pub struct EsnrWindow {
    /// `(time, esnr_db)`, oldest first — expiry order, latest, and mean.
    readings: VecDeque<(SimTime, f64)>,
    ring: SortedRing,
}

impl EsnrWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of readings currently inside the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the window holds no readings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Record a reading and expire everything older than `window`
    /// behind it. Times must be non-decreasing per link (the event loop
    /// delivers CSI reports in order); ties are fine.
    #[inline]
    pub fn push(&mut self, at: SimTime, esnr_db: f64, window: SimDuration) {
        debug_assert!(
            self.readings.back().is_none_or(|&(t, _)| t <= at),
            "per-link readings must arrive in time order"
        );
        self.readings.push_back((at, esnr_db));
        self.ring.insert(esnr_db);
        self.expire(at, window);
    }

    /// Drop readings with `t + window < now` (same strict inequality as
    /// the seed implementation: a reading exactly `window` old stays).
    #[inline]
    pub fn expire(&mut self, now: SimTime, window: SimDuration) {
        while let Some(&(t, v)) = self.readings.front() {
            if t + window < now {
                self.readings.pop_front();
                self.ring.remove(v);
            } else {
                break;
            }
        }
    }

    /// Reduce the window under `policy`: O(1) for median, max and
    /// latest, one pass over the live readings for the mean.
    #[inline]
    pub fn reduce(&self, policy: WindowReduce) -> Option<f64> {
        if self.readings.is_empty() {
            return None;
        }
        match policy {
            WindowReduce::Median => self.ring.median(),
            WindowReduce::Mean => Some(
                self.readings.iter().map(|&(_, v)| v).sum::<f64>() / self.readings.len() as f64,
            ),
            WindowReduce::Max => self.ring.max(),
            WindowReduce::Latest => self.readings.back().map(|&(_, v)| v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    const W: SimDuration = SimDuration::from_millis(10);

    const POLICIES: [WindowReduce; 4] = [
        WindowReduce::Median,
        WindowReduce::Mean,
        WindowReduce::Max,
        WindowReduce::Latest,
    ];

    #[test]
    fn empty_reduces_to_none() {
        let w = EsnrWindow::new();
        for p in POLICIES {
            assert_eq!(w.reduce(p), None);
        }
    }

    #[test]
    fn mean_sum_resets_exactly_when_window_drains() {
        // Expire everything, then push a fresh reading: the mean must be
        // that reading exactly — no reading of the dead window survives
        // in the deque the mean sums over.
        let mut w = EsnrWindow::new();
        for i in 0..50u64 {
            w.push(ms(i / 8), 0.1 * i as f64 + 3.7, W);
        }
        w.expire(ms(1_000), W);
        assert!(w.is_empty());
        w.push(ms(1_000), 17.3, W);
        assert_eq!(w.reduce(WindowReduce::Mean), Some(17.3));
    }

    #[test]
    fn memory_stays_population_sized() {
        // Slide a size-1 window across many inserts: every insert also
        // expires one reading, so a structure that deferred deletions
        // would grow with the total insert count. The sorted ring must
        // stay exactly population-sized.
        let mut inc = EsnrWindow::new();
        for i in 0..10_000u64 {
            inc.push(
                SimTime::from_millis(i * 20),
                (i % 977) as f64,
                SimDuration::from_millis(10),
            );
        }
        assert_eq!(inc.len(), 1);
        assert_eq!(inc.ring.len(), inc.readings.len());
    }
}
