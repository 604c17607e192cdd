//! Measurement recorders used by the experiment harness.
//!
//! Every figure and table in the paper reduces to one of a few shapes:
//! a quantity sampled against time (Figs. 2, 14, 15, 18, 22), a CDF
//! (Figs. 16, 24), a rate over a window (throughput plots), or a scalar
//! summary (Tables 1–5). The types here record those shapes during a run
//! and reduce them afterwards.

use crate::time::{SimDuration, SimTime};

/// A `(time, value)` series, e.g. ESNR per received frame or the serving-AP
/// index over a drive.
///
/// ```
/// use wgtt_sim::{metrics::TimeSeries, SimTime};
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_millis(10), 12.0);
/// ts.record(SimTime::from_millis(20), 14.0);
/// assert_eq!(ts.value_at(SimTime::from_millis(15)), Some(12.0));
/// assert_eq!(ts.mean(), Some(13.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Samples must be recorded in non-decreasing time
    /// order (the event loop guarantees this naturally).
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(at >= last, "TimeSeries samples out of order");
        }
        self.points.push((at, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Arithmetic mean of the values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Minimum value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Value of the most recent sample at or before `t` (sample-and-hold),
    /// or `None` if `t` precedes the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Resample onto a fixed grid with sample-and-hold interpolation;
    /// useful for aligning series before comparing them.
    pub fn resample(&self, start: SimTime, step: SimDuration, n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        let mut t = start;
        for _ in 0..n {
            out.push(self.value_at(t).unwrap_or(f64::NAN));
            t += step;
        }
        out
    }
}

/// Empirical distribution that reduces to a CDF (e.g. Fig. 16 bit-rate CDF,
/// Fig. 24 fps CDF). Every sample is stored, and each quantile or CDF
/// query sorts a copy of them (no run asks one distribution more than a
/// few times), so every reported quantile is a value that was recorded.
///
/// ```
/// use wgtt_sim::metrics::Distribution;
/// let mut d = Distribution::new();
/// for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
///     d.record(v);
/// }
/// assert_eq!(d.median(), Some(3.0));
/// assert_eq!(d.cdf().last().unwrap().1, 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Distribution {
    samples: Vec<f64>,
}

/// The nearest-rank index of the `q`-quantile among `n` sorted values:
/// `round(q · (n − 1))`. `None` when `n == 0` or `q` is outside
/// `[0, 1]` (NaN included) — an out-of-range request is a caller bug
/// reported through the type, not a panic.
///
/// ```
/// use wgtt_sim::metrics::nearest_rank;
/// assert_eq!(nearest_rank(5, 0.5), Some(2));
/// assert_eq!(nearest_rank(0, 0.5), None);
/// assert_eq!(nearest_rank(5, f64::NAN), None);
/// ```
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    Some(((q * (n - 1) as f64).round() as usize).min(n - 1))
}

impl Distribution {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// The `q`-quantile by nearest-rank on the sorted samples.
    ///
    /// Returns `None` if the distribution is empty **or if `q` is
    /// outside `[0, 1]`** (including NaN) — out-of-range requests are a
    /// caller bug reported through the type, not a panic.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let idx = nearest_rank(self.samples.len(), q)?;
        Some(self.sorted()[idx])
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// CDF as `(value, cumulative_fraction)` pairs, one per sample in
    /// ascending order — monotone in both coordinates and directly
    /// plottable.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let n = self.samples.len() as f64;
        self.sorted()
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    /// A sorted copy of the samples.
    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        sorted
    }
}

/// Byte/packet counter that reduces to throughput over arbitrary intervals
/// and to binned throughput-vs-time curves (Figs. 13–15, 17, 20, 23).
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    deliveries: Vec<(SimTime, u64)>, // (time, bytes)
    total_bytes: u64,
}

impl ThroughputMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a delivery of `bytes` at time `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        if let Some(&(last, _)) = self.deliveries.last() {
            debug_assert!(at >= last, "ThroughputMeter samples out of order");
        }
        self.total_bytes += bytes;
        self.deliveries.push((at, bytes));
    }

    /// Total bytes delivered so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Every delivery recorded, in time order.
    pub fn deliveries(&self) -> &[(SimTime, u64)] {
        &self.deliveries
    }

    /// Number of delivery records.
    pub fn count(&self) -> usize {
        self.deliveries.len()
    }

    /// Mean throughput in Mbit/s over `[start, end)`.
    pub fn mbps_over(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start {
            return 0.0;
        }
        let bytes: u64 = self
            .deliveries
            .iter()
            .filter(|&&(t, _)| t >= start && t < end)
            .map(|&(_, b)| b)
            .sum();
        bytes as f64 * 8.0 / (end - start).as_secs_f64() / 1e6
    }

    /// Throughput binned into consecutive windows of `bin` width starting
    /// at `start`, in Mbit/s — the shape of every throughput-vs-time plot.
    pub fn binned_mbps(&self, start: SimTime, bin: SimDuration, bins: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; bins];
        for &(t, b) in &self.deliveries {
            if t < start {
                continue;
            }
            let idx = ((t - start).as_nanos() / bin.as_nanos()) as usize;
            if idx < bins {
                out[idx] += b as f64;
            }
        }
        let scale = 8.0 / bin.as_secs_f64() / 1e6;
        for v in &mut out {
            *v *= scale;
        }
        out
    }
}

/// Counts named discrete occurrences (handovers, retransmissions, control
/// packet losses, collisions, ...).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn timeseries_basic_stats() {
        let mut ts = TimeSeries::new();
        for (t, v) in [(1u64, 2.0), (2, 4.0), (3, 6.0)] {
            ts.record(ms(t), v);
        }
        assert_eq!(ts.mean(), Some(4.0));
        assert_eq!(ts.min(), Some(2.0));
        assert_eq!(ts.max(), Some(6.0));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn timeseries_sample_and_hold() {
        let mut ts = TimeSeries::new();
        ts.record(ms(10), 1.0);
        ts.record(ms(20), 2.0);
        assert_eq!(ts.value_at(ms(5)), None);
        assert_eq!(ts.value_at(ms(10)), Some(1.0));
        assert_eq!(ts.value_at(ms(15)), Some(1.0));
        assert_eq!(ts.value_at(ms(20)), Some(2.0));
        assert_eq!(ts.value_at(ms(99)), Some(2.0));
    }

    #[test]
    fn timeseries_resample_grid() {
        let mut ts = TimeSeries::new();
        ts.record(ms(0), 1.0);
        ts.record(ms(10), 2.0);
        let grid = ts.resample(ms(0), SimDuration::from_millis(5), 4);
        assert_eq!(grid, vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn timeseries_empty_stats_are_none() {
        let ts = TimeSeries::new();
        assert!(ts.mean().is_none());
        assert!(ts.min().is_none());
        assert!(ts.max().is_none());
        assert!(ts.is_empty());
    }

    #[test]
    fn distribution_quantiles() {
        let mut d = Distribution::new();
        for v in 1..=100 {
            d.record(v as f64);
        }
        let med = d.median().unwrap();
        assert!((49.0..=51.0).contains(&med), "median = {med}");
        assert_eq!(d.quantile(0.0), Some(1.0));
        assert_eq!(d.quantile(1.0), Some(100.0));
        let q90 = d.quantile(0.9).unwrap();
        assert!((q90 - 90.0).abs() <= 1.0, "q90 = {q90}");
    }

    #[test]
    fn distribution_cdf_monotone() {
        let mut d = Distribution::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            d.record(v);
        }
        let cdf = d.cdf();
        assert_eq!(cdf.len(), 5);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn distribution_interleaved_queries_track_new_samples() {
        // Every query must see everything recorded before it —
        // interleave records and queries and check against an
        // independent sort every time.
        let mut d = Distribution::new();
        let mut x = 0x9e37_79b9u64;
        let mut all: Vec<f64> = Vec::new();
        for round in 0..50 {
            for _ in 0..=(round % 7) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 1000) as f64 / 10.0;
                d.record(v);
                all.push(v);
            }
            let mut fresh = all.clone();
            fresh.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                let idx = ((q * (fresh.len() - 1) as f64).round() as usize).min(fresh.len() - 1);
                assert_eq!(d.quantile(q), Some(fresh[idx]), "q={q} round={round}");
            }
            assert_eq!(d.cdf().len(), all.len());
        }
    }

    #[test]
    fn distribution_out_of_range_quantile_is_none() {
        let mut d = Distribution::new();
        d.record(1.0);
        assert_eq!(d.quantile(-0.1), None);
        assert_eq!(d.quantile(1.001), None);
        assert_eq!(d.quantile(f64::NAN), None);
        assert_eq!(d.quantile(0.5), Some(1.0));
    }

    #[test]
    fn distribution_std_dev() {
        let mut d = Distribution::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            d.record(v);
        }
        assert_eq!(d.mean(), Some(5.0));
        assert_eq!(d.std_dev(), Some(2.0));
    }

    #[test]
    fn throughput_over_window() {
        let mut m = ThroughputMeter::new();
        // 1 Mbit delivered over 1 second => 1 Mbps
        for i in 0..125 {
            m.record(ms(i * 8), 1000);
        }
        let mbps = m.mbps_over(SimTime::ZERO, SimTime::from_secs(1));
        assert!((mbps - 1.0).abs() < 1e-9, "mbps = {mbps}");
        assert_eq!(m.total_bytes(), 125_000);
    }

    #[test]
    fn throughput_binned() {
        let mut m = ThroughputMeter::new();
        m.record(ms(100), 12_500); // 0.1 Mbit in bin 0
        m.record(ms(1_100), 25_000); // 0.2 Mbit in bin 1
        let bins = m.binned_mbps(SimTime::ZERO, SimDuration::from_secs(1), 3);
        assert!((bins[0] - 0.1).abs() < 1e-9);
        assert!((bins[1] - 0.2).abs() < 1e-9);
        assert_eq!(bins[2], 0.0);
    }

    #[test]
    fn throughput_empty_window_is_zero() {
        let m = ThroughputMeter::new();
        assert_eq!(m.mbps_over(ms(5), ms(5)), 0.0);
        assert_eq!(m.mbps_over(ms(5), ms(1)), 0.0);
    }

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
