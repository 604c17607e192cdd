//! The seed's sliding window: re-collect and re-sort on every query.

use std::collections::VecDeque;
use wgtt::window::WindowReduce;
use wgtt_sim::time::{SimDuration, SimTime};

/// The seed's sort-per-query window, kept verbatim as the equivalence
/// oracle of [`wgtt::window::EsnrWindow`].
#[derive(Debug, Default, Clone)]
pub struct NaiveWindow {
    readings: VecDeque<(SimTime, f64)>,
}

impl NaiveWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of readings currently inside the window.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the window holds no readings.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Record a reading and expire behind it.
    pub fn push(&mut self, at: SimTime, esnr_db: f64, window: SimDuration) {
        self.readings.push_back((at, esnr_db));
        self.expire(at, window);
    }

    /// Drop readings with `t + window < now`.
    pub fn expire(&mut self, now: SimTime, window: SimDuration) {
        while let Some(&(t, _)) = self.readings.front() {
            if t + window < now {
                self.readings.pop_front();
            } else {
                break;
            }
        }
    }

    /// Sort-per-query reduction (the seed implementation).
    pub fn reduce(&self, policy: WindowReduce) -> Option<f64> {
        if self.readings.is_empty() {
            return None;
        }
        match policy {
            WindowReduce::Median => {
                let mut vals: Vec<f64> = self.readings.iter().map(|&(_, v)| v).collect();
                vals.sort_by(|a, b| a.partial_cmp(b).expect("ESNR is never NaN"));
                Some(vals[vals.len() / 2])
            }
            WindowReduce::Mean => Some(
                self.readings.iter().map(|&(_, v)| v).sum::<f64>() / self.readings.len() as f64,
            ),
            WindowReduce::Max => self
                .readings
                .iter()
                .map(|&(_, v)| v)
                .fold(None, |acc: Option<f64>, v| {
                    Some(acc.map_or(v, |a| a.max(v)))
                }),
            WindowReduce::Latest => self.readings.back().map(|&(_, v)| v),
        }
    }
}
