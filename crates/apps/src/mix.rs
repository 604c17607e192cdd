//! Per-vehicle traffic-mix sampling for fleet scenarios.
//!
//! A fleet run gives every vehicle a workload drawn from a weighted mix
//! of the crate's application models (§5.4): streaming video, a web
//! page fetch, a bidirectional conference call, or background telemetry
//! only. The draw is a plain weighted categorical over a seeded
//! [`Xoshiro256`], so the same seed always deals the same apps to the
//! same vehicles regardless of what the rest of the world does with its
//! own RNG streams.

use wgtt_sim::rng::Xoshiro256;

/// One application category a vehicle can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// HD streaming video: a constant-rate downlink matching the
    /// [`crate::video::VideoPlayer`] 720p consumption rate.
    Video,
    /// A finite web page fetch (a TCP transfer of
    /// [`crate::web::PAGE_BYTES`]).
    Web,
    /// Bidirectional adaptive video conference.
    Conference,
    /// Uplink telemetry only (position beacons, fare payments) — no
    /// user-facing downlink beyond the control plane.
    Telemetry,
}

/// Weighted mix of application categories across a fleet.
///
/// Weights are relative, not probabilities: they are normalised at
/// sampling time, so `{3, 1, 1, 1}` means video is three times as
/// likely as each of the others.
#[derive(Debug, Clone, Copy)]
pub struct TrafficMix {
    pub video: f64,
    pub web: f64,
    pub conference: f64,
    pub telemetry: f64,
}

impl TrafficMix {
    /// The default transit-bus mix: video-heavy (half the riders
    /// streaming), with web browsing, a few calls, and a telemetry-only
    /// remainder.
    pub fn transit_default() -> Self {
        TrafficMix {
            video: 0.50,
            web: 0.25,
            conference: 0.10,
            telemetry: 0.15,
        }
    }

    /// A mix where every vehicle runs the same app (degenerate but
    /// useful for focused experiments).
    pub fn all(kind: AppKind) -> Self {
        let mut m = TrafficMix {
            video: 0.0,
            web: 0.0,
            conference: 0.0,
            telemetry: 0.0,
        };
        match kind {
            AppKind::Video => m.video = 1.0,
            AppKind::Web => m.web = 1.0,
            AppKind::Conference => m.conference = 1.0,
            AppKind::Telemetry => m.telemetry = 1.0,
        }
        m
    }

    fn total(&self) -> f64 {
        self.video + self.web + self.conference + self.telemetry
    }

    /// Draw one application category.
    ///
    /// Panics if every weight is zero or any weight is negative — a
    /// configuration error, not a runtime condition.
    pub fn sample(&self, rng: &mut Xoshiro256) -> AppKind {
        assert!(
            self.video >= 0.0 && self.web >= 0.0 && self.conference >= 0.0 && self.telemetry >= 0.0,
            "traffic-mix weights must be non-negative: {self:?}"
        );
        let total = self.total();
        assert!(total > 0.0, "traffic mix has no positive weight: {self:?}");
        let mut x = rng.uniform() * total;
        for (w, kind) in [
            (self.video, AppKind::Video),
            (self.web, AppKind::Web),
            (self.conference, AppKind::Conference),
            (self.telemetry, AppKind::Telemetry),
        ] {
            if x < w {
                return kind;
            }
            x -= w;
        }
        // Floating-point edge: `uniform()` can land exactly on the
        // cumulative total; the last positive-weight category wins.
        if self.telemetry > 0.0 {
            AppKind::Telemetry
        } else if self.conference > 0.0 {
            AppKind::Conference
        } else if self.web > 0.0 {
            AppKind::Web
        } else {
            AppKind::Video
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_mix_always_returns_its_kind() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for kind in [
            AppKind::Video,
            AppKind::Web,
            AppKind::Conference,
            AppKind::Telemetry,
        ] {
            let mix = TrafficMix::all(kind);
            for _ in 0..64 {
                assert_eq!(mix.sample(&mut rng), kind);
            }
        }
    }

    #[test]
    fn sample_tracks_weights() {
        let mix = TrafficMix::transit_default();
        let mut rng = Xoshiro256::seed_from_u64(42);
        let mut counts = [0u32; 4];
        let n = 20_000;
        for _ in 0..n {
            match mix.sample(&mut rng) {
                AppKind::Video => counts[0] += 1,
                AppKind::Web => counts[1] += 1,
                AppKind::Conference => counts[2] += 1,
                AppKind::Telemetry => counts[3] += 1,
            }
        }
        let frac = |c: u32| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.50).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[1]) - 0.25).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[2]) - 0.10).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[3]) - 0.15).abs() < 0.02, "{counts:?}");
    }

    #[test]
    fn same_seed_same_deal() {
        let mix = TrafficMix::transit_default();
        let deal = |seed: u64| -> Vec<AppKind> {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (0..500).map(|_| mix.sample(&mut rng)).collect()
        };
        assert_eq!(deal(123), deal(123));
        assert_ne!(deal(123), deal(124));
    }

    #[test]
    #[should_panic(expected = "no positive weight")]
    fn zero_mix_panics() {
        let mix = TrafficMix {
            video: 0.0,
            web: 0.0,
            conference: 0.0,
            telemetry: 0.0,
        };
        let mut rng = Xoshiro256::seed_from_u64(1);
        mix.sample(&mut rng);
    }
}
