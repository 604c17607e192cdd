//! Buffered video playback (paper §5.4, "Online video").
//!
//! The client streams a 720p video (the paper caches it on a local
//! server, so the bottleneck is the wireless path), pre-buffers 1,500 ms,
//! and plays at the media bitrate. Whenever the playout buffer empties,
//! playback stalls — a *rebuffer event* — until the pre-buffer refills.
//! The reported metric is the rebuffer ratio: stalled time divided by
//! the time the client spends transiting the AP array.

use wgtt_sim::time::{SimDuration, SimTime};

/// Playback state of the player.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaybackState {
    /// Filling the initial pre-buffer; playback has not started.
    Prebuffering,
    /// Playing smoothly.
    Playing,
    /// Stalled mid-stream, refilling the pre-buffer.
    Rebuffering,
}

/// Client-side player fed by delivered TCP bytes.
#[derive(Debug)]
pub struct VideoPlayer {
    /// Media bitrate, bits/second (720p ≈ 2.5 Mbit/s).
    bitrate_bps: f64,
    /// Pre-buffer playout depth required to (re)start playback.
    prebuffer: SimDuration,
    /// Media seconds currently buffered ahead of the playhead.
    buffered_s: f64,
    state: PlaybackState,
    last_advance: SimTime,
    /// Number of mid-stream stalls.
    pub rebuffer_events: u64,
    /// Total stalled (rebuffering) time, excluding the initial prebuffer.
    pub rebuffer_time: SimDuration,
    /// Total time played.
    pub played_time: SimDuration,
}

impl VideoPlayer {
    /// A player for a stream of `bitrate_bps` with the given pre-buffer
    /// depth, created at `now`.
    pub fn new(bitrate_bps: f64, prebuffer: SimDuration, now: SimTime) -> Self {
        assert!(bitrate_bps > 0.0);
        VideoPlayer {
            bitrate_bps,
            prebuffer,
            buffered_s: 0.0,
            state: PlaybackState::Prebuffering,
            last_advance: now,
            rebuffer_events: 0,
            rebuffer_time: SimDuration::ZERO,
            played_time: SimDuration::ZERO,
        }
    }

    /// The paper's configuration: 2.5 Mbit/s 720p with a 1,500 ms
    /// pre-buffer.
    pub fn hd_default(now: SimTime) -> Self {
        VideoPlayer::new(2.5e6, SimDuration::from_millis(1500), now)
    }

    /// Current state.
    pub fn state(&self) -> PlaybackState {
        self.state
    }

    /// Advance the playback clock to `now`, consuming buffer while
    /// playing and accumulating stall time while not.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        self.last_advance = now;
        match self.state {
            PlaybackState::Playing => {
                if self.buffered_s >= dt {
                    self.buffered_s -= dt;
                    self.played_time += SimDuration::from_secs_f64(dt);
                } else {
                    // Played what was left, then stalled.
                    let played = self.buffered_s;
                    self.buffered_s = 0.0;
                    self.played_time += SimDuration::from_secs_f64(played);
                    self.rebuffer_time += SimDuration::from_secs_f64(dt - played);
                    self.rebuffer_events += 1;
                    self.state = PlaybackState::Rebuffering;
                }
            }
            PlaybackState::Rebuffering => {
                self.rebuffer_time += SimDuration::from_secs_f64(dt);
            }
            PlaybackState::Prebuffering => {}
        }
    }

    /// Feed `bytes` of delivered media at `now`.
    pub fn on_bytes(&mut self, now: SimTime, bytes: u64) {
        self.advance(now);
        self.buffered_s += bytes as f64 * 8.0 / self.bitrate_bps;
        let threshold = self.prebuffer.as_secs_f64();
        match self.state {
            PlaybackState::Prebuffering | PlaybackState::Rebuffering
                if self.buffered_s >= threshold =>
            {
                self.state = PlaybackState::Playing;
            }
            _ => {}
        }
    }

    /// Rebuffer ratio over an observation span (the client's transit
    /// time): stalled time / span.
    pub fn rebuffer_ratio(&self, span: SimDuration) -> f64 {
        if span == SimDuration::ZERO {
            return 0.0;
        }
        self.rebuffer_time.as_secs_f64() / span.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Bytes equal to `s` seconds of media at 2.5 Mbit/s.
    fn media(s: f64) -> u64 {
        (s * 2.5e6 / 8.0) as u64
    }

    #[test]
    fn prebuffer_gates_start() {
        let mut p = VideoPlayer::hd_default(ms(0));
        p.on_bytes(ms(100), media(1.0));
        assert_eq!(p.state(), PlaybackState::Prebuffering);
        p.on_bytes(ms(200), media(0.6));
        assert_eq!(p.state(), PlaybackState::Playing);
    }

    #[test]
    fn smooth_delivery_never_rebuffers() {
        let mut p = VideoPlayer::hd_default(ms(0));
        // Deliver 200 ms of media every 100 ms: buffer only grows.
        for i in 1..100u64 {
            p.on_bytes(ms(i * 100), media(0.2));
        }
        p.advance(ms(10_000));
        assert_eq!(p.rebuffer_events, 0);
        assert_eq!(p.rebuffer_time, SimDuration::ZERO);
        assert_eq!(p.state(), PlaybackState::Playing);
    }

    #[test]
    fn starvation_stalls_and_counts() {
        let mut p = VideoPlayer::hd_default(ms(0));
        p.on_bytes(ms(0), media(2.0)); // starts playing with 2 s
                                       // Nothing arrives for 5 s: stalls after 2 s, rebuffers 3 s.
        p.advance(ms(5_000));
        assert_eq!(p.state(), PlaybackState::Rebuffering);
        assert_eq!(p.rebuffer_events, 1);
        assert!((p.rebuffer_time.as_secs_f64() - 3.0).abs() < 1e-9);
        assert!((p.played_time.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rebuffer_requires_full_prebuffer_to_resume() {
        let mut p = VideoPlayer::hd_default(ms(0));
        p.on_bytes(ms(0), media(2.0));
        p.advance(ms(3_000)); // stalled at 2 s
        p.on_bytes(ms(3_100), media(1.0)); // 1 s < 1.5 s prebuffer
        assert_eq!(p.state(), PlaybackState::Rebuffering);
        p.on_bytes(ms(3_200), media(0.6));
        assert_eq!(p.state(), PlaybackState::Playing);
    }

    #[test]
    fn rebuffer_ratio_is_fractional_stall() {
        let mut p = VideoPlayer::hd_default(ms(0));
        p.on_bytes(ms(0), media(2.0));
        p.advance(ms(4_000)); // 2 s played, 2 s stalled
        let ratio = p.rebuffer_ratio(SimDuration::from_secs(4));
        assert!((ratio - 0.5).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn zero_span_ratio_is_zero() {
        let p = VideoPlayer::hd_default(ms(0));
        assert_eq!(p.rebuffer_ratio(SimDuration::ZERO), 0.0);
    }
}
