//! Real-time video conferencing (paper §5.4, "Remote video conferencing").
//!
//! Two parties exchange video frames at a nominal 30 fps over UDP. A
//! frame counts as rendered in the second it fully arrives; the paper
//! reports the CDF of per-second fps over the drive. Two application
//! behaviours are modelled:
//!
//! * **Fixed** (Skype-like): constant frame size — loss directly costs
//!   frames;
//! * **Adaptive** (Hangouts-like): the sender shrinks frame size when it
//!   observes loss, so more (smaller) frames survive — the paper sees
//!   Hangouts reach 56 fps percentiles where Skype sits at 20.

use wgtt_sim::time::{SimDuration, SimTime};

/// Sender-side frame generator.
#[derive(Debug)]
pub struct ConferenceSource {
    /// Nominal frame rate.
    fps: f64,
    /// Current frame payload size, bytes.
    frame_bytes: u32,
    /// Bounds for the adaptive mode.
    min_frame_bytes: u32,
    max_frame_bytes: u32,
    /// Whether the source adapts frame size to observed loss.
    adaptive: bool,
    next_frame: u64,
    next_due: SimTime,
}

/// A frame to be chunked into UDP packets by the flow glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoFrame {
    /// Monotone frame number.
    pub id: u64,
    /// Payload size, bytes.
    pub bytes: u32,
    /// Generation instant.
    pub at: SimTime,
}

impl ConferenceSource {
    /// Skype-like: fixed 30 fps × 10 kB frames (≈2.4 Mbit/s).
    pub fn fixed(start: SimTime) -> Self {
        ConferenceSource {
            fps: 30.0,
            frame_bytes: 10_000,
            min_frame_bytes: 10_000,
            max_frame_bytes: 10_000,
            adaptive: false,
            next_frame: 0,
            next_due: start,
        }
    }

    /// Hangouts-like: 30 fps with frame size adapting in [1.5 kB, 10 kB]
    /// (resolution reduction under loss).
    pub fn adaptive(start: SimTime) -> Self {
        ConferenceSource {
            fps: 30.0,
            frame_bytes: 10_000,
            min_frame_bytes: 1_500,
            max_frame_bytes: 10_000,
            adaptive: true,
            next_frame: 0,
            next_due: start,
        }
    }

    /// Current frame size, bytes.
    pub fn frame_bytes(&self) -> u32 {
        self.frame_bytes
    }

    /// The instant the next frame is due.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Defer the first frame to `t` (no back-fill burst).
    pub fn defer_start(&mut self, t: SimTime) {
        if t > self.next_due {
            self.next_due = t;
        }
    }

    /// Emit every frame due at or before `now`.
    pub fn poll(&mut self, now: SimTime) -> Vec<VideoFrame> {
        let interval = SimDuration::from_secs_f64(1.0 / self.fps);
        let mut out = Vec::new();
        while self.next_due <= now {
            out.push(VideoFrame {
                id: self.next_frame,
                bytes: self.frame_bytes,
                at: self.next_due,
            });
            self.next_frame += 1;
            self.next_due += interval;
        }
        out
    }

    /// Feed back the observed frame loss fraction over the last feedback
    /// period. The adaptive source halves frame size above 10 % loss and
    /// creeps back up (+10 %) when clean.
    pub fn on_loss_feedback(&mut self, loss: f64) {
        if !self.adaptive {
            return;
        }
        if loss > 0.10 {
            self.frame_bytes = (self.frame_bytes / 2).max(self.min_frame_bytes);
        } else if loss < 0.02 {
            self.frame_bytes = ((self.frame_bytes as f64 * 1.1) as u32).min(self.max_frame_bytes);
        }
    }
}

/// Receiver-side fps accounting.
#[derive(Debug, Default)]
pub struct ConferenceSink {
    /// Completed-frame timestamps.
    completions: Vec<SimTime>,
}

impl ConferenceSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A frame fully arrived at `now`.
    pub fn on_frame_complete(&mut self, now: SimTime) {
        if let Some(&last) = self.completions.last() {
            debug_assert!(now >= last, "completions must be time-ordered");
        }
        self.completions.push(now);
    }

    /// Frames completed.
    pub fn frames(&self) -> usize {
        self.completions.len()
    }

    /// Per-second fps samples over `[start, start + seconds)` — exactly
    /// what the paper's screen-recorder (`scrot` each 1 s) captured.
    pub fn fps_per_second(&self, start: SimTime, seconds: usize) -> Vec<f64> {
        let mut bins = vec![0.0f64; seconds];
        for &t in &self.completions {
            if t < start {
                continue;
            }
            let idx = (t.saturating_since(start).as_secs_f64()) as usize;
            if idx < seconds {
                bins[idx] += 1.0;
            }
        }
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn emits_30_frames_per_second() {
        let mut s = ConferenceSource::fixed(SimTime::ZERO);
        let frames = s.poll(SimTime::from_secs(1));
        assert!((30..=31).contains(&frames.len()), "{}", frames.len());
        // Contiguous ids.
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.id as usize, i);
        }
    }

    #[test]
    fn fixed_source_ignores_feedback() {
        let mut s = ConferenceSource::fixed(SimTime::ZERO);
        s.on_loss_feedback(0.5);
        assert_eq!(s.frame_bytes(), 10_000);
    }

    #[test]
    fn adaptive_source_shrinks_under_loss_and_recovers() {
        let mut s = ConferenceSource::adaptive(SimTime::ZERO);
        s.on_loss_feedback(0.3);
        assert_eq!(s.frame_bytes(), 5_000);
        s.on_loss_feedback(0.3);
        assert_eq!(s.frame_bytes(), 2_500);
        for _ in 0..4 {
            s.on_loss_feedback(0.3);
        }
        assert_eq!(s.frame_bytes(), 1_500, "floor respected");
        for _ in 0..60 {
            s.on_loss_feedback(0.0);
        }
        assert_eq!(s.frame_bytes(), 10_000, "ceiling restored");
    }

    #[test]
    fn sink_bins_fps_per_second() {
        let mut sink = ConferenceSink::new();
        // 30 frames in second 0, 10 in second 1, none in second 2.
        for i in 0..30u64 {
            sink.on_frame_complete(ms(i * 33));
        }
        for i in 0..10u64 {
            sink.on_frame_complete(ms(1000 + i * 90));
        }
        let fps = sink.fps_per_second(SimTime::ZERO, 3);
        assert_eq!(fps, vec![30.0, 10.0, 0.0]);
        assert_eq!(sink.frames(), 40);
    }

    #[test]
    fn sink_ignores_frames_before_window() {
        let mut sink = ConferenceSink::new();
        sink.on_frame_complete(ms(100));
        sink.on_frame_complete(ms(1_600));
        let fps = sink.fps_per_second(SimTime::from_secs(1), 1);
        assert_eq!(fps, vec![1.0]);
    }
}
