//! # wgtt-apps — application workload models
//!
//! The paper's three case studies (§5.4), as byte-level application
//! state machines the scenario wires over simulated TCP/UDP flows:
//!
//! * [`video`] — HD video streaming over TCP with a 1,500 ms pre-buffer;
//!   the QoE metric is the *rebuffer ratio* (Table 4);
//! * [`conference`] — bidirectional real-time video (Skype-like fixed
//!   frame size, Hangouts-like adaptive resolution); the metric is the
//!   per-second frames-per-second CDF (Fig. 24);
//! * [`web`] — a 2.1 MB page (the paper's eBay homepage); the metric is
//!   the full load time (Table 5), which only the page's weight decides.

pub mod conference;
pub mod mix;
pub mod video;
pub mod web;

pub use conference::{ConferenceSink, ConferenceSource};
pub use mix::{AppKind, TrafficMix};
pub use video::{PlaybackState, VideoPlayer};
