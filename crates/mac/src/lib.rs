//! # wgtt-mac — 802.11n link-layer substrate
//!
//! WGTT's second headline contribution is integrating rapid AP switching
//! with *frame aggregation and block acknowledgements* — the 802.11n
//! machinery that keeps per-frame overhead amortized at modern bit rates
//! (paper §1, §3.2). Reproducing that requires an actual MAC model, which
//! this crate provides:
//!
//! * [`mcs`] — the MCS 0–7 rate table (20 MHz, one spatial stream, as the
//!   splitter-fed testbed AP radiates), with an ESNR→PER error model;
//! * [`airtime`] — µs-accurate frame/TXOP durations (preambles, SIFS,
//!   DIFS, backoff slots, Block ACK responses);
//! * [`aggregation`] — A-MPDU assembly under count/byte limits;
//! * [`blockack`] — originator & recipient Block ACK scoreboards over the
//!   12-bit, mod-4096 sequence space;
//! * [`rate`] — Minstrel-style rate adaptation (the paper keeps each AP's
//!   default rate control; so do we);
//! * [`sender`] — the one sender built from the three above: staged MPDUs
//!   and retries → A-MPDU → Block ACK or timeout → rate feedback → requeue,
//!   run alike by the WGTT AP, the 802.11r AP and a client's uplink;
//! * [`downlink`] — an AP's per-client table of senders with its
//!   round-robin pick and refill-then-build, run alike by both AP kinds
//!   over their own per-client feed;
//! * [`medium`] — a slotted CSMA/CA single-channel medium with collision
//!   detection and capture, shared by all APs and clients (the testbed
//!   runs every AP on channel 11).
//!
//! The queue above the NIC is each AP kind's own feed: the WGTT-specific
//! *cyclic* queue in the `wgtt` core crate, and the 802.11r AP's
//! drop-tail mac80211 FIFO of paper Fig. 7 in `wgtt-baseline`. The NIC
//! hardware queue below it is the sender's staged MPDUs.
//!
//! Everything is an explicit state machine driven by the caller's event
//! loop; nothing here schedules events itself.

pub mod aggregation;
pub mod airtime;
pub mod blockack;
pub mod downlink;
pub mod frame;
pub mod mcs;
pub mod medium;
pub mod rate;
pub mod sender;
pub mod seq;

pub use frame::{Frame, FrameKind, NodeId, PacketRef};
pub use mcs::Mcs;
pub use medium::{Medium, TxOutcome};
