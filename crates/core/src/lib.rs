//! # wgtt — Wi-Fi Goes to Town (SIGCOMM 2017)
//!
//! The paper's primary contribution, as a library: a controller plus AP
//! agents that together deliver downlink traffic to vehicular clients over
//! an array of meter-scale Wi-Fi picocells, switching the serving AP at
//! millisecond granularity.
//!
//! The pieces, mapped to the paper:
//!
//! | Module | Paper section | Mechanism |
//! |---|---|---|
//! | [`selection`] | §3.1.1 | max-median-ESNR AP selection over a sliding window *W* (Fig. 6), with the time hysteresis studied in §5.3.3; the verdict is the paper's reactive rule or a load-aware variant ([`SwitchPolicyKind`]) |
//! | [`window`] | §3.1.1 | the sliding window backing [`selection`]: a sorted ring (binary-searched insert and expiry, median and max by index), a compensated running mean, and a reduce memoized until the window changes; equal to the seed's sort-per-query window by property test (the mean within 1e-9) |
//! | [`cyclic`] | §3.1.2, Fig. 7 | per-client cyclic queue with m = 12-bit packet indices, replicated at every in-range AP |
//! | [`switching`] | §3.1.2 | the three-step `stop(c)` → `start(c, k)` → `ack` protocol, 30 ms ack timeout, one outstanding switch |
//! | [`dedup`] | §3.2.2–3.2.3 | controller-side uplink de-duplication on the 48-bit (src IP, IP ident) key |
//! | [`controller`] | §3, Fig. 5 | the control-plane state machine gluing the above together |
//! | [`ap`] | §3.1.2, §3.2.1, §4.3 | the AP data plane: cyclic queue and `stop`/`start` as the feed of the stock AP scheduler (`wgtt_mac::downlink`), the replicated client → serving-AP map (`AssocSync`), Block ACK overhearing and forwarding to the serving AP, control-packet priority |
//!
//! Everything is an explicit, event-loop-agnostic state machine: methods
//! take `now` and yield actions (backhaul messages to deliver, packets
//! for the WAN). The controller appends them to a caller's `Vec`; an AP
//! answers each message with at most one. The `wgtt-scenario` crate owns
//! scheduling, the radio substrate, and the MAC medium.

pub mod ap;
pub mod config;
pub mod controller;
pub mod cyclic;
pub mod dedup;
pub mod messages;
pub mod selection;
pub mod switching;
pub mod timerwheel;
pub mod window;

pub use config::WgttConfig;
pub use controller::{ActionBuf, Controller, ControllerAction};
pub use messages::{BackhaulDest, BackhaulMsg};
pub use selection::{ApLoads, SwitchPolicyKind};
pub use window::WindowReduce;
