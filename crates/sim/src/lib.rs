//! # wgtt-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the Wi-Fi Goes to Town (SIGCOMM 2017)
//! reproduction. Every higher layer — the wireless channel, the 802.11 MAC,
//! the packet substrate, the WGTT controller itself — is written as a set of
//! explicit state machines driven by a single time-ordered event queue
//! provided here.
//!
//! Design goals, in the spirit of event-driven network stacks such as
//! smoltcp:
//!
//! * **Determinism.** A simulation is a pure function of its configuration
//!   and a `u64` seed. All randomness flows from [`rng::Xoshiro256`]
//!   streams derived with [`rng::RngStream`], so results are bit-identical
//!   across runs, platforms, and dependency upgrades (we deliberately do not
//!   use `rand::SmallRng`, whose algorithm is not stability-guaranteed).
//! * **No hidden machinery.** The kernel is a binary heap plus a nanosecond
//!   clock. There is no async runtime: the guides this project follows are
//!   explicit that CPU-bound simulation is not an async workload.
//! * **Observability.** [`metrics`] offers time series, histograms, and
//!   windowed-rate recorders used by the experiment harness to regenerate
//!   every figure and table of the paper.
//!
//! The generic event type keeps this crate independent of the layers above:
//! each scenario defines its own event enum and drives
//! [`queue::EventQueue`] in a `while let Some(..) = queue.pop()` loop.

pub mod hash;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod sketch;
pub mod time;

pub use queue::EventQueue;
pub use rng::{RngStream, Xoshiro256};
pub use time::{SimDuration, SimTime};
