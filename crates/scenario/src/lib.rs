//! # wgtt-scenario — end-to-end testbed scenarios
//!
//! The event-driven world that glues every substrate together into the
//! paper's Fig. 9 deployment: eight roadside APs on one 2.4 GHz channel,
//! an Ethernet backhaul to a controller (or a plain distribution system
//! for the baseline), and clients driving past at 0–35 mph carrying UDP,
//! TCP, and application workloads.
//!
//! * [`testbed`] — deployment geometry and client mobility;
//! * [`world`] — the discrete-event simulation: medium access, A-MPDU
//!   exchanges, Block ACK responses and forwarding, CSI reporting, the
//!   switching protocol in flight, and the baseline's beacon/roam
//!   machinery — all on one deterministic event queue; the traffic it
//!   carries (`flows`: both ends of every UDP, TCP and conference flow)
//!   is a private module beside it, `FlowSpec` re-exported from here;
//! * [`decide`] — the frame path's threshold tests (delivery rolls,
//!   capture) settled from provable bounds before the channel is
//!   synthesized, byte-identically;
//! * [`experiments`] — one driver per table/figure of the paper's
//!   evaluation, each returning printable rows (see DESIGN.md §4 for the
//!   index);
//! * [`fleet`] — the parametric fleet-scale corridor generator (hundreds
//!   of vehicles, dozens of APs) and its aggregate report;
//! * [`shard`] — the sharded parallel engine: spatial districts on a
//!   scoped-thread pool, proven shard-count-invariant against the
//!   sequential world by a differential harness;
//! * [`results`] — small formatting helpers for paper-style output.

pub mod decide;
pub mod experiments;
pub mod fleet;
mod flows;
pub mod results;
pub mod shard;
pub mod testbed;
pub mod world;

pub use fleet::{FleetConfig, FleetReport};
pub use testbed::{ClientPlan, Direction, TestbedConfig};
pub use world::{RunReport, SystemKind, World};
