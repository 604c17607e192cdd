//! # wgtt-baseline — the comparison roaming schemes
//!
//! The paper benchmarks WGTT against **Enhanced 802.11r** (§5.1), its
//! performance-tuned blend of 802.11r fast BSS transition, 802.11k
//! neighbour reports, and centralized-controller WLAN products:
//!
//! 1. every AP beacons each 100 ms; the client tracks per-AP RSSI;
//! 2. the client reassociates to the strongest AP once the current AP's
//!    RSSI falls below a threshold, with a **one second** time
//!    hysteresis;
//! 3. authentication/association state is pre-shared among APs, so the
//!    over-the-air handshake is short.
//!
//! It also models **stock 802.11r** as measured in §2 (Fig. 4): the
//! client will not switch until it has collected a *5 second* history of
//! low RSSI — longer than a 20 mph client spends inside a picocell,
//! which is why the handover fails outright.
//!
//! [`roamer`] is the client-side decision state machine (including the
//! lossy two-frame reassociation exchange); [`ap`] is a conventional
//! 802.11n AP (FIFO queue + A-MPDU/Block ACK + Minstrel). Because
//! association state is pre-shared (3), the wired distribution system
//! learns of a move the instant the client does, so it keeps no state of
//! its own: the scenario forwards each client's downlink to the AP its
//! [`Roamer`] is associated with.

pub mod ap;
pub mod roamer;

pub use ap::BaselineAp;
pub use roamer::{Roamer, RoamerAction, RoamerMode};
