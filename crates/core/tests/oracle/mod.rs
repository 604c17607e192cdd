//! The seed implementations of the window, the selector and the
//! controller, kept verbatim as the oracles the property suites
//! difference the shipping `wgtt` types against. They live here, not in
//! `crates/core/src`, because only tests read them: each suite pulls the
//! module in with `mod oracle;`, and they use nothing but `wgtt`'s public
//! API.
//!
//! Do not optimize these; their value is that they stay simple and
//! obviously paper-shaped.

// Every suite compiles the whole module and uses its own subset.
#![allow(dead_code)]

pub mod controller;
pub mod selection;
pub mod window;
