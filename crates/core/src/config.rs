//! WGTT tunables, with the paper's published defaults.

use crate::selection::SwitchPolicyKind;
use crate::window::WindowReduce;
use wgtt_sim::time::SimDuration;

/// System-wide configuration shared by controller and APs.
#[derive(Debug, Clone, Copy)]
pub struct WgttConfig {
    /// ESNR comparison window *W* (§3.1.1). The paper's emulation sweep
    /// (Fig. 21) finds 10 ms minimizes capacity loss.
    pub selection_window: SimDuration,
    /// How the window reduces to one figure per AP (paper: median).
    pub window_reduce: WindowReduce,
    /// How the reduced candidates become a switch verdict (paper: the
    /// reactive max-median rule; the load-aware alternative is
    /// [`SwitchPolicyKind::LoadAware`]).
    pub switch_policy: SwitchPolicyKind,
    /// Time hysteresis between switches (§5.3.3, Fig. 22). Smaller adapts
    /// faster; 40 ms performs best in the paper's sweep.
    pub switch_hysteresis: SimDuration,
    /// Minimum median-ESNR advantage (dB) a challenger AP needs before a
    /// switch is issued. Sized above the CSI estimation noise so the
    /// selector doesn't ping-pong between statistically indistinguishable
    /// links.
    pub switch_margin_db: f64,
    /// Probability that a control packet (stop/start/ack) is lost on the
    /// backhaul path (drops in the Click user-level forwarding path).
    pub control_loss_prob: f64,
    /// Capacity of the per-source uplink de-duplication window (keys).
    /// It must stay below the 2¹⁶ IP idents one source can use: a filter
    /// that holds every ident never evicts, so once the ident wraps each
    /// fresh packet would hit as a duplicate and be dropped.
    /// [`Controller::new`](crate::Controller::new) rejects 2¹⁶ or more.
    pub dedup_capacity: usize,
    /// Enable §3.2.1 Block ACK forwarding from monitor-mode APs to the
    /// serving AP (the ablation benches turn this off to quantify its
    /// contribution).
    pub enable_ba_forwarding: bool,
}

impl Default for WgttConfig {
    fn default() -> Self {
        WgttConfig {
            selection_window: SimDuration::from_millis(10),
            window_reduce: WindowReduce::Median,
            switch_policy: SwitchPolicyKind::ReactiveMedian,
            switch_hysteresis: SimDuration::from_millis(40),
            switch_margin_db: 2.5,
            control_loss_prob: 0.001,
            dedup_capacity: 1 << 15,
            enable_ba_forwarding: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::BACKHAUL_LATENCY;
    use crate::switching::{START_PROCESSING_MEAN, STOP_PROCESSING_MEAN};

    #[test]
    fn defaults_match_paper() {
        let c = WgttConfig::default();
        assert_eq!(c.selection_window, SimDuration::from_millis(10));
        assert_eq!(c.switch_policy, SwitchPolicyKind::ReactiveMedian);
        assert!(BACKHAUL_LATENCY < SimDuration::from_millis(1));
        // Table 1: protocol execution ≈ 17–21 ms ≈ stop + start processing
        // plus three backhaul hops.
        let proto_ms = (STOP_PROCESSING_MEAN + START_PROCESSING_MEAN + BACKHAUL_LATENCY.times(3))
            .as_millis_f64();
        assert!((14.0..24.0).contains(&proto_ms), "{proto_ms} ms");
    }
}
