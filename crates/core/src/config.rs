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
    /// Retransmit the `stop` control packet if no `ack` arrives within
    /// this timeout (§3.1.2: 30 ms).
    pub switch_ack_timeout: SimDuration,
    /// One-way Ethernet backhaul latency between controller and APs
    /// (the paper's Fig. 3 labels it "< 1 ms").
    pub backhaul_latency: SimDuration,
    /// Mean user/kernel processing delay for a `stop` at the old AP —
    /// the ioctl round trip that queries the first-unsent index plus the
    /// Click user-level handling. Dominates Table 1's 17–21 ms protocol
    /// execution time.
    pub stop_processing_mean: SimDuration,
    /// Mean processing delay for a `start` at the new AP.
    pub start_processing_mean: SimDuration,
    /// Standard deviation applied to both processing delays.
    pub processing_std: SimDuration,
    /// Probability that a control packet (stop/start/ack) is lost on the
    /// backhaul path (drops in the Click user-level forwarding path).
    pub control_loss_prob: f64,
    /// Downlink fan-out liveness grace: if no AP has heard the client for
    /// this long, the controller drops its downlink packets instead of
    /// queueing them toward a dark link (the client is out of coverage).
    pub fanout_grace: SimDuration,
    /// Capacity of the per-source uplink de-duplication window (keys).
    /// It must stay below the 2¹⁶ IP idents one source can use: a filter
    /// that holds every ident never evicts, so once the ident wraps each
    /// fresh packet would hit as a duplicate and be dropped.
    /// [`Controller::new`](crate::Controller::new) rejects 2¹⁶ or more.
    pub dedup_capacity: usize,
    /// Capacity of the NIC staging queue, MPDUs (the hardware backlog the
    /// old AP is allowed to drain during a switch — ≈6 ms of airtime).
    pub nic_queue_mpdus: usize,
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
            switch_ack_timeout: SimDuration::from_millis(30),
            backhaul_latency: SimDuration::from_micros(300),
            stop_processing_mean: SimDuration::from_millis(9),
            start_processing_mean: SimDuration::from_millis(7),
            processing_std: SimDuration::from_millis(2),
            control_loss_prob: 0.001,
            fanout_grace: SimDuration::from_millis(150),
            dedup_capacity: 1 << 15,
            nic_queue_mpdus: 64,
            enable_ba_forwarding: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WgttConfig::default();
        assert_eq!(c.selection_window, SimDuration::from_millis(10));
        assert_eq!(c.switch_policy, SwitchPolicyKind::ReactiveMedian);
        assert_eq!(c.switch_ack_timeout, SimDuration::from_millis(30));
        assert!(c.backhaul_latency < SimDuration::from_millis(1));
        // Table 1: protocol execution ≈ 17–21 ms ≈ stop + start processing
        // plus three backhaul hops.
        let proto_ms =
            (c.stop_processing_mean + c.start_processing_mean + c.backhaul_latency.times(3))
                .as_millis_f64();
        assert!((14.0..24.0).contains(&proto_ms), "{proto_ms} ms");
    }
}
