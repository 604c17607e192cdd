//! Shared experiment plumbing: standard drive-through runs.

use crate::testbed::{ClientPlan, TestbedConfig, MPH};
use crate::world::{FlowSpec, SystemKind, World};
use wgtt::WgttConfig;
use wgtt_radio::Position;
use wgtt_sim::time::{SimDuration, SimTime};

/// Coverage begins roughly this many metres before the first AP.
const COVERAGE_LEAD_M: f64 = 8.0;

/// A completed drive-through run plus its measurement window.
pub struct DriveRun {
    /// The finished world (read `world.report`).
    pub world: World,
    /// Traffic/measurement start.
    pub start: SimTime,
    /// Measurement end.
    pub end: SimTime,
}

impl DriveRun {
    /// Mean goodput of flow 0 over the measurement window, Mbit/s.
    pub fn mean_mbps(&self) -> f64 {
        self.world
            .report
            .flow_meters
            .get(&wgtt_net::packet::FlowId(0))
            .map(|m| m.mbps_over(self.start, self.end))
            .unwrap_or(0.0)
    }

    /// Measurement window length.
    pub fn window(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Drive one client past the full eight-AP array at `speed_mph` carrying
/// `spec`; traffic starts as the client enters coverage. A zero speed
/// parks the client inside AP2's cell for 10 s (the "static" point of
/// Fig. 13).
pub fn drive(system: SystemKind, speed_mph: f64, spec: FlowSpec, seed: u64) -> DriveRun {
    drive_multi(system, speed_mph, vec![(0, spec)], 1, seed)
}

/// Like [`drive`] but with `n_clients` in a 3 m-spaced convoy and
/// explicit `(client, spec)` flow attachments.
pub fn drive_multi(
    system: SystemKind,
    speed_mph: f64,
    specs: Vec<(usize, FlowSpec)>,
    n_clients: usize,
    seed: u64,
) -> DriveRun {
    let testbed = TestbedConfig::paper_array();
    let (plans, start, end): (Vec<ClientPlan>, SimTime, SimTime) = if speed_mph <= 0.0 {
        let plan = ClientPlan {
            start: Position::new(12.0, 0.0), // inside AP2's cell
            speed_mps: 0.0,
            direction: crate::testbed::Direction::East,
            stop: None,
            shuttle: None,
        };
        (
            (0..n_clients).map(|_| plan).collect(),
            SimTime::from_millis(200),
            SimTime::from_millis(200) + SimDuration::from_secs(10),
        )
    } else {
        let plans: Vec<ClientPlan> = (0..n_clients)
            .map(|i| ClientPlan::following(speed_mph, 3.0 * i as f64))
            .collect();
        let lead = plans[0];
        // Traffic starts when the lead car is COVERAGE_LEAD_M before AP0.
        let start_dist = (-lead.start.x - COVERAGE_LEAD_M).max(0.0);
        let start = SimTime::from_secs_f64(start_dist / lead.speed_mps);
        // Measure until the *last* car clears the array (+ tail).
        let total = testbed.road_len() + 15.0 + COVERAGE_LEAD_M + 3.0 * n_clients as f64;
        let end = start + SimDuration::from_secs_f64(total / lead.speed_mps);
        (plans, start, end)
    };
    let cfg = testbed.with_clients(plans);
    let mut world = World::new_multi(cfg, system, specs, seed);
    world.traffic_start = start;
    world.run(end.saturating_since(SimTime::ZERO));
    DriveRun { world, start, end }
}

/// WGTT as the paper configured it.
pub fn wgtt() -> SystemKind {
    SystemKind::Wgtt(WgttConfig::default())
}

/// Loss fraction of a UDP flow from its `RunReport::udp_counts` entry
/// (sent, received); zero when nothing was sent. `received` counts copies
/// too, so where copies reach the sink this reads below the true loss.
pub fn udp_loss((sent, recv): (u64, u64)) -> f64 {
    if sent == 0 {
        0.0
    } else {
        1.0 - recv.min(sent) as f64 / sent as f64
    }
}

/// Metres/second for a mph figure (re-export for experiment code).
pub fn mps(speed_mph: f64) -> f64 {
    speed_mph * MPH
}

#[cfg(test)]
mod tests {
    use super::udp_loss;

    #[test]
    fn udp_loss_is_a_fraction_of_what_was_sent() {
        assert!((udp_loss((5, 4)) - 0.2).abs() < 1e-12);
        // Nothing sent is nothing lost, and a copy too many is not a gain.
        assert_eq!(udp_loss((0, 0)), 0.0);
        assert_eq!(udp_loss((2, 3)), 0.0);
    }
}
