//! The Fig. 9 deployment: eight APs along a side road, and client drive
//! plans.
//!
//! The paper deploys eight APs in third-floor windows overlooking a road
//! with a 25 mph limit; adjacent coverage overlaps by 6–10 m (Fig. 10),
//! with a *denser* group (AP2–AP4) and a *sparser* group (AP5–AP7) that
//! §5.3.4 compares. Clients drive along the road in either direction at
//! 5–35 mph, singly or in the §5.2.2 multi-client patterns (following at
//! 3 m spacing, parallel, opposing).

use wgtt_mac::frame::NodeId;
use wgtt_radio::fading::{self, FadingProcess};
use wgtt_radio::link::{Link, LinkSite};
use wgtt_radio::{ParabolicAntenna, PathLossModel, Position};
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::{SimDuration, SimTime};

/// Metres per second per mile-per-hour.
pub const MPH: f64 = 0.44704;

/// Distance from the AP building line to the near lane, metres.
pub const ROAD_OFFSET_M: f64 = 12.0;

/// Rician K-factor of every link's first tap, dB: the open-road
/// mainlobe's line of sight. [`TestbedConfig::link`] draws with it and
/// [`TestbedConfig::site`]'s ceilings bound with it.
pub(crate) const RICIAN_K_DB: f64 = 9.0;

/// Travel direction along the road.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Increasing x.
    East,
    /// Decreasing x.
    West,
}

/// An optional mid-drive stop (traffic light / congestion): the car
/// halts when it reaches `at_x` and resumes after `pause_s` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopAndGo {
    /// Along-road coordinate where the car stops, metres.
    pub at_x: f64,
    /// Pause duration, seconds.
    pub pause_s: f64,
}

/// One client's drive plan: straight-line constant-speed motion, with an
/// optional stop-and-go pause and an optional shuttle route.
#[derive(Debug, Clone, Copy)]
pub struct ClientPlan {
    /// Position at t = 0, metres.
    pub start: Position,
    /// Speed, m/s (0 allowed: parked client).
    pub speed_mps: f64,
    /// Travel direction.
    pub direction: Direction,
    /// Optional mid-drive stop.
    pub stop: Option<StopAndGo>,
    /// Shuttle route bounds `(west_x, east_x)`: instead of driving off
    /// to infinity, the vehicle turns around at each bound (a transit
    /// vehicle working a corridor). `None` = the paper's one-way
    /// drive-by. The stop-and-go pause, if any, applies on the first
    /// approach only.
    pub shuttle: Option<(f64, f64)>,
}

impl ClientPlan {
    /// A drive past the whole array at `speed_mph`, starting west of the
    /// first AP in the near lane.
    pub fn drive_by(speed_mph: f64) -> Self {
        ClientPlan {
            start: Position::new(-15.0, 0.0),
            speed_mps: speed_mph * MPH,
            direction: Direction::East,
            stop: None,
            shuttle: None,
        }
    }

    /// A drive-by with a stop-and-go pause at `at_x` for `pause_s`
    /// seconds (the traffic-light scenario).
    pub fn stop_and_go(speed_mph: f64, at_x: f64, pause_s: f64) -> Self {
        ClientPlan {
            stop: Some(StopAndGo { at_x, pause_s }),
            ..Self::drive_by(speed_mph)
        }
    }

    /// Same drive delayed by `gap_m` metres behind another car (the
    /// "following at 3 m spacing" pattern).
    pub fn following(speed_mph: f64, gap_m: f64) -> Self {
        ClientPlan {
            start: Position::new(-15.0 - gap_m, 0.0),
            speed_mps: speed_mph * MPH,
            direction: Direction::East,
            stop: None,
            shuttle: None,
        }
    }

    /// Parallel car in the far lane, side by side.
    pub fn parallel(speed_mph: f64) -> Self {
        ClientPlan {
            start: Position::new(-15.0, -3.5),
            speed_mps: speed_mph * MPH,
            direction: Direction::East,
            stop: None,
            shuttle: None,
        }
    }

    /// Opposing-direction car in the far lane, starting east of the
    /// array.
    pub fn opposing(speed_mph: f64, road_len: f64) -> Self {
        ClientPlan {
            start: Position::new(road_len + 15.0, -3.5),
            speed_mps: speed_mph * MPH,
            direction: Direction::West,
            stop: None,
            shuttle: None,
        }
    }

    /// Position at simulation time `t`.
    pub fn position_at(&self, t: SimTime) -> Position {
        let mut travel = t.as_secs_f64() * self.speed_mps;
        if let Some(stop) = self.stop {
            // Distance from start to the stop point along the travel
            // direction (only a stop ahead of the start applies).
            let to_stop = match self.direction {
                Direction::East => stop.at_x - self.start.x,
                Direction::West => self.start.x - stop.at_x,
            };
            if to_stop > 0.0 && self.speed_mps > 0.0 && travel > to_stop {
                let pause_travel = stop.pause_s * self.speed_mps;
                travel = if travel <= to_stop + pause_travel {
                    to_stop // parked at the stop line
                } else {
                    travel - pause_travel
                };
            }
        }
        let x = match self.direction {
            Direction::East => self.start.x + travel,
            Direction::West => self.start.x - travel,
        };
        Position::new(self.fold_shuttle(x), self.start.y)
    }

    /// Reflect an unbounded along-road coordinate into the shuttle
    /// bounds (triangle wave: the vehicle turns around at each end).
    fn fold_shuttle(&self, x: f64) -> f64 {
        let Some((lo, hi)) = self.shuttle else {
            return x;
        };
        let span = hi - lo;
        if span <= 0.0 {
            return lo;
        }
        let period = 2.0 * span;
        let mut u = (x - lo) % period;
        if u < 0.0 {
            u += period;
        }
        lo + if u <= span { u } else { period - u }
    }

    /// Time to traverse `dist` metres (`None` for a parked client).
    pub fn time_to_cover(&self, dist: f64) -> Option<SimDuration> {
        if self.speed_mps <= 0.0 {
            None
        } else {
            Some(SimDuration::from_secs_f64(dist / self.speed_mps))
        }
    }
}

/// Deployment + drive configuration for one run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// AP x-coordinates along the road (all at `y = ROAD_OFFSET_M`).
    pub ap_x: Vec<f64>,
    /// Per-AP wireless channel (empty = everything on channel 0, the
    /// paper's single-channel deployment; the §7 multi-channel extension
    /// alternates channels between adjacent APs).
    pub ap_channels: Vec<u8>,
    /// Client drive plans.
    pub clients: Vec<ClientPlan>,
    /// NodeId of the first AP in this config. A monolithic world always
    /// uses 0; a spatial shard of a larger corridor keeps its APs'
    /// *global* ids by offsetting into the fleet-wide id space, so a
    /// sharded run and the monolithic oracle agree on every id-keyed
    /// observable.
    pub ap_id_offset: u32,
    /// Explicit NodeId for the first client (`None` = the historical
    /// `100.max(n_aps)` rule). Shards of a larger corridor pass the
    /// fleet-wide base plus their first global vehicle index.
    pub client_id_first: Option<u32>,
    /// Global index of the first client in this config (0 for monolithic
    /// worlds). Per-vehicle RNG streams, IP addresses and keepalive
    /// staggering key off the global index, never the local one.
    pub client_index_offset: usize,
}

impl TestbedConfig {
    /// The paper's eight-AP roadside array: a dense group (AP1–AP4,
    /// 6 m spacing) and a sparser group (AP5–AP8, 9 m spacing). Coverage
    /// overlaps everywhere (Fig. 10 shows 6–10 m overlaps with no dead
    /// zones), with the dense/sparse contrast §5.3.4 compares.
    pub fn paper_array() -> Self {
        TestbedConfig {
            ap_x: vec![0.0, 6.0, 12.0, 18.0, 26.0, 35.0, 44.0, 53.0],
            ap_channels: Vec::new(),
            clients: Vec::new(),
            ap_id_offset: 0,
            client_id_first: None,
            client_index_offset: 0,
        }
    }

    /// The §7 multi-channel variant: adjacent APs alternate between two
    /// channels (interference avoidance at the cost of overhearing).
    pub fn paper_array_dual_channel() -> Self {
        let mut cfg = Self::paper_array();
        cfg.ap_channels = (0..cfg.ap_x.len()).map(|i| (i % 2) as u8).collect();
        cfg
    }

    /// The two-AP §2 motivation testbed (7.5 m apart).
    pub fn two_ap() -> Self {
        TestbedConfig {
            ap_x: vec![0.0, 7.5],
            ap_channels: Vec::new(),
            clients: Vec::new(),
            ap_id_offset: 0,
            client_id_first: None,
            client_index_offset: 0,
        }
    }

    /// Attach client plans.
    pub fn with_clients(mut self, clients: Vec<ClientPlan>) -> Self {
        self.clients = clients;
        self
    }

    /// AP positions on the plane.
    pub fn ap_positions(&self) -> Vec<Position> {
        self.ap_x
            .iter()
            .map(|&x| Position::new(x, ROAD_OFFSET_M))
            .collect()
    }

    /// What every link of the AP at local index `aui` shares: geometry
    /// and the fading's peak gain at [`RICIAN_K_DB`], no realization.
    /// Every antenna faces the road (boresight −π/2).
    pub(crate) fn site(&self, aui: usize) -> LinkSite {
        LinkSite::new(
            Position::new(self.ap_x[aui], ROAD_OFFSET_M),
            -std::f64::consts::FRAC_PI_2,
            ParabolicAntenna::laird_gd24bp(),
            PathLossModel::roadside(),
            fading::peak_gain_db(RICIAN_K_DB),
        )
    }

    /// The radio link between the AP at local index `aui` and client
    /// `ci`: the one place this crate builds a [`Link`]. Its fading
    /// stream derives from `links` (the seed's `"link"` stream) by the
    /// pair's *global* AP id and client index, so a shard and the
    /// monolithic world, or a world and a bare radio sample, realize the
    /// same channel. Rician K is [`RICIAN_K_DB`], and a parked client
    /// fades as if moving at 0.3 m/s.
    pub(crate) fn link(&self, links: &RngStream, aui: usize, ci: usize) -> Link {
        let stream = links
            .derive_indexed("ap", u64::from(self.ap_id_offset) + aui as u64)
            .derive_indexed("client", (self.client_index_offset + ci) as u64);
        let speed_mps = self.clients[ci].speed_mps.max(0.3);
        self.site(aui)
            .link(FadingProcess::new(stream, speed_mps, RICIAN_K_DB))
    }

    /// Whether `id` names one of this array's APs.
    pub(crate) fn is_ap(&self, id: NodeId) -> bool {
        id.0 >= self.ap_id_offset && ((id.0 - self.ap_id_offset) as usize) < self.ap_x.len()
    }

    /// Local index of an AP in the per-AP vectors (AP ids are global;
    /// a shard's vectors cover only its own slice of the corridor).
    pub(crate) fn ap_index(&self, ap: NodeId) -> usize {
        debug_assert!(self.is_ap(ap), "ap_index on non-AP id {ap:?}");
        (ap.0 - self.ap_id_offset) as usize
    }

    /// Global NodeId of the AP at local index `aui`.
    pub(crate) fn ap_id(&self, aui: usize) -> NodeId {
        NodeId(self.ap_id_offset + aui as u32)
    }

    /// The first client id of a corridor of `n_aps` APs that names none:
    /// 100, as every paper-scale world has it, pushed up to the AP count
    /// for corridors of 100 APs or more, so that client ids never alias
    /// AP ids (`is_ap` is an id-range test).
    pub(crate) fn first_client_id(n_aps: usize) -> u32 {
        100u32.max(n_aps as u32)
    }

    /// Global NodeId of the client at local index `ci`: from
    /// `client_id_first`, or [`TestbedConfig::first_client_id`] of this
    /// array.
    pub(crate) fn client_id(&self, ci: usize) -> NodeId {
        let by_rule = || Self::first_client_id(self.ap_x.len());
        NodeId(self.client_id_first.unwrap_or_else(by_rule) + ci as u32)
    }

    /// Local index of a client in the per-client vectors.
    pub(crate) fn client_index(&self, id: NodeId) -> usize {
        let first = self.client_id(0).0;
        debug_assert!(id.0 >= first, "client_index on non-client id {id:?}");
        id.0.saturating_sub(first) as usize
    }

    /// Where the client `id`'s plan puts it at `t`.
    pub(crate) fn client_pos(&self, id: NodeId, t: SimTime) -> Position {
        self.clients[self.client_index(id)].position_at(t)
    }

    /// Road length covered by the array (first to last AP).
    pub fn road_len(&self) -> f64 {
        match (self.ap_x.first(), self.ap_x.last()) {
            (Some(&a), Some(&b)) => b - a,
            _ => 0.0,
        }
    }

    /// Time for `plan` to transit from its start past the last AP plus a
    /// 15 m tail.
    pub fn transit_time(&self, plan: &ClientPlan) -> Option<SimDuration> {
        let total = self.road_len() + 30.0 + 15.0;
        plan.time_to_cover(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mph_conversion() {
        assert!((15.0 * MPH - 6.7056).abs() < 1e-9);
    }

    #[test]
    fn drive_by_moves_east() {
        let p = ClientPlan::drive_by(15.0);
        let a = p.position_at(SimTime::ZERO);
        let b = p.position_at(SimTime::from_secs(1));
        assert!((b.x - a.x - 15.0 * MPH).abs() < 1e-9);
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn opposing_moves_west() {
        let p = ClientPlan::opposing(15.0, 58.0);
        let a = p.position_at(SimTime::ZERO);
        let b = p.position_at(SimTime::from_secs(1));
        assert!(b.x < a.x);
    }

    #[test]
    fn parked_client_stays() {
        let p = ClientPlan {
            start: Position::new(3.0, 0.0),
            speed_mps: 0.0,
            direction: Direction::East,
            stop: None,
            shuttle: None,
        };
        assert_eq!(p.position_at(SimTime::from_secs(100)), p.start);
        assert!(p.time_to_cover(10.0).is_none());
    }

    #[test]
    fn paper_array_shape() {
        let t = TestbedConfig::paper_array();
        assert_eq!(t.ap_x.len(), 8);
        assert_eq!(t.road_len(), 53.0);
        // Dense group spacing < sparse group spacing.
        let dense = t.ap_x[1] - t.ap_x[0];
        let sparse = t.ap_x[5] - t.ap_x[4];
        assert!(dense < sparse);
        // All APs sit on the building line.
        for p in t.ap_positions() {
            assert_eq!(p.y, ROAD_OFFSET_M);
        }
    }

    #[test]
    fn transit_time_scales_inversely_with_speed() {
        let t = TestbedConfig::paper_array();
        let slow = t.transit_time(&ClientPlan::drive_by(5.0)).unwrap();
        let fast = t.transit_time(&ClientPlan::drive_by(25.0)).unwrap();
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!((ratio - 5.0).abs() < 1e-9);
    }

    #[test]
    fn stop_and_go_pauses_then_resumes() {
        let p = ClientPlan::stop_and_go(15.0, 10.0, 5.0);
        let v = p.speed_mps;
        let t_reach = 25.0 / v; // start.x = −15 → 25 m to the stop line
                                // Before the stop: moving.
        let before = p.position_at(SimTime::from_secs_f64(t_reach - 1.0));
        assert!(before.x < 10.0);
        // During the pause: parked at the stop line.
        let during = p.position_at(SimTime::from_secs_f64(t_reach + 2.0));
        assert!((during.x - 10.0).abs() < 1e-6, "x = {}", during.x);
        // After: resumed, offset by exactly the pause.
        let after = p.position_at(SimTime::from_secs_f64(t_reach + 5.0 + 2.0));
        assert!((after.x - (10.0 + 2.0 * v)).abs() < 1e-6, "x = {}", after.x);
    }

    #[test]
    fn dual_channel_alternates() {
        let t = TestbedConfig::paper_array_dual_channel();
        assert_eq!(t.ap_channels, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn following_keeps_gap() {
        let lead = ClientPlan::drive_by(15.0);
        let tail = ClientPlan::following(15.0, 3.0);
        for s in 0..10 {
            let t = SimTime::from_secs(s);
            let gap = lead.position_at(t).x - tail.position_at(t).x;
            assert!((gap - 3.0).abs() < 1e-9);
        }
    }
}
