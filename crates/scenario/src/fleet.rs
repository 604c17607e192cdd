//! Fleet-scale corridor scenario generator.
//!
//! The paper's testbed is one 8-AP block of one road with one or two
//! cars. A transit *network* is hundreds of vehicles over kilometres of
//! corridor — the deployment the abstract actually argues for. This
//! module generates such corridors from a vehicle count, an AP count and
//! spacing, a per-AP cell radius (which drives the channel reuse plan),
//! a duration and a district count. The traffic is fixed: 20 ± 6 mph,
//! 30 % opposing, 20 % stop-and-go, and a per-vehicle application mix
//! dealt from [`TrafficMix::transit_default`]. Everything derives from
//! one seed through named [`RngStream`]s, so a fleet run is exactly as
//! reproducible as the single-car figures.
//!
//! The companion [`FleetReport`] reduces a run to the aggregates a
//! network operator would watch: per-vehicle p50/p99 PHY bitrate
//! (nearest-rank over every A-MPDU's MCS rate), switch rate
//! per vehicle-minute, and the downlink outage-duration CDF — including
//! vehicles that never received a frame, which report one full-run
//! outage instead of a NaN.

use crate::testbed::{ClientPlan, Direction, StopAndGo, TestbedConfig, MPH};
use crate::world::{EventCounts, FlowSpec, PhyWork, SystemKind, World};
use wgtt_apps::mix::{AppKind, TrafficMix};
use wgtt_mac::frame::NodeId;
use wgtt_radio::Position;
use wgtt_sim::metrics::nearest_rank;
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::SimDuration;

/// Offered load of the telemetry-only uplink (position beacons, fare
/// payments): 64 kbit/s.
const TELEMETRY_MBPS: f64 = 0.064;
/// Streaming-video downlink rate — matches the 720p
/// [`wgtt_apps::video::VideoPlayer`] consumption rate (2.5 Mbit/s).
const VIDEO_MBPS: f64 = 2.5;
/// Web-fetch transfer size — the paper's 2.1 MB eBay homepage
/// ([`wgtt_apps::web::PageLoad`]).
const WEB_BYTES: u64 = 2_100_000;
/// Speed samples are clamped into this band (mph): no parked fleet
/// vehicles, nothing faster than arterial traffic.
const SPEED_CLAMP_MPH: (f64, f64) = (3.0, 60.0);
/// Vehicle speed, mph: mean and standard deviation.
const SPEED_MEAN_MPH: f64 = 20.0;
const SPEED_STD_MPH: f64 = 6.0;
/// Fraction of vehicles travelling the opposite direction in the far
/// lane.
const OPPOSING_FRACTION: f64 = 0.3;
/// Fraction of vehicles that make one stop-and-go pause at a random
/// waypoint along the corridor.
const STOP_AND_GO_FRACTION: f64 = 0.2;
/// Empty road between adjacent districts' AP blocks, metres: clears the
/// 40 m carrier-sense/interference range and the 120 m decode horizon
/// even after the 5 m shuttle tails on each side.
const DISTRICT_GAP_M: f64 = 160.0;
const _: () = assert!(
    DISTRICT_GAP_M >= 150.0,
    "the district gap must clear every radio interaction range \
     (decode horizon + shuttle tails)"
);

/// Parameters of a generated corridor fleet scenario.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of vehicles on the corridor.
    pub n_vehicles: usize,
    /// Number of roadside APs.
    pub n_aps: usize,
    /// Distance between adjacent APs, metres.
    pub ap_spacing_m: f64,
    /// Nominal usable cell radius per AP, metres. Drives the channel
    /// reuse plan: when a cell reaches past the next AP, adjacent APs
    /// alternate channels to trade overhearing for interference (§7).
    pub cell_radius_m: f64,
    /// Run duration.
    pub duration: SimDuration,
    /// Number of spatially separated districts the corridor splits into.
    /// Districts are contiguous AP/vehicle blocks with 160 m of empty
    /// road between them; with the gap wider than every radio
    /// interaction range, districts cannot exchange a single frame,
    /// carrier-sense deferral, or capture event — which is what lets
    /// `scenario::shard` run them on parallel threads with a
    /// bit-identical merged report. `1` (the default) is the classic
    /// unbroken corridor.
    pub districts: usize,
}

impl FleetConfig {
    /// An urban-corridor default at the paper's picocell density: 8 m
    /// AP spacing on one channel (the narrow-beam roadside dishes leave
    /// dead zones between APs spaced much wider than the road offset),
    /// 20 ± 6 mph traffic with 30 % opposing and 20 % stop-and-go, the
    /// default transit application mix, 30 s of simulated time.
    pub fn corridor(n_vehicles: usize, n_aps: usize) -> Self {
        FleetConfig {
            n_vehicles,
            n_aps,
            ap_spacing_m: 8.0,
            cell_radius_m: 8.0,
            duration: SimDuration::from_secs(30),
            districts: 1,
        }
    }

    /// APs per district: contiguous, near-equal blocks (the first
    /// `n_aps % districts` districts take one extra).
    pub fn district_ap_counts(&self) -> Vec<usize> {
        split_counts(self.n_aps, self.districts)
    }

    /// Vehicles per district, blocked the same way as the APs.
    pub fn district_vehicle_counts(&self) -> Vec<usize> {
        split_counts(self.n_vehicles, self.districts)
    }

    /// World x-coordinate of each district's first AP.
    fn district_x0s(&self) -> Vec<f64> {
        let counts = self.district_ap_counts();
        let mut x0 = 0.0;
        let mut out = Vec::with_capacity(counts.len());
        for &c in &counts {
            out.push(x0);
            x0 += self.ap_spacing_m * (c.saturating_sub(1)) as f64 + DISTRICT_GAP_M;
        }
        out
    }

    /// Corridor length covered by the AP array, metres: the district
    /// spans plus the inter-district gaps (identical to the old
    /// `spacing × (n_aps − 1)` for the default single district).
    pub fn road_len(&self) -> f64 {
        let counts = self.district_ap_counts();
        let spans: f64 = counts
            .iter()
            .map(|&c| self.ap_spacing_m * (c.saturating_sub(1)) as f64)
            .sum();
        spans + DISTRICT_GAP_M * (counts.len().saturating_sub(1)) as f64
    }

    /// Channel reuse factor implied by the cell geometry: 1 (single
    /// channel) while cells stay within one AP spacing, otherwise enough
    /// channels that co-channel cells don't overlap, capped at 3 (the
    /// non-overlapping 2.4 GHz set).
    pub fn channel_reuse(&self) -> usize {
        if self.cell_radius_m <= self.ap_spacing_m {
            1
        } else {
            ((self.cell_radius_m / self.ap_spacing_m).ceil() as usize).clamp(2, 3)
        }
    }

    /// Generate the deterministic scenario for `seed`: the testbed
    /// (AP array + per-vehicle drive plans), the application kind dealt
    /// to each vehicle, and the flow attachments realizing those apps.
    ///
    /// Each vehicle consumes its own derived RNG stream, so one
    /// vehicle's conditional draws (stop-and-go waypoint, say) never
    /// shift another vehicle's deal.
    pub fn generate(&self, seed: u64) -> (TestbedConfig, Vec<AppKind>, Vec<(usize, FlowSpec)>) {
        let mut ap_x = Vec::with_capacity(self.n_aps);
        let mut ap_channels = Vec::new();
        let mut clients = Vec::with_capacity(self.n_vehicles);
        let mut kinds = Vec::with_capacity(self.n_vehicles);
        let mut flows = Vec::new();
        for p in self.district_plan(seed) {
            let first_vehicle = p.first_vehicle;
            ap_x.extend_from_slice(&p.cfg.ap_x);
            ap_channels.extend_from_slice(&p.cfg.ap_channels);
            clients.extend_from_slice(&p.cfg.clients);
            kinds.extend(p.kinds);
            flows.extend(p.flows.into_iter().map(|(lv, f)| (first_vehicle + lv, f)));
        }
        let cfg = TestbedConfig {
            ap_x,
            ap_channels,
            clients,
            ap_id_offset: 0,
            // `None` resolves to the same fleet-wide base the district
            // plans bake in, so client ids agree between the monolithic
            // world and the shards.
            client_id_first: None,
            client_index_offset: 0,
        };
        (cfg, kinds, flows)
    }

    /// Generate the per-district decomposition of the scenario: one
    /// self-contained [`TestbedConfig`] per district, carrying globally
    /// consistent AP/client ids and drawing from the same per-vehicle
    /// RNG streams as the monolithic [`FleetConfig::generate`] — which
    /// is in fact implemented as the concatenation of these plans, so
    /// the two can never drift apart.
    pub fn district_plan(&self, seed: u64) -> Vec<DistrictPlan> {
        assert!(self.n_aps >= 2, "a corridor needs at least two APs");
        assert!(self.n_vehicles >= 1, "a fleet needs at least one vehicle");
        assert!(self.districts >= 1, "at least one district");
        assert!(
            self.n_aps >= 2 * self.districts,
            "each district needs at least two APs"
        );
        assert!(
            self.n_vehicles >= self.districts,
            "each district needs at least one vehicle"
        );
        let reuse = self.channel_reuse();
        let ap_counts = self.district_ap_counts();
        let veh_counts = self.district_vehicle_counts();
        let x0s = self.district_x0s();
        // Fleet-wide client-id base: what a monolithic world would pick.
        let client_base = 100u32.max(self.n_aps as u32);
        let root = RngStream::root(seed).derive("fleet");
        let mix = TrafficMix::transit_default();

        let mut plans = Vec::with_capacity(self.districts);
        let mut first_ap = 0usize;
        let mut first_vehicle = 0usize;
        for d in 0..self.districts {
            let n_ap = ap_counts[d];
            let n_veh = veh_counts[d];
            let x0 = x0s[d];
            let d_len = self.ap_spacing_m * (n_ap.saturating_sub(1)) as f64;
            let ap_x: Vec<f64> = (0..n_ap)
                .map(|j| x0 + j as f64 * self.ap_spacing_m)
                .collect();
            let ap_channels: Vec<u8> = if reuse == 1 {
                Vec::new()
            } else {
                // Channels follow the *global* AP index so the reuse
                // pattern is unbroken across district boundaries.
                (0..n_ap).map(|j| ((first_ap + j) % reuse) as u8).collect()
            };
            let mut clients = Vec::with_capacity(n_veh);
            let mut kinds = Vec::with_capacity(n_veh);
            let mut flows = Vec::new();
            for lv in 0..n_veh {
                let vi = first_vehicle + lv;
                let mut rng = root.derive_indexed("vehicle", vi as u64).rng();
                let speed_mph = rng
                    .normal_with(SPEED_MEAN_MPH, SPEED_STD_MPH)
                    .clamp(SPEED_CLAMP_MPH.0, SPEED_CLAMP_MPH.1);
                let opposing = rng.chance(OPPOSING_FRACTION);
                // Vehicles start spread along their district (a fleet in
                // steady state), not clumped at the entrance. The draws
                // are district-relative, so a single-district corridor
                // reproduces the historical sequence bit for bit.
                let start_x = x0 + rng.uniform_range(-5.0, d_len + 5.0);
                let stop = if rng.chance(STOP_AND_GO_FRACTION) {
                    Some(StopAndGo {
                        at_x: x0 + rng.uniform_range(0.0, d_len.max(1.0)),
                        pause_s: rng.uniform_range(5.0, 20.0),
                    })
                } else {
                    None
                };
                let (direction, y) = if opposing {
                    (Direction::West, -3.5)
                } else {
                    (Direction::East, 0.0)
                };
                clients.push(ClientPlan {
                    start: Position::new(start_x, y),
                    speed_mps: speed_mph * MPH,
                    direction,
                    stop,
                    // Transit vehicles work their district, turning
                    // around just past each end, instead of driving off
                    // to infinity (which would leave their last AP
                    // burning airtime at an unreachable client). The
                    // 5 m tails stay inside the end APs' beams — and
                    // inside the district: vehicles never cross the gap,
                    // which is what makes the decomposition exact.
                    shuttle: Some((x0 - 5.0, x0 + d_len + 5.0)),
                });

                let kind = mix.sample(&mut rng);
                kinds.push(kind);
                match kind {
                    AppKind::Video => flows.push((
                        lv,
                        FlowSpec::DownlinkUdp {
                            rate_mbps: VIDEO_MBPS,
                        },
                    )),
                    AppKind::Web => {
                        flows.push((lv, FlowSpec::DownlinkTcpBytes { bytes: WEB_BYTES }));
                    }
                    AppKind::Conference => {
                        flows.push((lv, FlowSpec::DownlinkConference { adaptive: true }));
                        flows.push((lv, FlowSpec::UplinkConference { adaptive: true }));
                    }
                    AppKind::Telemetry => {
                        flows.push((
                            lv,
                            FlowSpec::UplinkUdp {
                                rate_mbps: TELEMETRY_MBPS,
                            },
                        ));
                    }
                }
            }
            plans.push(DistrictPlan {
                cfg: TestbedConfig {
                    ap_x,
                    ap_channels,
                    clients,
                    ap_id_offset: first_ap as u32,
                    client_id_first: Some(client_base + first_vehicle as u32),
                    client_index_offset: first_vehicle,
                },
                kinds,
                flows,
                first_vehicle,
                first_ap,
            });
            first_ap += n_ap;
            first_vehicle += n_veh;
        }
        plans
    }

    /// Build one `World` per district, each covering its own slice of the
    /// corridor with globally consistent ids and RNG streams. These are
    /// what `scenario::shard` advances in parallel.
    pub fn district_worlds(&self, system: SystemKind, seed: u64) -> Vec<(World, Vec<AppKind>)> {
        self.district_plan(seed)
            .into_iter()
            .map(|p| (World::new_multi(p.cfg, system, p.flows, seed), p.kinds))
            .collect()
    }

    /// Build the world for this scenario.
    pub fn build_world(&self, system: SystemKind, seed: u64) -> (World, Vec<AppKind>) {
        let (cfg, kinds, flows) = self.generate(seed);
        (World::new_multi(cfg, system, flows, seed), kinds)
    }

    /// Run the scenario end to end and reduce it to fleet aggregates.
    pub fn run(&self, system: SystemKind, seed: u64) -> FleetReport {
        let (mut world, kinds) = self.build_world(system, seed);
        world.run(self.duration);
        FleetReport::from_world(&world, &kinds, self)
    }
}

/// One spatial district of a corridor scenario: a self-contained
/// [`TestbedConfig`] (global AP/client ids via its offset fields) plus
/// the app deal and flows of the vehicles that live in it. Flow entries
/// are keyed by *district-local* vehicle index, ready for
/// [`World::new_multi`].
#[derive(Debug, Clone)]
pub struct DistrictPlan {
    /// The district's testbed.
    pub cfg: TestbedConfig,
    /// App kind per district vehicle, in local vehicle order.
    pub kinds: Vec<AppKind>,
    /// Flows keyed by district-local vehicle index.
    pub flows: Vec<(usize, FlowSpec)>,
    /// Global index of the district's first vehicle.
    pub first_vehicle: usize,
    /// Global index of the district's first AP.
    pub first_ap: usize,
}

/// `n` split into `d` contiguous near-equal blocks (earlier blocks take
/// the remainder).
fn split_counts(n: usize, d: usize) -> Vec<usize> {
    (0..d).map(|i| n / d + usize::from(i < n % d)).collect()
}

/// Per-vehicle reduction of a fleet run.
#[derive(Debug, Clone)]
pub struct VehicleStats {
    /// The vehicle's client node id.
    pub client: NodeId,
    /// The application dealt to this vehicle.
    pub kind: AppKind,
    /// Whether the vehicle's app has a downlink component (outage is
    /// only defined for these).
    pub has_downlink: bool,
    /// Median delivered PHY bitrate (Mbit/s), `None` if no frame was
    /// ever transmitted to this vehicle.
    pub bitrate_p50_mbps: Option<f64>,
    /// 99th-percentile delivered PHY bitrate (Mbit/s).
    pub bitrate_p99_mbps: Option<f64>,
    /// Total downlink outage time, seconds.
    pub outage_s: f64,
    /// Number of distinct outages.
    pub outages: u64,
    /// A downlink vehicle that never decoded a single frame: the whole
    /// run is one outage.
    pub full_outage: bool,
}

/// Fleet-level aggregates of one corridor run.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Vehicles simulated.
    pub vehicles: usize,
    /// APs deployed.
    pub aps: usize,
    /// Simulated duration.
    pub duration: SimDuration,
    /// One entry per vehicle, in vehicle-index order.
    pub per_vehicle: Vec<VehicleStats>,
    /// Completed AP switches across the fleet.
    pub switches: u64,
    /// Switches per vehicle-minute — the operator's roaming-churn rate.
    pub switch_rate_per_vehicle_minute: f64,
    /// High-water mark of concurrent clients on any single AP — the
    /// congestion figure the load-aware policy exists to reduce.
    pub max_ap_load: u64,
    /// Downlink outage durations pooled across all downlink vehicles as
    /// `(seconds, cumulative_fraction)` pairs; full-outage vehicles
    /// contribute one full-run sample each.
    pub outage_cdf: Vec<(f64, f64)>,
    /// Downlink vehicles that never decoded a frame.
    pub full_outage_vehicles: usize,
    /// Events handled by the run (macro-bench numerator).
    pub events_handled: u64,
    /// Frames that completed on the air (macro-bench numerator).
    pub frames_on_air: u64,
    /// `events_handled` by kind (see [`EventCounts`]). Like the event
    /// count, a property of the engine rather than of the physics, so
    /// it stays outside [`FleetReport::equivalence_digest`].
    pub events: EventCounts,
    /// PHY work counters (see [`PhyWork`]); outside the digest for the
    /// same reason.
    pub phy: PhyWork,
    /// Robustness counters (normally zero; see `RunReport`).
    pub backhaul_misaddressed: u64,
    /// Delivered-frame refs that no longer resolved (normally zero).
    pub missing_packet_refs: u64,
}

impl FleetReport {
    /// Reduce a finished world into fleet aggregates.
    pub fn from_world(world: &World, kinds: &[AppKind], cfg: &FleetConfig) -> Self {
        let report = &world.report;
        let ids = world.client_ids();
        assert_eq!(ids.len(), kinds.len(), "one app kind per vehicle");

        let mut per_vehicle = Vec::with_capacity(ids.len());
        let mut outage_samples: Vec<f64> = Vec::new();
        let mut full_outage_vehicles = 0;
        let dur_s = cfg.duration.as_secs_f64();
        for (&client, &kind) in ids.iter().zip(kinds) {
            let has_downlink = kind != AppKind::Telemetry;
            let bitrate = report.bitrate_series.get(&client);
            let bitrate_p50_mbps = bitrate.and_then(|d| d.quantile(0.5));
            let bitrate_p99_mbps = bitrate.and_then(|d| d.quantile(0.99));
            let mut outage_s = 0.0;
            let mut outages = 0u64;
            let mut full_outage = false;
            if has_downlink {
                if report.last_delivery.contains_key(&client) {
                    if let Some(d) = report.outage_durations.get(&client) {
                        // The CDF is one point per sample, so it
                        // doubles as a raw-sample view.
                        for (v, _) in d.cdf() {
                            outage_s += v;
                            outages += 1;
                            outage_samples.push(v);
                        }
                    }
                } else {
                    // Never decoded a frame: one full-run outage, not
                    // a NaN from dividing by zero deliveries.
                    full_outage = true;
                    full_outage_vehicles += 1;
                    outage_s = dur_s;
                    outages = 1;
                    outage_samples.push(dur_s);
                }
            }
            per_vehicle.push(VehicleStats {
                client,
                kind,
                has_downlink,
                bitrate_p50_mbps,
                bitrate_p99_mbps,
                outage_s,
                outages,
                full_outage,
            });
        }

        FleetReport {
            aps: cfg.n_aps,
            duration: cfg.duration,
            per_vehicle,
            switches: report.switches,
            max_ap_load: report.max_ap_load,
            full_outage_vehicles,
            events_handled: report.events_handled,
            frames_on_air: report.frames_on_air,
            events: report.events,
            phy: report.phy,
            backhaul_misaddressed: report.backhaul_misaddressed,
            missing_packet_refs: report.missing_packet_refs,
            ..FleetReport::default()
        }
        .finish(outage_samples)
    }

    /// Merge per-district reports into the fleet-wide report, exactly as
    /// [`FleetReport::from_world`] would have reduced the monolithic
    /// world: `per_vehicle` concatenates in district order (= global
    /// vehicle order, since vehicle blocks are contiguous), counters
    /// sum, and `FleetReport::finish` derives the rest from the pooled
    /// values as it does for one world.
    pub fn merge(parts: Vec<FleetReport>, cfg: &FleetConfig) -> FleetReport {
        assert!(!parts.is_empty(), "merge needs at least one district");
        let mut out = FleetReport {
            aps: cfg.n_aps,
            duration: cfg.duration,
            ..FleetReport::default()
        };
        let mut outage_samples: Vec<f64> = Vec::new();
        for p in parts {
            // The exact per-district CDF is one point per sample, so it
            // doubles as the raw pooled-sample view.
            outage_samples.extend(p.outage_cdf.iter().map(|&(v, _)| v));
            out.per_vehicle.extend(p.per_vehicle);
            out.switches += p.switches;
            // Max-of-parts is exact: clients never cross the district
            // gap, so no AP's concurrent load mixes districts.
            out.max_ap_load = out.max_ap_load.max(p.max_ap_load);
            out.full_outage_vehicles += p.full_outage_vehicles;
            out.events_handled += p.events_handled;
            out.frames_on_air += p.frames_on_air;
            out.events += p.events;
            out.phy += p.phy;
            out.backhaul_misaddressed += p.backhaul_misaddressed;
            out.missing_packet_refs += p.missing_packet_refs;
        }
        out.finish(outage_samples)
    }

    /// Derive the vehicle count, the switch rate and the pooled outage
    /// CDF from the per-vehicle entries, counters and outage samples of
    /// one world or of several districts (the sort is stable, so ties
    /// keep global vehicle order either way).
    fn finish(mut self, mut outage_samples: Vec<f64>) -> FleetReport {
        outage_samples.sort_by(|a, b| a.partial_cmp(b).expect("outage is never NaN"));
        let n = outage_samples.len() as f64;
        self.outage_cdf = outage_samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect();
        self.vehicles = self.per_vehicle.len();
        let vehicle_minutes = self.vehicles as f64 * self.duration.as_secs_f64() / 60.0;
        self.switch_rate_per_vehicle_minute = if vehicle_minutes > 0.0 {
            self.switches as f64 / vehicle_minutes
        } else {
            0.0
        };
        self
    }

    /// A bit-stable rendering of every aggregate *except*
    /// `events_handled` (floats via `to_bits`, so equality means bit
    /// identity). The sharded engine and the monolithic oracle handle
    /// legitimately different event *counts* — each shard runs its own
    /// mobility/sample/poll chains — while every physical observable
    /// must match exactly; worker-count invariance additionally holds
    /// for the full report including `events_handled`.
    pub fn equivalence_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "vehicles={} aps={} dur={:016x} switches={} maxload={} rate={:016x} cdf_n={} \
             full_outage={} frames={} misaddr={} missing={}",
            self.vehicles,
            self.aps,
            self.duration.as_secs_f64().to_bits(),
            self.switches,
            self.max_ap_load,
            self.switch_rate_per_vehicle_minute.to_bits(),
            self.outage_cdf.len(),
            self.full_outage_vehicles,
            self.frames_on_air,
            self.backhaul_misaddressed,
            self.missing_packet_refs,
        );
        for v in &self.per_vehicle {
            let _ = write!(
                s,
                "|{} {:?} {} {:?} {:?} {:016x} {} {}",
                v.client.0,
                v.kind,
                v.has_downlink,
                v.bitrate_p50_mbps.map(f64::to_bits),
                v.bitrate_p99_mbps.map(f64::to_bits),
                v.outage_s.to_bits(),
                v.outages,
                v.full_outage,
            );
        }
        for &(v, f) in &self.outage_cdf {
            let _ = write!(s, "|{:016x},{:016x}", v.to_bits(), f.to_bits());
        }
        s
    }

    /// Quantile of the pooled per-vehicle statistic `f` across vehicles
    /// that have one (nearest-rank).
    fn quantile_of(&self, q: f64, f: impl Fn(&VehicleStats) -> Option<f64>) -> Option<f64> {
        let mut vals: Vec<f64> = self.per_vehicle.iter().filter_map(f).collect();
        let idx = nearest_rank(vals.len(), q)?;
        vals.sort_by(|a, b| a.partial_cmp(b).expect("stat is never NaN"));
        Some(vals[idx])
    }

    /// Fleet quantile of the per-vehicle *median* bitrates.
    pub fn fleet_bitrate_p50(&self, q: f64) -> Option<f64> {
        self.quantile_of(q, |v| v.bitrate_p50_mbps)
    }

    /// Fleet quantile of the per-vehicle *p99* bitrates.
    pub fn fleet_bitrate_p99(&self, q: f64) -> Option<f64> {
        self.quantile_of(q, |v| v.bitrate_p99_mbps)
    }

    /// Quantile of the pooled outage-duration samples.
    pub fn outage_quantile(&self, q: f64) -> Option<f64> {
        let idx = nearest_rank(self.outage_cdf.len(), q)?;
        Some(self.outage_cdf[idx].0)
    }

    /// Total downlink outage time (s) contributed by outages lasting at
    /// least `threshold_s` — e.g. `outage_time_over(0.2)` is the
    /// user-visible stall budget (gaps short enough to hide inside a
    /// player buffer are excluded).
    pub fn outage_time_over(&self, threshold_s: f64) -> f64 {
        self.outage_cdf
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| v >= threshold_s)
            .sum()
    }

    /// Fraction of downlink vehicles whose whole run was one outage.
    pub fn full_outage_fraction(&self) -> f64 {
        let dl = self.per_vehicle.iter().filter(|v| v.has_downlink).count();
        if dl == 0 {
            0.0
        } else {
            self.full_outage_vehicles as f64 / dl as f64
        }
    }

    /// A compact single-line digest (the CLI and smoke test print it).
    pub fn digest(&self) -> String {
        format!(
            "vehicles={} aps={} dur={:.0}s events={} frames={} switches={} \
             switch_rate={:.2}/veh-min max_ap_load={} bitrate_p50[p50]={} outage_p99={} \
             full_outage={}",
            self.vehicles,
            self.aps,
            self.duration.as_secs_f64(),
            self.events_handled,
            self.frames_on_air,
            self.switches,
            self.switch_rate_per_vehicle_minute,
            self.max_ap_load,
            fmt_opt(self.fleet_bitrate_p50(0.5)),
            fmt_opt(self.outage_quantile(0.99)),
            self.full_outage_vehicles,
        )
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.2}"),
        None => "none".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt::WgttConfig;

    #[test]
    fn generate_is_deterministic_and_sized() {
        let cfg = FleetConfig::corridor(24, 12);
        let (t1, k1, f1) = cfg.generate(9);
        let (t2, k2, f2) = cfg.generate(9);
        assert_eq!(t1.ap_x, t2.ap_x);
        assert_eq!(k1, k2);
        assert_eq!(f1.len(), f2.len());
        assert_eq!(t1.clients.len(), 24);
        assert_eq!(t1.ap_x.len(), 12);
        // Paper-density default: cells fit the spacing, one channel.
        assert_eq!(cfg.channel_reuse(), 1);
        assert!(t1.ap_channels.is_empty());
        // A different seed deals a different fleet.
        let (_, k3, _) = cfg.generate(10);
        assert_ne!(k1, k3);
    }

    #[test]
    fn wide_cells_alternate_channels() {
        let mut cfg = FleetConfig::corridor(4, 12);
        cfg.cell_radius_m = 2.0 * cfg.ap_spacing_m;
        assert_eq!(cfg.channel_reuse(), 2);
        let (t, _, _) = cfg.generate(1);
        assert_eq!(t.ap_channels, vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn every_vehicle_gets_at_least_one_flow() {
        let cfg = FleetConfig::corridor(40, 8);
        let (_, kinds, flows) = cfg.generate(3);
        for (vi, kind) in kinds.iter().enumerate() {
            assert!(
                flows.iter().any(|&(i, _)| i == vi),
                "vehicle {vi} ({kind:?}) has no flow"
            );
        }
    }

    #[test]
    fn single_channel_when_cells_fit_spacing() {
        let mut cfg = FleetConfig::corridor(4, 8);
        cfg.cell_radius_m = 15.0;
        cfg.ap_spacing_m = 20.0;
        assert_eq!(cfg.channel_reuse(), 1);
        let (t, _, _) = cfg.generate(1);
        assert!(t.ap_channels.is_empty());
    }

    #[test]
    fn small_fleet_runs_and_aggregates() {
        let mut cfg = FleetConfig::corridor(4, 6);
        cfg.duration = SimDuration::from_secs(5);
        let report = cfg.run(SystemKind::Wgtt(WgttConfig::default()), 11);
        assert_eq!(report.vehicles, 4);
        assert_eq!(report.per_vehicle.len(), 4);
        assert!(report.events_handled > 0);
        assert!(report.frames_on_air > 0);
        assert_eq!(report.backhaul_misaddressed, 0);
        assert_eq!(report.missing_packet_refs, 0);
        // CDF, if present, is monotone and ends at 1.
        if let Some(last) = report.outage_cdf.last() {
            assert!((last.1 - 1.0).abs() < 1e-12);
            for w in report.outage_cdf.windows(2) {
                assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
            }
        }
        // The digest renders without panicking.
        assert!(report.digest().contains("vehicles=4"));
    }
}
