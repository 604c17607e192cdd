//! The discrete-event world: radios, MAC exchanges, backhaul.
//!
//! One [`World`] is one run: a system under test (WGTT or a baseline
//! roaming scheme), the Fig. 9 testbed, a set of client flows
//! (`crate::flows`, whose packets the world carries), and a
//! deterministic event queue. The MAC pipeline follows real 802.11n
//! timing — DIFS + backoff contention, A-MPDU data PPDUs, SIFS-spaced
//! Block ACK responses (with the small response jitter the paper observed
//! on the TP-Link hardware, §5.3.2), retransmission on Block ACK loss —
//! and the WGTT control plane runs on top exactly as the core crate
//! defines it.
//!
//! The chain for one downlink packet under WGTT:
//! server → controller (`on_downlink`, 12-bit index assignment) →
//! backhaul fan-out → per-AP cyclic queues → serving AP's NIC staging →
//! A-MPDU on the air → client `BaRecipient` → flow sink (and, for TCP,
//! an ACK packet into the client's uplink queue, which every in-range AP
//! may decode, tunnel, and the controller de-duplicates).
//!
//! Three subsystems with private state meet only in `World`'s handlers:
//! `air::Air` (the testbed layout, medium, links and radios: did this
//! frame reach whom), `backhaul::Backhaul` (the WGTT system's; latency,
//! switch processing, control loss) and `traffic::Traffic` (the flows
//! and their packets). `World` keeps the queue, the system, the clients
//! and the report, and dispatches.

mod air;
mod backhaul;
mod traffic;

use std::collections::{BTreeSet, HashMap};

use wgtt::ap::ApAgent;
use wgtt::controller::{Controller, ControllerAction};
use wgtt::messages::{BackhaulDest, BackhaulMsg};
use wgtt::WgttConfig;
use wgtt_baseline::ap::BaselineAp;
use wgtt_baseline::roamer::{Roamer, RoamerAction, RoamerMode};
use wgtt_mac::aggregation::AggregationPolicy;
use wgtt_mac::airtime::{DIFS_US, SIFS_US};
use wgtt_mac::blockack::BaRecipient;
use wgtt_mac::downlink::TxSide;
use wgtt_mac::frame::{Frame, FrameKind, MgmtStep, Mpdu, NodeId, PacketRef};
use wgtt_mac::medium::TxId;
use wgtt_mac::rate::RateController;
use wgtt_mac::sender::{Sender, Unacked};
use wgtt_mac::seq::seq_next;
use wgtt_mac::Mcs;
use wgtt_net::packet::{FlowId, Packet, PacketFactory};
use wgtt_net::wire::Ipv4Addr;
use wgtt_radio::Modulation;
use wgtt_sim::metrics::{Counter, Distribution, ThroughputMeter, TimeSeries};
use wgtt_sim::queue::EventQueue;
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::{SimDuration, SimTime};

use self::air::{Air, Role};
use self::backhaul::Backhaul;
use self::traffic::Traffic;
pub use crate::flows::FlowSpec;
use crate::flows::{Asks, Flow};
use crate::testbed::TestbedConfig;

/// Which system serves the clients.
#[derive(Debug, Clone, Copy)]
pub enum SystemKind {
    /// Wi-Fi Goes to Town with the given configuration.
    Wgtt(WgttConfig),
    /// The §5.1 Enhanced 802.11r baseline (threshold roam, 1 s
    /// hysteresis).
    Enhanced80211r,
    /// Stock 802.11r as measured in §2 (5 s RSSI history requirement).
    Stock80211r,
}

/// `v[i] = value`, growing `v` with `fill` when `i` is past the end.
pub(crate) fn set_at<T: Clone>(v: &mut Vec<T>, i: usize, value: T, fill: T) {
    if i >= v.len() {
        v.resize(i + 1, fill);
    }
    v[i] = value;
}

/// Client-side MAC state.
struct ClientNode {
    id: NodeId,
    ip: Ipv4Addr,
    /// Downlink data receive windows, one per transmitter identity:
    /// WGTT APs share one BSSID (one window, which survives switches by
    /// design); baseline APs are distinct transmitters with independent
    /// Block ACK sessions.
    ba_rx: Vec<BaRecipient>,
    /// Uplink: the next sequence number to assign, and the sender.
    up_next_seq: u16,
    uplink: Sender,
    /// Baseline roamer (None under WGTT).
    roamer: Option<Roamer>,
}

/// Per-run observables the experiments reduce into figures and tables.
#[derive(Default)]
pub struct RunReport {
    /// Per-flow delivered-byte meters (downlink goodput at the client,
    /// uplink goodput at the server).
    pub flow_meters: HashMap<FlowId, ThroughputMeter>,
    /// Per-flow UDP counts: (datagrams the source sent, arrivals at the
    /// sink). Every arrival counts, a second copy of one datagram too, so
    /// `received` can exceed the distinct datagrams delivered and even
    /// `sent`; the flow's meter in `flow_meters` records the copies'
    /// bytes alike (ROADMAP item 14).
    pub udp_counts: HashMap<FlowId, (u64, u64)>,
    /// Serving-AP timeseries per client (AP id + 1 as f64), one point per
    /// sampling tick at which the client had a serving AP. What could be
    /// computed from it afterwards is asked afterwards:
    /// [`World::esnr_trace`], [`World::selection_accuracy`].
    pub serving_series: HashMap<NodeId, TimeSeries>,
    /// Instantaneous per-frame PHY bit rate samples (Mbit/s) per client,
    /// one per A-MPDU put on the air. Every sample is stored, so each
    /// quantile is an MCS rate a frame was sent at; the largest fleet
    /// run stores about 0.1 M of them (under 1 MiB).
    pub bitrate_series: HashMap<NodeId, Distribution>,
    /// Switch protocol execution times (s), one per completed switch —
    /// Table 1 reads their count, mean and standard deviation.
    pub switch_durations: Distribution,
    /// Completed switches.
    pub switches: u64,
    /// High-water mark of concurrent clients served by any single AP
    /// (the load-aware policy's objective; 0 for baseline runs).
    pub max_ap_load: u64,
    /// Block ACK responses that collided on the air (Table 3).
    pub ba_collisions: Counter,
    /// Block ACK responses sent.
    pub ba_responses: Counter,
    /// Uplink packets forwarded vs duplicate-dropped at the controller.
    pub uplink_dedup: (u64, u64),
    /// Per-flow conference fps sinks.
    pub conference_sinks: HashMap<FlowId, Vec<f64>>,
    /// TCP sender stats per flow (timeouts etc.).
    pub tcp_timeouts: HashMap<FlowId, u64>,
    /// Time of each completed finite TCP flow.
    pub tcp_completion: HashMap<FlowId, SimTime>,
    /// Baseline: reassociation failures.
    pub failed_handshakes: u64,
    /// Switches the controller started, completed or not.
    pub switches_started: u64,
    /// Stops the controller retransmitted after an ack timeout.
    pub stop_retransmits: u64,
    /// Discrete events handled by [`World::run`] — the macro-bench's
    /// events/s numerator.
    pub events_handled: u64,
    /// The same events by kind.
    pub events: EventCounts,
    /// Block ACK timeouts — full-window retransmissions — summed over the
    /// WGTT APs (filled in by [`World::finish`]; 0 for baseline runs).
    pub ba_timeouts: u64,
    /// Forwarded Block ACKs that settled a window the AP's own radio had
    /// not (§3.2.1), summed likewise.
    pub forwarded_ba_used: u64,
    /// Frames whose on-air time completed (data, keepalive and control
    /// alike) — the macro-bench's frames/s numerator.
    pub frames_on_air: u64,
    /// What the frame path's PHY consumers asked for and what it cost.
    pub phy: PhyWork,
    /// Backhaul messages addressed past the AP array, dropped instead
    /// of crashing the run (robustness counter; see `on_backhaul`).
    pub backhaul_misaddressed: u64,
    /// Delivered-frame packet refs that no longer resolved in the
    /// packet store, skipped instead of crashing the run.
    pub missing_packet_refs: u64,
    /// Instant of the most recent decoded downlink A-MPDU per client.
    /// Clients that never decoded a frame have no entry — the fleet
    /// aggregation layer reports them as 100 % outage rather than
    /// dividing by a zero frame count.
    pub last_delivery: HashMap<NodeId, SimTime>,
    /// Downlink outage durations (s) per client: every gap of at least
    /// `OUTAGE_MIN` (200 ms) between successive decoded A-MPDUs, measured from
    /// `traffic_start`, with the trailing gap closed at the end of the
    /// run by [`World::finish`].
    pub outage_durations: HashMap<NodeId, Distribution>,
    /// The run's duration.
    pub duration: SimDuration,
}

/// Table 2's switching accuracy, as [`World::selection_accuracy`] sums it
/// over a run's sampling ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelectionAccuracy {
    /// Time (s) the serving AP was within 1 dB of the oracle-best AP.
    pub hits_s: f64,
    /// Time (s) observed: the client was served and some AP was usable.
    pub total_s: f64,
}

impl SelectionAccuracy {
    /// Share of the observed time spent on the oracle-best AP, in percent
    /// (0 when nothing was observed).
    pub fn percent(&self) -> f64 {
        if self.total_s > 0.0 {
            100.0 * self.hits_s / self.total_s
        } else {
            0.0
        }
    }
}

/// Work counters of the frame path's PHY consumers (`crate::decide`):
/// how many delivery rolls and capture checks ran, which rung settled
/// them, and the channel arithmetic the run paid in total. Like
/// `events_handled` they describe the engine, not the physics — two runs
/// with equal outputs may differ here — but a monolithic world and its
/// districts visit the same links and decide them alike, so theirs
/// agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhyWork {
    /// Delivery rolls (one per MPDU or control frame per receiver): the
    /// three rungs below plus `rolls_unread`.
    pub rolls: u64,
    /// Rolls settled by an exact ESNR: found in the link's memo, computed
    /// for this roll, or computed for an earlier roll of the same frame.
    pub rolls_exact: u64,
    /// Rolls settled as lost by the static ceiling.
    pub rolls_ceiling: u64,
    /// Rolls settled as lost by the tap-gain bound.
    pub rolls_bound: u64,
    /// Rolls whose verdict nothing reads — a client's Block ACK heard by a
    /// baseline AP it was not addressed to — which draw and decide
    /// nothing.
    pub rolls_unread: u64,
    /// 56-subcarrier power syntheses across all links (filled in by
    /// [`World::finish`]).
    pub syntheses: u64,
    /// BER sweeps (with their inversions) across all links (filled in by
    /// [`World::finish`]).
    pub sweeps: u64,
    /// Capture comparisons: receptions that overlapped an interferer.
    pub capture_checks: u64,
    /// Exact received powers those comparisons evaluated (the wanted
    /// signal and each interferer count one apiece).
    pub capture_exact: u64,
    /// (AP, client) links the world drew (filled in by
    /// [`World::finish`]): exactly the pairs whose channel something
    /// evaluated — a tap-gain bound, an exact ESNR or an exact received
    /// power. `World::new` draws none, and a pair every roll of which
    /// the static ceiling settled stays undrawn. A monolithic world
    /// evaluates, and so draws, exactly the links its districts do.
    pub links_built: u64,
}

impl std::ops::AddAssign for PhyWork {
    fn add_assign(&mut self, o: PhyWork) {
        self.rolls += o.rolls;
        self.rolls_exact += o.rolls_exact;
        self.rolls_ceiling += o.rolls_ceiling;
        self.rolls_bound += o.rolls_bound;
        self.rolls_unread += o.rolls_unread;
        self.syntheses += o.syntheses;
        self.sweeps += o.sweeps;
        self.capture_checks += o.capture_checks;
        self.capture_exact += o.capture_exact;
        self.links_built += o.links_built;
    }
}

/// Declares [`EventCounts`] with its printing order, its sum and the
/// `Ev` kinds each count counts from one list of fields.
macro_rules! event_counts {
    ($($(#[$doc:meta])* $field:ident $label:literal $kind:pat,)*) => {
        /// Events handled, by `Ev` kind: `events_handled` taken apart. A
        /// property of the engine like [`PhyWork`] — a monolithic world
        /// and its districts need not agree — but for one engine, one
        /// configuration and one seed every count repeats exactly.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct EventCounts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl EventCounts {
            /// Every count under its kind's name, in declaration order.
            pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(($label, self.$field)),*].into_iter()
            }

            /// The count of `ev`'s kind.
            fn of(&mut self, ev: &Ev) -> &mut u64 {
                match ev {
                    $($kind => &mut self.$field,)*
                }
            }
        }

        impl std::ops::AddAssign for EventCounts {
            fn add_assign(&mut self, o: EventCounts) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

event_counts! {
    /// Backhaul deliveries to APs: one per message, or one per fan-out of
    /// one message to several APs.
    backhaul_to_ap "Backhaul->AP"
        Ev::Backhaul { to: BackhaulTo::Aps(_) | BackhaulTo::One(BackhaulDest::Ap(_)), .. },
    /// Backhaul deliveries to the controller.
    backhaul_to_controller "Backhaul->Controller"
        Ev::Backhaul { to: BackhaulTo::One(BackhaulDest::Controller), .. },
    /// Controller timeout polls. Each switch start and each stop
    /// retransmission arms one deadline and a deadline is polled once, so
    /// this stays at or below `switches_started + stop_retransmits`.
    ctl_poll "CtlPoll" Ev::CtlPoll,
    /// Backoff expiries.
    tx_start "TxStart" Ev::TxStart { .. },
    /// Frames leaving the air.
    tx_end "TxEnd" Ev::TxEnd { .. },
    /// (Block) ACK responses.
    ba_response "BaResponse" Ev::BaResponse { .. },
    /// Management-frame ACKs.
    mgmt_response "MgmtResponse" Ev::MgmtResponse { .. },
    /// Contended management transmissions.
    mgmt_tx "MgmtTx" Ev::MgmtTx { .. },
    /// Block ACK timeouts.
    ba_timeout "BaTimeout" Ev::BaTimeout { .. },
    /// Traffic source ticks.
    traffic "Traffic" Ev::Traffic { .. },
    /// TCP retransmission timers, live and stale.
    tcp_timer "TcpTimer" Ev::TcpTimer { .. },
    /// Baseline beacons.
    beacon "Beacon" Ev::Beacon { .. },
    /// Baseline roamer polls.
    roam_poll "RoamPoll" Ev::RoamPoll { .. },
    /// Position refreshes.
    mobility "Mobility" Ev::Mobility,
    /// Conference loss-feedback ticks.
    conf_feedback "ConfFeedback" Ev::ConfFeedback { .. },
    /// Serving-AP / accuracy sampling ticks.
    sample_state "SampleState" Ev::SampleState,
    /// Client keepalives.
    keepalive "Keepalive" Ev::Keepalive { .. },
}

/// Where a queued backhaul message is delivered.
enum BackhaulTo {
    One(BackhaulDest),
    /// Each AP of the list the backhaul holds under this index, in turn
    /// at one instant: the controller's per-packet replication (§3.1.2)
    /// and the `AssocSync` round. A second `Ev` variant would cost the
    /// niche that keeps `Ev` at 64 bytes.
    Aps(u32),
}

/// World events.
enum Ev {
    Backhaul {
        to: BackhaulTo,
        msg: BackhaulMsg,
    },
    CtlPoll,
    /// A station's backoff expired: it may start its next exchange.
    TxStart {
        node: NodeId,
    },
    TxEnd {
        tx: TxId,
        frame: Frame,
    },
    /// A Block ACK response, `(start_seq, bitmap)`, due after SIFS +
    /// hardware jitter.
    BaResponse {
        from: NodeId,
        to: NodeId,
        ba: (u16, u64),
    },
    /// Bare ACK response for management frames.
    MgmtResponse {
        from: NodeId,
        to: NodeId,
        step: MgmtStep,
    },
    /// A contended management transmission attempt (reassociation
    /// request) granted at this instant.
    MgmtTx {
        from: NodeId,
        to: NodeId,
        step: MgmtStep,
        attempt: u8,
    },
    /// No Block ACK came for the A-MPDU `from` sent to `peer`.
    BaTimeout {
        from: NodeId,
        peer: NodeId,
    },
    Traffic {
        flow: FlowId,
    },
    TcpTimer {
        flow: FlowId,
    },
    Beacon {
        ap: NodeId,
        /// True for a deferred retry after finding the medium busy (does
        /// not reschedule the periodic chain).
        retry: bool,
    },
    RoamPoll {
        client: NodeId,
    },
    Mobility,
    ConfFeedback {
        flow: FlowId,
    },
    SampleState,
    /// Small periodic uplink frame every client emits (NULL-data /
    /// control-connection chatter) — the CSI heartbeat that lets the
    /// controller track a client through downlink-only workloads.
    Keepalive {
        client: NodeId,
    },
}

/// WGTT: the controller, its APs and the backhaul between them.
struct WgttSystem {
    cfg: WgttConfig,
    controller: Controller,
    aps: Vec<ApAgent>,
    backhaul: Backhaul,
    /// Pool of reusable controller action buffers. Dispatching a
    /// controller action can recursively produce more controller work
    /// (a forwarded uplink TCP ack emits fresh downlink segments), so
    /// each dispatch depth pops its own buffer and returns it cleared —
    /// depth-first order preserved, zero steady-state allocation.
    ctl_bufs: Vec<Vec<ControllerAction>>,
    /// Deadlines that already have an `Ev::CtlPoll` in the queue: the
    /// controller asks for its next timeout after every dispatch, and one
    /// poll per deadline is all it needs.
    ctl_polls_armed: BTreeSet<SimTime>,
}

/// The system under test. `World` reaches it here: what both systems
/// share (every AP has a transmit side) comes back as one type; what is
/// WGTT's own only a WGTT world asks for.
#[allow(clippy::large_enum_variant)] // one per world; boxing buys nothing
enum SystemState {
    Wgtt(WgttSystem),
    Baseline(Vec<BaselineAp>),
}

impl SystemState {
    /// The WGTT system: no baseline world has a controller or a backhaul.
    fn wgtt(&mut self) -> &mut WgttSystem {
        match self {
            SystemState::Wgtt(w) => w,
            SystemState::Baseline(_) => unreachable!("a baseline world has no controller"),
        }
    }

    fn is_wgtt(&self) -> bool {
        matches!(self, SystemState::Wgtt(_))
    }

    /// The transmit side of the AP at local index `ai`.
    fn ap_tx(&mut self, ai: usize) -> &mut dyn TxSide {
        match self {
            SystemState::Wgtt(w) => &mut w.aps[ai].tx,
            SystemState::Baseline(aps) => &mut aps[ai].tx,
        }
    }
}

/// The simulation world.
pub struct World {
    queue: EventQueue<Ev>,
    air: Air,
    traffic: Traffic,
    system: SystemState,
    clients: Vec<ClientNode>,
    /// Collected observables.
    pub report: RunReport,
    /// Instant at which the traffic sources start (the paper starts its
    /// flows with the client connected; a flow started toward a client
    /// that is still approaching coverage spends its time in TCP RTO
    /// backoff instead). Defaults to time zero.
    pub traffic_start: SimTime,
    /// Inert: the sampler it used to thin computes nothing any more.
    /// Deleted with ROADMAP item 6(ii), once `benchmark/` stops
    /// assigning it.
    #[doc(hidden)]
    pub sample_lean: bool,
    /// Sampling ticks taken so far, at `SAMPLE_TICK`, `2 · SAMPLE_TICK`, …
    /// — the instants [`World::esnr_trace`] and
    /// [`World::selection_accuracy`] evaluate.
    sample_ticks: u64,
}

/// Period of mobility/position refresh.
const MOBILITY_TICK: SimDuration = SimDuration::from_millis(10);
/// Period of serving-AP/accuracy sampling.
const SAMPLE_TICK: SimDuration = SimDuration::from_millis(10);
/// How long a sender waits for a Block ACK before declaring it lost
/// (covers SIFS + response + a forwarded copy over the backhaul).
const BA_WAIT: SimDuration = SimDuration::from_micros(1500);
/// Beacon interval for the baseline schemes (§5.1: 100 ms).
const BEACON_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Roamer poll cadence (drives handshake retries between beacons).
const ROAM_POLL: SimDuration = SimDuration::from_millis(25);
/// Client keepalive (NULL-data) interval.
const KEEPALIVE_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Smallest gap between decoded downlink A-MPDUs counted as an outage.
/// Below this, the gap is ordinary contention/backoff; above it, the
/// client perceptibly stalled (≈ two baseline beacon intervals).
const OUTAGE_MIN: SimDuration = SimDuration::from_millis(200);
/// CSI estimation error applied to *measured* ESNR readings (the true
/// channel still decides delivery) — the reason a single reading is noisy
/// and the paper's median-over-W smoothing matters (Fig. 21).
pub(crate) const CSI_NOISE_DB: f64 = 1.5;
/// Preamble-detection lag: a transmission younger than this is invisible
/// to carrier sense, allowing SIFS-spaced responses to collide.
const SENSE_LAG: SimDuration = SimDuration::from_micros(4);

impl World {
    /// Build a world: testbed geometry + system + per-client flows
    /// (parallel arrays: `flow_specs[i]` applies to `clients[i]` of the
    /// testbed config; use [`World::new_multi`] for several flows per
    /// client).
    pub fn new(
        cfg: TestbedConfig,
        system: SystemKind,
        flow_specs: Vec<FlowSpec>,
        seed: u64,
    ) -> Self {
        let specs: Vec<(usize, FlowSpec)> = flow_specs.into_iter().enumerate().collect();
        Self::new_multi(cfg, system, specs, seed)
    }

    /// Build a world with `(client_index, spec)` flow attachments.
    /// Panics if `cfg.ap_x` decreases anywhere: every AP array runs
    /// along the road in order.
    pub fn new_multi(
        cfg: TestbedConfig,
        system: SystemKind,
        flow_specs: Vec<(usize, FlowSpec)>,
        seed: u64,
    ) -> Self {
        assert!(
            cfg.ap_x.windows(2).all(|w| w[0] <= w[1]),
            "AP x-coordinates must be non-decreasing along the road"
        );
        let root = RngStream::root(seed);
        let n_aps = cfg.ap_x.len();
        let ap_ids: Vec<NodeId> = (0..n_aps).map(|ai| cfg.ap_id(ai)).collect();
        let system_state = match system {
            SystemKind::Wgtt(wgtt_cfg) => {
                let mut controller = Controller::new(wgtt_cfg, ap_ids.clone());
                controller.reserve_clients(cfg.clients.len());
                let agent =
                    |&id: &NodeId| ApAgent::new(id, root.derive_indexed("ap-agent", id.0 as u64));
                SystemState::Wgtt(WgttSystem {
                    cfg: wgtt_cfg,
                    controller,
                    aps: ap_ids.iter().map(agent).collect(),
                    backhaul: Backhaul::new(wgtt_cfg.control_loss_prob),
                    ctl_bufs: Vec::new(),
                    ctl_polls_armed: BTreeSet::new(),
                })
            }
            SystemKind::Enhanced80211r | SystemKind::Stock80211r => {
                let ap =
                    |&id: &NodeId| BaselineAp::new(id, root.derive_indexed("bl-ap", id.0 as u64));
                SystemState::Baseline(ap_ids.iter().map(ap).collect())
            }
        };

        let roaming = match system {
            SystemKind::Wgtt(_) => None,
            SystemKind::Enhanced80211r => Some(RoamerMode::Enhanced {
                hysteresis: SimDuration::from_secs(1),
            }),
            SystemKind::Stock80211r => Some(RoamerMode::Stock {
                history: SimDuration::from_secs(5),
            }),
        };
        let rate = |gci: usize| root.derive_indexed("client-rate", gci as u64).rng();
        let clients: Vec<ClientNode> = (0..cfg.clients.len())
            .map(|ci| {
                let (gci, roamer) = (cfg.client_index_offset + ci, roaming.map(Roamer::new));
                ClientNode {
                    id: cfg.client_id(ci),
                    // Client addresses spread over the low two octets:
                    // `100 + gci` would overflow the single-octet form at
                    // gci = 156, which a fleet-sized world reaches easily.
                    // The *global* index keeps shard addressing identical
                    // to the monolithic world's.
                    ip: Ipv4Addr::new(172, 16, ((100 + gci) >> 8) as u8, (100 + gci) as u8),
                    ba_rx: vec![BaRecipient::default(); if roamer.is_some() { n_aps } else { 1 }],
                    up_next_seq: 0,
                    uplink: Sender::new(RateController::new(rate(gci))),
                    roamer,
                }
            })
            .collect();
        let flows = flow_specs.into_iter().enumerate().map(|(fi, (ci, spec))| {
            let c = &clients[ci];
            Flow::new(FlowId(fi as u32), c.id, c.ip, spec)
        });
        World {
            queue: EventQueue::new(),
            air: Air::new(cfg, &root),
            traffic: Traffic::new(flows.collect()),
            system: system_state,
            clients,
            report: RunReport::default(),
            traffic_start: SimTime::ZERO,
            sample_lean: false,
            sample_ticks: 0,
        }
    }

    /// The testbed's layout, which the air holds.
    fn cfg(&self) -> &TestbedConfig {
        self.air.cfg()
    }

    // -------------------------------------------------------- run control

    /// Client node ids in client-index order (index `ci` of the plan /
    /// flow-attachment APIs maps to `client_ids()[ci]`).
    pub fn client_ids(&self) -> Vec<NodeId> {
        self.clients.iter().map(|c| c.id).collect()
    }

    /// Run the world for `duration`, returning when the queue drains past
    /// it. Consumes nothing; results accumulate in [`World::report`].
    pub fn run(&mut self, duration: SimDuration) {
        self.begin(duration);
        self.advance_until(self.end_at());
        self.finish();
    }

    /// Start a run without driving it: set the horizon and bootstrap the
    /// periodic machinery. Pair with [`World::advance_until`] and
    /// [`World::finish`] to drive a run in slices (the benchmark times
    /// each one). `begin` + `advance_until(end)` + `finish` is exactly
    /// [`World::run`].
    pub fn begin(&mut self, duration: SimDuration) {
        self.report.duration = duration;
        self.bootstrap();
    }

    /// The run horizon set by [`World::begin`].
    pub fn end_at(&self) -> SimTime {
        SimTime::ZERO + self.report.duration
    }

    /// Drain every event up to `until` (capped at the run horizon).
    /// Advancing in windows is byte-identical to one straight pass: the
    /// queue pops in (time, insertion) order either way.
    pub fn advance_until(&mut self, until: SimTime) {
        let cap = until.min(self.end_at());
        while let Some((now, ev)) = self.queue.pop_until(cap) {
            self.report.events_handled += 1;
            *self.report.events.of(&ev) += 1;
            self.handle(now, ev);
        }
    }

    fn bootstrap(&mut self) {
        // Initial association: strongest mean-SNR AP at the start position,
        // which is site geometry — no link is drawn to answer it.
        let zero = SimTime::ZERO;
        for ci in 0..self.clients.len() {
            let client = self.clients[ci].id;
            let pos = self.cfg().client_pos(client, zero);
            let best_ap = self.cfg().ap_id(self.air.strongest_ap(pos));
            if let Some(roamer) = self.clients[ci].roamer.as_mut() {
                roamer.set_associated(best_ap, zero);
            } else {
                self.with_controller(zero, |c, buf| {
                    c.on_client_associated(client, best_ap, zero, buf);
                });
            }
        }
        // Periodic machinery.
        self.queue.schedule(zero + MOBILITY_TICK, Ev::Mobility);
        self.queue.schedule(zero + SAMPLE_TICK, Ev::SampleState);
        if !self.system.is_wgtt() {
            let n_aps = self.cfg().ap_x.len();
            for ai in 0..n_aps {
                // Stagger beacons across APs as real deployments do.
                let at = zero + SimDuration::from_millis((ai * 100 / n_aps) as u64);
                let ap = self.cfg().ap_id(ai);
                self.queue.schedule(at, Ev::Beacon { ap, retry: false });
            }
            for c in &self.clients {
                let poll = Ev::RoamPoll { client: c.id };
                self.queue.schedule(zero + ROAM_POLL, poll);
            }
        }
        // Client keepalives (staggered so they never systematically
        // collide with each other).
        for (ci, c) in self.clients.iter().enumerate() {
            let gci = self.cfg().client_index_offset + ci;
            let at = zero + SimDuration::from_millis(1 + gci as u64 * 7);
            self.queue.schedule(at, Ev::Keepalive { client: c.id });
        }
        // Traffic.
        let t0 = self.traffic_start;
        for fi in 0..self.traffic.flow_count() as u32 {
            self.with_flow(FlowId(fi), zero, |f, _, _| f.start_at(t0));
        }
    }

    /// Record a decoded downlink A-MPDU for `client` and close any
    /// outage ([`OUTAGE_MIN`] or longer since the previous delivery,
    /// or since `traffic_start` for the first one).
    fn note_delivery(&mut self, client: NodeId, now: SimTime) {
        let last = self.report.last_delivery.insert(client, now);
        self.close_gap(client, last.unwrap_or(self.traffic_start), now);
    }

    /// Record `client`'s downlink silence from `from` to `to` as an
    /// outage if it lasted [`OUTAGE_MIN`] or longer.
    fn close_gap(&mut self, client: NodeId, from: SimTime, to: SimTime) {
        let gap = to.saturating_since(from);
        if gap >= OUTAGE_MIN {
            let outages = self.report.outage_durations.entry(client).or_default();
            outages.record(gap.as_secs_f64());
        }
    }

    /// Close out the run: fold per-flow and per-client observables into
    /// [`World::report`].
    pub fn finish(&mut self) {
        self.report.phy = self.air.work();
        let open_demand = self.traffic.fold_into(&mut self.report);
        // Close the trailing outage gap for clients that did deliver at
        // least once. Clients with no `last_delivery` entry are left
        // alone: the fleet layer reports them as one full-run outage
        // rather than inventing a zero-sample distribution here.
        //
        // A client whose downlink demand is entirely finite (web-style
        // transfers) and fully delivered goes legitimately quiet after
        // the last byte; that idle tail is not an outage. The trailing
        // gap is only closed for clients with open-ended downlink
        // demand or an unfinished finite transfer.
        for (client, last) in self.report.last_delivery.clone() {
            if open_demand.contains(&client) {
                self.close_gap(client, last, self.end_at());
            }
        }
        let roamers = || self.clients.iter().flat_map(|c| &c.roamer);
        self.report.failed_handshakes += roamers().map(|r| r.failed_handshakes).sum::<u64>();
        match &self.system {
            SystemState::Wgtt(w) => {
                let (controller, aps) = (&w.controller, &w.aps);
                self.report.ba_timeouts = aps.iter().map(|a| a.tx.ba_timeouts).sum();
                self.report.forwarded_ba_used = aps.iter().map(|a| a.forwarded_ba_used).sum();
                self.report.switches = controller.stats.switches_completed;
                self.report.switches_started = controller.stats.switches_started;
                self.report.stop_retransmits = controller.stats.stop_retransmits;
                self.report.max_ap_load = controller.stats.max_ap_load;
                self.report.switch_durations = controller.stats.switch_durations.clone();
                self.report.uplink_dedup = (
                    controller.stats.uplink_forwarded,
                    controller.stats.uplink_duplicates,
                );
            }
            SystemState::Baseline(_) => {
                self.report.switches = roamers().map(|r| r.switches).sum();
            }
        }
    }

    // ----------------------------------------------------------- dispatch

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Backhaul { to, msg } => match to {
                BackhaulTo::One(to) => self.on_backhaul(to, msg, now),
                BackhaulTo::Aps(aps) => {
                    let list = self.system.wgtt().backhaul.take_fanout(aps);
                    for &ap in &list {
                        self.on_backhaul(BackhaulDest::Ap(ap), msg.clone(), now);
                    }
                    self.system.wgtt().backhaul.recycle(aps, list);
                }
            },
            Ev::CtlPoll => {
                // Disarm first: the dispatch below may need this very
                // instant polled again.
                self.system.wgtt().ctl_polls_armed.remove(&now);
                self.with_controller(now, |c, buf| c.poll(now, buf));
            }
            Ev::TxStart { node } => self.on_tx_start(node, now),
            Ev::TxEnd { tx, frame } => self.on_tx_end(tx, frame, now),
            Ev::BaResponse { from, to, ba } => self.on_ba_response(from, to, ba, now),
            Ev::MgmtResponse { from, to, step } => self.on_mgmt_response(from, to, step, now),
            Ev::BaTimeout { from, peer } => self.on_ba_timeout(from, peer, now),
            Ev::Traffic { flow } => {
                self.with_flow(flow, now, |f, factory, out| f.on_tick(now, factory, out))
            }
            Ev::TcpTimer { flow } => {
                self.with_flow(flow, now, |f, factory, out| f.on_timer(now, factory, out))
            }
            Ev::Beacon { ap, retry } => self.on_beacon(ap, retry, now),
            Ev::RoamPoll { client } => self.on_roam_poll(client, now),
            Ev::Mobility => {
                self.air.move_clients(now);
                self.queue.schedule(now + MOBILITY_TICK, Ev::Mobility);
            }
            Ev::ConfFeedback { flow } => self.with_flow(flow, now, |f, _, _| f.on_feedback(now)),
            Ev::SampleState => self.on_sample(now),
            Ev::Keepalive { client } => self.on_keepalive(client, now),
            Ev::MgmtTx {
                from,
                to,
                step,
                attempt,
            } => self.on_mgmt_tx(from, to, step, attempt, now),
        }
    }

    fn on_keepalive(&mut self, client: NodeId, now: SimTime) {
        self.queue
            .schedule(now + KEEPALIVE_INTERVAL, Ev::Keepalive { client });
        if !self.air.clear_to_send(client, now) {
            return; // skip this beat; the next one is 50 ms away
        }
        let to = self.uplink_target(client);
        self.transmit(client, to, FrameKind::Keepalive, Mcs::Mcs0, now);
    }

    // --------------------------------------------------------- backhaul

    /// Queue `msg` on the backhaul for `to`, a control message's rolls
    /// drawn from the stream of the client it names.
    fn backhaul_send(&mut self, to: BackhaulTo, msg: BackhaulMsg, now: SimTime) {
        let rng = msg.control_client().map(|c| &mut self.air.radio(c).rng);
        if let Some(at) = self.system.wgtt().backhaul.arrival(&msg, now, rng) {
            self.queue.schedule(at, Ev::Backhaul { to, msg });
        }
    }

    /// Run `f` against the WGTT controller with a pooled action buffer,
    /// then dispatch everything it emitted.
    ///
    /// Dispatching can recurse into more controller work (a forwarded
    /// uplink TCP ack emits fresh downlink segments, which fan out
    /// here again), so each depth takes its own buffer from the pool —
    /// depth-first dispatch order is preserved exactly, and in steady
    /// state no dispatch allocates.
    fn with_controller(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut Controller, &mut Vec<ControllerAction>),
    ) {
        let w = self.system.wgtt();
        let mut buf = w.ctl_bufs.pop().unwrap_or_default();
        f(&mut w.controller, &mut buf);
        self.dispatch_ctl_buf(&mut buf, now);
        self.system.wgtt().ctl_bufs.push(buf);
    }

    fn dispatch_ctl_buf(&mut self, buf: &mut Vec<ControllerAction>, now: SimTime) {
        let mut actions = buf.drain(..).peekable();
        while let Some(a) = actions.next() {
            match a {
                ControllerAction::Send { ap, msg } => {
                    // The same data or sync message to the next AP too?
                    let again = |next: &ControllerAction| match next {
                        ControllerAction::Send { msg: m, .. } => *m == msg,
                        ControllerAction::ToWan { .. } => false,
                    };
                    if msg.control_client().is_some() || !actions.peek().is_some_and(again) {
                        self.backhaul_send(BackhaulTo::One(BackhaulDest::Ap(ap)), msg, now);
                        continue;
                    }
                    let backhaul = &mut self.system.wgtt().backhaul;
                    let (aps, list) = backhaul.open_fanout();
                    list.push(ap);
                    while let Some(ControllerAction::Send { ap, .. }) = actions.next_if(again) {
                        list.push(ap);
                    }
                    self.backhaul_send(BackhaulTo::Aps(aps), msg, now);
                }
                ControllerAction::ToWan { packet } => self.on_arrival(packet, now),
            }
        }
        // A switch may have been started: make sure its timeout is
        // polled, once. The poll kept for a deadline is the first one
        // asked for, so its place among same-instant events is the one
        // a poll per dispatch would have given it.
        let w = self.system.wgtt();
        if let Some(at) = w.controller.next_timeout().map(|t| t.max(now)) {
            if w.ctl_polls_armed.insert(at) {
                self.queue.schedule(at, Ev::CtlPoll);
            }
        }
    }

    fn on_backhaul(&mut self, to: BackhaulDest, msg: BackhaulMsg, now: SimTime) {
        let BackhaulDest::Ap(ap) = to else {
            return self.with_controller(now, |c, buf| c.on_msg(msg, now, buf));
        };
        if !self.cfg().is_ap(ap) {
            // A message addressed outside the AP array (a stale id from a
            // reconfigured corridor segment) is dropped, not a crash:
            // timeouts re-drive the protocol.
            self.report.backhaul_misaddressed += 1;
            return;
        }
        let ai = self.cfg().ap_index(ap);
        let kick_client = match &msg {
            BackhaulMsg::DownlinkData { client, .. }
            | BackhaulMsg::Start { client, .. }
            | BackhaulMsg::BlockAckForward { client, .. } => Some(*client),
            _ => None,
        };
        let agent = &mut self.system.wgtt().aps[ai];
        let action = agent.on_backhaul(msg);
        // A forwarded Block ACK may have resolved the pending exchange.
        let resolved = kick_client.is_some_and(|client| {
            self.air.radio(ap).peer == Some(client) && !agent.tx.has_in_flight(client)
        });
        if resolved {
            self.resolve_exchange(ap, now);
        }
        if let Some(act) = action {
            self.backhaul_send(BackhaulTo::One(act.to), act.msg, now);
        }
        self.kick(ap, now);
    }

    // --------------------------------------------------------- transport

    /// Send one downlink packet into the system (controller fan-out, or
    /// the baseline client's associated AP).
    fn route_downlink(&mut self, client: NodeId, packet: Packet, now: SimTime) {
        let SystemState::Baseline(aps) = &mut self.system else {
            return self.with_controller(now, |c, buf| c.on_downlink(client, packet, now, buf));
        };
        let cfg = self.air.cfg();
        let roamer = self.clients[cfg.client_index(client)].roamer.as_ref();
        if let Some(ap) = roamer.and_then(Roamer::associated) {
            aps[cfg.ap_index(ap)].enqueue_downlink(client, packet);
            self.kick(ap, now);
        }
    }

    /// Send a packet of one of `client`'s flows on its way: into the
    /// system when it is addressed to the client, into the client's MAC
    /// when it is the client's to send.
    fn route(&mut self, client: NodeId, packet: Packet, now: SimTime) {
        let c = &mut self.clients[self.air.cfg().client_index(client)];
        if packet.dst == c.ip {
            return self.route_downlink(client, packet, now);
        }
        let seq = c.up_next_seq;
        c.up_next_seq = seq_next(seq);
        c.uplink.stage(Mpdu::fresh(seq, packet.id, packet.len));
        self.kick(client, now);
    }

    /// Call `flow`, then do what it asks in the order its handlers always
    /// have: route the packets it put out, then schedule its wake-ups.
    fn with_flow(
        &mut self,
        flow: FlowId,
        now: SimTime,
        call: impl FnOnce(&mut Flow, &mut PacketFactory, &mut Vec<Packet>) -> Asks,
    ) {
        let Some((client, mut out, asks)) = self.traffic.call(flow, call) else {
            return; // a packet of no flow of this world
        };
        for p in out.drain(..) {
            self.route(client, p, now);
        }
        self.traffic.recycle(out);
        if let Some(t) = asks.tick {
            self.queue.schedule(t, Ev::Traffic { flow });
        }
        if let Some(d) = asks.timer {
            self.queue.schedule(d.max(now), Ev::TcpTimer { flow });
        }
        if let Some(t) = asks.feedback {
            self.queue.schedule(t, Ev::ConfFeedback { flow });
        }
    }

    /// `packet` reached the end of its flow it was addressed to: the
    /// server, past the controller's de-duplication or the associated
    /// baseline AP, or (`end_downlink_data`) the client.
    fn on_arrival(&mut self, packet: Packet, now: SimTime) {
        self.with_flow(packet.flow, now, |f, factory, out| {
            f.on_arrival(&packet, now, factory, out)
        });
    }

    /// The packet a delivered frame refers to; one the store lost is counted.
    fn resolve(&mut self, r: PacketRef) -> Option<Packet> {
        let packet = self.traffic.packet(r);
        self.report.missing_packet_refs += u64::from(packet.is_none());
        packet
    }

    // -------------------------------------------------------- monitoring

    fn serving_of(&self, client: NodeId) -> Option<NodeId> {
        match &self.system {
            SystemState::Wgtt(w) => w.controller.serving(client),
            SystemState::Baseline(_) => self.clients[self.cfg().client_index(client)]
                .roamer
                .as_ref()
                .and_then(Roamer::associated),
        }
    }

    /// Where `client` sends uplink frames: its serving AP, else the first.
    fn uplink_target(&self, client: NodeId) -> NodeId {
        self.serving_of(client).unwrap_or(self.cfg().ap_id(0))
    }

    /// One sampling tick: what the run itself reads (the multi-channel
    /// retune) and what cannot be recomputed afterwards (who served whom).
    /// Everything else about the instant is a function of the links and
    /// the drive plans, and is asked later: [`World::esnr_trace`],
    /// [`World::selection_accuracy`].
    fn on_sample(&mut self, now: SimTime) {
        self.sample_ticks += 1;
        for ci in 0..self.clients.len() {
            let client = self.clients[ci].id;
            let Some(ap) = self.serving_of(client) else {
                continue;
            };
            // Multi-channel deployments: the client's radio follows its
            // serving AP's channel (retune modelled at tick granularity).
            self.air.follow(client, ap);
            let series = self.report.serving_series.entry(client).or_default();
            series.record(now, ap.0 as f64 + 1.0);
        }
        self.queue.schedule(now + SAMPLE_TICK, Ev::SampleState);
    }

    /// The instants of the sampling ticks taken so far.
    fn sample_instants(&self) -> impl Iterator<Item = SimTime> {
        (1..=self.sample_ticks).map(|k| SimTime::ZERO + SAMPLE_TICK.times(k))
    }

    /// The (client, AP) link's exact ESNR under the reference 16-QAM
    /// constellation at every sampling tick taken so far, with the client
    /// where its plan puts it at the tick (Fig. 2 style). Computed on a
    /// copy of the link — a clone if the run drew it, drawn afresh on the
    /// copy if not: the run's memos, work counters and drawn links stay
    /// as the run left them, so asking — twice, or mid-run — changes
    /// nothing.
    pub fn esnr_trace(&self, client: NodeId, ap: NodeId) -> TimeSeries {
        let link = self.air.link_copy(ap, client);
        let mut trace = TimeSeries::new();
        for t in self.sample_instants() {
            let pos = self.cfg().client_pos(client, t);
            trace.record(t, link.esnr_db_at(t, pos, Modulation::Qam16));
        }
        trace
    }

    /// Table 2's switching accuracy over the sampling ticks taken so far:
    /// the time the serving AP (read back from `serving_series`) was the
    /// oracle-best one, over the time any AP was usable. Like
    /// [`World::esnr_trace`] it works on copies of the links.
    pub fn selection_accuracy(&self) -> SelectionAccuracy {
        let links = self.air.copy_links();
        let n_aps = self.cfg().ap_x.len();
        let tick_s = SAMPLE_TICK.as_secs_f64();
        // Each client's serving points still to be matched to a tick.
        let mut served: Vec<&[(SimTime, f64)]> = self
            .clients
            .iter()
            .map(|c| self.report.serving_series.get(&c.id))
            .map(|s| s.map_or(&[][..], TimeSeries::points))
            .collect();
        let mut esnrs = Vec::with_capacity(n_aps);
        let mut acc = SelectionAccuracy::default();
        for t in self.sample_instants() {
            for (ci, c) in self.clients.iter().enumerate() {
                let Some((&(_, ap), rest)) = served[ci].split_first().filter(|(p, _)| p.0 == t)
                else {
                    continue; // nobody served this client at this tick
                };
                served[ci] = rest;
                let serving = self.cfg().ap_index(NodeId(ap as u32 - 1));
                let aps = (0..n_aps).map(|aui| self.cfg().ap_id(aui));
                wgtt_radio::batch::esnr_map(
                    aps.map(|ap| self.air.link_of(&links, ap, c.id)),
                    t,
                    self.cfg().client_pos(c.id, t),
                    Modulation::Qam16,
                    &mut esnrs,
                );
                let oracle_esnr = esnrs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                // Only count instants where any AP is actually usable; the
                // serving AP counts as optimal when it is within 1 dB of
                // the instantaneous best (an indistinguishable tie at CSI
                // measurement precision).
                if oracle_esnr > 2.0 {
                    acc.total_s += tick_s;
                    if esnrs[serving] >= oracle_esnr - 1.0 {
                        acc.hits_s += tick_s;
                    }
                }
            }
        }
        acc
    }

    // ---------------------------------------------------- station gate
    //
    // One pipeline for every sender. What differs by role is only whether
    // the node has work, how it builds its next A-MPDU, and which random
    // stream backs it off.

    fn has_work(&mut self, role: Role) -> bool {
        match role {
            Role::Ap(ai) => self.system.ap_tx(ai).has_work(),
            Role::Client(ci) => self.clients[ci].uplink.has_work(),
        }
    }

    /// The node's next A-MPDU and its addressee, marked in flight at its
    /// sender.
    fn next_ampdu(&mut self, node: NodeId, role: Role) -> Option<(NodeId, Vec<Mpdu>, Mcs)> {
        match role {
            Role::Ap(ai) => self.system.ap_tx(ai).next_ampdu(),
            Role::Client(ci) => {
                let target = self.uplink_target(node);
                let uplink = &mut self.clients[ci].uplink;
                let (mpdus, mcs) = uplink.build(&AggregationPolicy::default())?;
                Some((target, mpdus, mcs))
            }
        }
    }

    fn kick(&mut self, node: NodeId, now: SimTime) {
        let role = self.air.role(node);
        let radio = self.air.radio(node);
        if radio.tx_scheduled || radio.peer.is_some() || !self.has_work(role) {
            return;
        }
        let at = self.air.contend(node, now);
        self.queue.schedule(at, Ev::TxStart { node });
    }

    fn on_tx_start(&mut self, node: NodeId, now: SimTime) {
        let role = self.air.role(node);
        let radio = self.air.radio(node);
        radio.tx_scheduled = false;
        if radio.peer.is_some() {
            return;
        }
        if !self.air.clear_to_send(node, now) {
            // Someone grabbed the channel during our backoff (or our own
            // previous frame is still on the air): re-contend.
            self.kick(node, now);
            return;
        }
        let Some((to, mpdus, mcs)) = self.next_ampdu(node, role) else {
            return;
        };
        self.transmit(node, to, FrameKind::Ampdu { mpdus }, mcs, now);
        self.air.radio(node).peer = Some(to);
    }

    /// Put a frame on the air from `now`; its `Ev::TxEnd` fires when the
    /// last symbol has left.
    fn transmit(&mut self, from: NodeId, to: NodeId, kind: FrameKind, mcs: Mcs, now: SimTime) {
        let frame = Frame {
            from,
            to,
            kind,
            mcs,
        };
        let (tx, end) = self.air.transmit(&frame, now);
        self.queue.schedule(end, Ev::TxEnd { tx, frame });
    }

    /// The pending exchange of `node` ended, one way or the other.
    fn end_exchange(&mut self, node: NodeId, backoff: u8, now: SimTime) {
        let radio = self.air.radio(node);
        radio.peer = None;
        radio.backoff = backoff;
        self.kick(node, now);
    }

    /// A Block ACK settled the window `node` had in flight.
    fn resolve_exchange(&mut self, node: NodeId, now: SimTime) {
        if let Some(ev) = self.air.radio(node).ba_timeout_ev.take() {
            self.queue.cancel(ev);
        }
        self.end_exchange(node, 0, now);
    }

    fn on_ba_timeout(&mut self, node: NodeId, peer: NodeId, now: SimTime) {
        match self.air.role(node) {
            Role::Ap(ai) => self.system.ap_tx(ai).on_ba_timeout(peer),
            Role::Client(ci) => self.clients[ci].uplink.on_ba_timeout(Unacked::Retry),
        };
        let radio = self.air.radio(node);
        radio.ba_timeout_ev = None;
        let backoff = (radio.backoff + 1).min(6);
        self.end_exchange(node, backoff, now);
    }

    // ------------------------------------------------------ frame ends

    fn on_tx_end(&mut self, tx: TxId, frame: Frame, now: SimTime) {
        self.report.frames_on_air += 1;
        let (from, to, mcs) = (frame.from, frame.to, frame.mcs);
        let from_ap = self.cfg().is_ap(from);
        match frame.kind {
            FrameKind::Ampdu { mpdus } => {
                if from_ap {
                    self.end_downlink_data(tx, from, to, &mpdus, mcs, now);
                } else {
                    self.end_uplink_data(tx, from, &mpdus, mcs, now);
                }
                let timeout = Ev::BaTimeout { from, peer: to };
                let ev = self.queue.schedule(now + BA_WAIT, timeout);
                self.air.radio(from).ba_timeout_ev = Some(ev);
            }
            FrameKind::BlockAck { start_seq, bitmap } => {
                let ba = (start_seq, bitmap);
                if from_ap {
                    self.end_ap_blockack(tx, from, to, ba, now);
                } else {
                    self.end_client_blockack(tx, from, to, ba, now);
                }
            }
            FrameKind::Beacon => self.end_beacon(tx, from, now),
            FrameKind::Mgmt { step } => self.end_mgmt(tx, from, to, step, now),
            FrameKind::Keepalive => self.end_keepalive(tx, from, now),
        }
    }

    /// A keepalive finished: every decoding AP reports CSI (WGTT). The
    /// baseline's client-side roamer works from beacons instead.
    fn end_keepalive(&mut self, tx: TxId, client: NodeId, now: SimTime) {
        if !self.system.is_wgtt() {
            return;
        }
        let pos = self.cfg().client_pos(client, now);
        for aui in self.air.ap_window(pos.x) {
            let pair = (self.cfg().ap_id(aui), client);
            if !self.air.reaches(aui, tx, (client, pair.0), pos, now) {
                continue;
            }
            if self.air.roll_mpdu(pair, pos, now, Mcs::Mcs0, 40) {
                self.report_csi(aui, client, now);
            }
        }
    }

    /// The AP at local index `aui` decoded an uplink frame of `client`:
    /// under WGTT every one is a CSI measurement for the controller.
    fn report_csi(&mut self, aui: usize, client: NodeId, now: SimTime) {
        let esnr = self.air.measured_esnr(self.cfg().ap_id(aui), client, now);
        let csi = self.system.wgtt().aps[aui].csi_report(client, esnr, now);
        self.backhaul_send(BackhaulTo::One(csi.to), csi.msg, now);
    }

    /// A downlink A-MPDU finished: roll per-MPDU delivery at the client,
    /// deliver new packets, and arm the Block ACK response/timeout pair.
    fn end_downlink_data(
        &mut self,
        tx: TxId,
        ap: NodeId,
        client: NodeId,
        mpdus: &[Mpdu],
        mcs: Mcs,
        now: SimTime,
    ) {
        let bitrates = self.report.bitrate_series.entry(client).or_default();
        bitrates.record(mcs.rate_mbps());
        let survives =
            self.air.medium().same_channel(ap, client) && self.air.rx_survives(tx, ap, client, now);
        let ci = self.cfg().client_index(client);
        let pos = self.cfg().client_pos(client, now);
        // The shared-BSSID window under WGTT, the AP's own otherwise.
        let slot = if self.system.is_wgtt() {
            0
        } else {
            self.cfg().ap_index(ap)
        };
        self.clients[ci].ba_rx[slot].reanchor_if_behind(mpdus);
        let mut decoded_any = false;
        for m in mpdus {
            let (pair, len) = ((ap, client), m.packet.len);
            if !survives || !self.air.roll_mpdu(pair, pos, now, mcs, len) {
                continue;
            }
            decoded_any = true;
            if self.clients[ci].ba_rx[slot].on_mpdu(m.seq) {
                if let Some(packet) = self.resolve(m.packet) {
                    self.on_arrival(packet, now);
                }
            }
        }
        if decoded_any {
            self.note_delivery(client, now);
            let jitter = SIFS_US + self.air.radio(client).rng.below(16);
            let ba = self.clients[ci].ba_rx[slot].block_ack();
            self.respond(now + SimDuration::from_micros(jitter), client, ap, ba);
        }
    }

    /// An uplink A-MPDU finished: every AP rolls reception independently;
    /// decoders tunnel packets + CSI (WGTT) or deliver to the server
    /// (baseline, associated AP only) and respond with Block ACKs.
    fn end_uplink_data(
        &mut self,
        tx: TxId,
        client: NodeId,
        mpdus: &[Mpdu],
        mcs: Mcs,
        now: SimTime,
    ) {
        let wgtt = self.system.is_wgtt();
        let assoc_ap = if wgtt { None } else { self.serving_of(client) };
        let pos = self.cfg().client_pos(client, now);
        for aui in self.air.ap_window(pos.x) {
            let Some(ba) = self.air.hear_uplink(aui, tx, client, mpdus, mcs, now) else {
                continue;
            };
            let ap = self.cfg().ap_id(aui);
            if wgtt {
                self.report_csi(aui, client, now);
            }
            // Under WGTT *every* decoding AP is associated: it tunnels what
            // it decoded and replies (Table 3); under the baseline only
            // the associated AP delivers and replies.
            if !wgtt && assoc_ap != Some(ap) {
                continue;
            }
            // By index: a delivery may kick a station, never hear a frame.
            for i in 0..self.air.fresh().len() {
                let Some(packet) = self.resolve(self.air.fresh()[i]) else {
                    continue;
                };
                if wgtt {
                    let msg = BackhaulMsg::UplinkData { ap, packet };
                    self.backhaul_send(BackhaulTo::One(BackhaulDest::Controller), msg, now);
                } else {
                    self.on_arrival(packet, now);
                }
            }
            // The addressee answers HT-immediate after SIFS; the others
            // with the µs-scale backoff the paper measured on the TP-Link
            // hardware (§5.3.2), which with carrier sense makes collisions
            // rare.
            let jitter_us = if self.serving_of(client) == Some(ap) {
                SIFS_US + self.air.radio(ap).rng.below(3)
            } else {
                SIFS_US + 12 + self.air.radio(ap).rng.below(60)
            };
            self.respond(now + SimDuration::from_micros(jitter_us), ap, client, ba);
        }
    }

    /// A client's Block ACK (for downlink data) finished: the addressee
    /// applies it; under WGTT every other decoding AP both reports CSI
    /// and forwards the Block ACK to the serving AP (§3.2.1).
    fn end_client_blockack(
        &mut self,
        tx: TxId,
        client: NodeId,
        target: NodeId,
        (start_seq, bitmap): (u16, u64),
        now: SimTime,
    ) {
        let wgtt = self.system.is_wgtt();
        let pos = self.cfg().client_pos(client, now);
        for aui in self.air.ap_window(pos.x) {
            let ap = self.cfg().ap_id(aui);
            if !self.air.reaches(aui, tx, (client, ap), pos, now) {
                continue;
            }
            // A baseline AP the Block ACK does not address has nobody to
            // tell — no CSI report, no forwarding — so whether it decoded
            // the frame is never read.
            if !wgtt && ap != target {
                self.air.roll_unread(client);
                continue;
            }
            if !self.air.roll_control((ap, client), pos, now) {
                continue;
            }
            if wgtt {
                self.report_csi(aui, client, now);
            }
            if ap == target {
                let ap_tx = self.system.ap_tx(aui);
                ap_tx.on_block_ack(client, start_seq, bitmap);
                // A byte-identical BA for a retransmission window is a
                // no-op: resolve only when the window actually cleared.
                let cleared = !ap_tx.has_in_flight(client);
                if cleared && self.air.radio(ap).peer == Some(client) {
                    self.resolve_exchange(ap, now);
                }
                continue;
            }
            let w = self.system.wgtt();
            if !w.cfg.enable_ba_forwarding {
                continue;
            }
            if let Some(act) = w.aps[aui].on_overheard_block_ack(client, start_seq, bitmap) {
                self.backhaul_send(BackhaulTo::One(act.to), act.msg, now);
            }
        }
    }

    /// An AP's Block ACK (for uplink data) finished at the client.
    fn end_ap_blockack(
        &mut self,
        tx: TxId,
        ap: NodeId,
        client: NodeId,
        ba: (u16, u64),
        now: SimTime,
    ) {
        if !self.air.medium().same_channel(ap, client) {
            return;
        }
        if !self.air.rx_survives(tx, ap, client, now) {
            self.report.ba_collisions.incr();
            return;
        }
        let ci = self.cfg().client_index(client);
        let pos = self.cfg().client_pos(client, now);
        if !self.air.roll_control((ap, client), pos, now) {
            return;
        }
        // With nothing in flight the client ignores the Block ACK
        // outright. A stale or repeated copy changes nothing either: keep
        // waiting for a live one or the timeout.
        let up = &mut self.clients[ci].uplink;
        if up.has_in_flight() && !up.on_block_ack(ba.0, ba.1, Unacked::Retry).duplicate {
            self.resolve_exchange(client, now);
        }
    }

    /// Queue the Block ACK `ba` from `from` to `to` at `at`.
    fn respond(&mut self, at: SimTime, from: NodeId, to: NodeId, ba: (u16, u64)) {
        self.queue.schedule(at, Ev::BaResponse { from, to, ba });
    }

    fn on_ba_response(&mut self, from: NodeId, to: NodeId, ba: (u16, u64), now: SimTime) {
        // Responses younger than the preamble-detect lag are invisible:
        // that is how two APs' acknowledgements can collide (§5.3.2).
        let medium = self.air.medium();
        if medium.sensed_busy(from, now, SENSE_LAG) || medium.own_tx_until(from, now) > now {
            return; // suppressed by carrier sense (or own radio busy)
        }
        if self.cfg().is_ap(from) {
            self.report.ba_responses.incr();
        }
        let (start_seq, bitmap) = ba;
        let ba = FrameKind::BlockAck { start_seq, bitmap };
        self.transmit(from, to, ba, Mcs::Mcs0, now);
    }

    // -------------------------------------------------- baseline frames

    fn on_beacon(&mut self, ap: NodeId, retry: bool, now: SimTime) {
        if !retry {
            self.queue
                .schedule(now + BEACON_INTERVAL, Ev::Beacon { ap, retry: false });
        }
        if self.air.medium().is_busy_for(ap, now) {
            if !retry {
                let at = self.air.medium().busy_until_for(ap, now);
                let jitter = DIFS_US + self.air.radio(ap).rng.below(64);
                let at = at + SimDuration::from_micros(jitter);
                self.queue.schedule(at, Ev::Beacon { ap, retry: true });
            }
            return;
        }
        // Broadcast: the addressee is unused for beacons.
        self.transmit(ap, ap, FrameKind::Beacon, Mcs::Mcs0, now);
    }

    fn end_beacon(&mut self, tx: TxId, ap: NodeId, now: SimTime) {
        let aui = self.cfg().ap_index(ap);
        for ci in 0..self.clients.len() {
            let client = self.clients[ci].id;
            let pos = self.cfg().client_pos(client, now);
            if !self.air.reaches(aui, tx, (ap, client), pos, now)
                || !self.air.roll_control((ap, client), pos, now)
            {
                continue;
            }
            // Power only — no CSI materialization for a beacon RSSI.
            let rssi = self.air.link(ap, client).rssi_dbm_at(now, pos);
            if let Some(r) = self.clients[ci].roamer.as_mut() {
                r.on_beacon(ap, rssi, now);
            }
        }
    }

    fn on_roam_poll(&mut self, client: NodeId, now: SimTime) {
        self.queue
            .schedule(now + ROAM_POLL, Ev::RoamPoll { client });
        let ci = self.cfg().client_index(client);
        let Some(roamer) = self.clients[ci].roamer.as_mut() else {
            return;
        };
        if let RoamerAction::SendMgmt { ap, step } = roamer.evaluate(now) {
            self.queue_mgmt(client, ap, step, 0, now);
        }
    }

    /// Contend for management attempt `attempt` like any other frame:
    /// under a saturated medium the reassociation must still win slots.
    fn queue_mgmt(&mut self, from: NodeId, to: NodeId, step: MgmtStep, attempt: u8, now: SimTime) {
        let at = self.air.access_time(from, now, attempt);
        let mgmt = Ev::MgmtTx {
            from,
            to,
            step,
            attempt,
        };
        self.queue.schedule(at, mgmt);
    }

    /// A granted management transmission instant: send if the channel is
    /// clear, otherwise re-contend (bounded; the roamer's own retry timer
    /// provides the outer loop).
    fn on_mgmt_tx(&mut self, from: NodeId, to: NodeId, step: MgmtStep, attempt: u8, now: SimTime) {
        if !self.air.clear_to_send(from, now) {
            if attempt < 8 {
                self.queue_mgmt(from, to, step, attempt + 1, now);
            }
            return;
        }
        self.transmit(from, to, FrameKind::Mgmt { step }, Mcs::Mcs0, now);
    }

    fn end_mgmt(&mut self, tx: TxId, from: NodeId, to: NodeId, step: MgmtStep, now: SimTime) {
        // A request goes client → AP, a response AP → client.
        let (ap, client) = match step {
            MgmtStep::AssocReq => (to, from),
            MgmtStep::AssocResp => (from, to),
        };
        if !self.air.rx_survives(tx, from, to, now) {
            return;
        }
        let ci = self.cfg().client_index(client);
        let pos = self.cfg().client_pos(client, now);
        if !self.air.roll_control((ap, client), pos, now) {
            return;
        }
        if step == MgmtStep::AssocReq {
            let (from, to, step) = (to, from, MgmtStep::AssocResp);
            let at = now + SimDuration::from_micros(SIFS_US);
            self.queue.schedule(at, Ev::MgmtResponse { from, to, step });
            return;
        }
        let Some(roamer) = self.clients[ci].roamer.as_mut() else {
            return;
        };
        let old = roamer.associated();
        if roamer.on_assoc_response(from, now) {
            // The handshake's target is never the AP the client is
            // leaving.
            if let (Some(old_ap), SystemState::Baseline(aps)) = (old, &mut self.system) {
                aps[self.air.cfg().ap_index(old_ap)].flush_client(to);
            }
            self.kick(from, now);
        }
    }

    fn on_mgmt_response(&mut self, from: NodeId, to: NodeId, step: MgmtStep, now: SimTime) {
        if self.air.medium().sensed_busy(from, now, SENSE_LAG) {
            return;
        }
        self.transmit(from, to, FrameKind::Mgmt { step }, Mcs::Mcs0, now);
    }
}

#[cfg(test)]
mod tests {
    use super::air::DECODE_HORIZON_M;
    use super::*;
    use crate::testbed::ClientPlan;
    use std::ops::Range;
    use wgtt::messages::BACKHAUL_LATENCY;
    use wgtt_radio::link::{LinkWork, BOUND_MARGIN_DB};
    use wgtt_radio::Position;

    fn wgtt() -> SystemKind {
        SystemKind::Wgtt(WgttConfig::default())
    }

    /// Where hand-made downlink packets come from.
    const SERVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    fn quick_world(system: SystemKind, spec: FlowSpec, seed: u64) -> World {
        let cfg = TestbedConfig::paper_array().with_clients(vec![ClientPlan::drive_by(15.0)]);
        World::new(cfg, system, vec![spec], seed)
    }

    #[test]
    fn wgtt_udp_drive_delivers_data() {
        let mut w = quick_world(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 20.0 }, 1);
        // The drive starts 15 m before the array; measure once in range.
        w.run(SimDuration::from_secs(6));
        let meter = w.report.flow_meters.get(&FlowId(0)).expect("flow exists");
        let mbps = meter.mbps_over(SimTime::from_millis(1500), SimTime::from_secs(6));
        assert!(mbps > 3.0, "WGTT UDP goodput only {mbps} Mbit/s");
    }

    #[test]
    fn wgtt_switches_between_aps_during_drive() {
        let mut w = quick_world(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 20.0 }, 2);
        w.run(SimDuration::from_secs(5));
        assert!(
            w.report.switches >= 3,
            "only {} switches over a 5 s drive",
            w.report.switches
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut w = quick_world(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 20.0 }, seed);
            w.run(SimDuration::from_secs(2));
            (
                w.report.switches,
                w.report
                    .flow_meters
                    .get(&FlowId(0))
                    .map(|m| m.total_bytes())
                    .unwrap_or(0),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn baseline_udp_also_delivers_some() {
        let mut w = quick_world(
            SystemKind::Enhanced80211r,
            FlowSpec::DownlinkUdp { rate_mbps: 20.0 },
            3,
        );
        w.run(SimDuration::from_secs(3));
        let meter = w.report.flow_meters.get(&FlowId(0)).expect("flow exists");
        assert!(meter.total_bytes() > 0, "baseline must deliver something");
    }

    // The WGTT-vs-baseline throughput comparison lives in
    // tests/integration_baseline.rs with full-transit windows and seed
    // averaging — a single short window is too noisy to assert on.

    #[test]
    fn tcp_flow_makes_progress_under_wgtt() {
        let mut w = quick_world(wgtt(), FlowSpec::DownlinkTcpBulk, 5);
        // Start the flow once the client is entering coverage, as the
        // paper's experiments do.
        w.traffic_start = SimTime::from_millis(1500);
        w.run(SimDuration::from_secs(5));
        let meter = w.report.flow_meters.get(&FlowId(0)).expect("flow exists");
        let mbps = meter.mbps_over(SimTime::from_millis(1500), SimTime::from_secs(5));
        assert!(mbps > 1.0, "TCP goodput only {mbps} Mbit/s");
    }

    #[test]
    fn uplink_udp_deduplicated_at_controller() {
        let mut w = quick_world(wgtt(), FlowSpec::UplinkUdp { rate_mbps: 10.0 }, 6);
        w.run(SimDuration::from_secs(3));
        let (forwarded, dups) = w.report.uplink_dedup;
        assert!(forwarded > 100, "uplink forwarded only {forwarded}");
        assert!(dups > 0, "overlapping coverage must produce duplicates");
        // And the sink saw no duplicate deliveries.
        let (_sent, received) = w.report.udp_counts[&FlowId(0)];
        assert!(received <= forwarded);
    }

    #[test]
    fn rate_control_streams_keep_their_labels() {
        // Every golden rests on each AP's per-client Minstrel stream being
        // root → (AP label, AP id) → (rate label, client id): a renamed
        // label moves the probes, and this says so before the goldens do.
        let seed = 9;
        let kinds = [
            (wgtt(), "ap-agent", "rate-ctl"),
            (SystemKind::Enhanced80211r, "bl-ap", "rate"),
        ];
        for (system, ap_label, rate_label) in kinds {
            let mut w = quick_world(system, FlowSpec::DownlinkUdp { rate_mbps: 1.0 }, seed);
            let (ai, client) = (3, w.client_ids()[0]);
            let stream = RngStream::root(seed)
                .derive_indexed(ap_label, u64::from(w.cfg().ap_id(ai).0))
                .derive_indexed(rate_label, u64::from(client.0));
            let mut model = Sender::new(RateController::new(stream.rng()));
            if let SystemState::Wgtt(s) = &mut w.system {
                let (k, switch_id) = (0, 0);
                s.aps[ai].on_backhaul(BackhaulMsg::Start {
                    client,
                    k,
                    switch_id,
                });
            }
            let (mut picks, mut factory) = (Vec::new(), PacketFactory::new());
            for index in 0..100u16 {
                let (from, to) = (SERVER, w.clients[0].ip);
                let packet = factory.udp(FlowId(0), from, to, index.into(), 1500, SimTime::ZERO);
                if let SystemState::Wgtt(s) = &mut w.system {
                    s.aps[ai].on_backhaul(BackhaulMsg::DownlinkData {
                        client,
                        index,
                        packet,
                    });
                }
                if let SystemState::Baseline(aps) = &mut w.system {
                    aps[ai].enqueue_downlink(client, packet);
                }
                let (to, mpdus, mcs) = w.system.ap_tx(ai).next_ampdu().expect("one queued");
                assert_eq!((to, mpdus.len()), (client, 1));
                w.system.ap_tx(ai).on_block_ack(client, mpdus[0].seq, 1);
                model.stage(mpdus[0]);
                let (_, want) = model.build(&AggregationPolicy::default()).unwrap();
                model.on_block_ack(mpdus[0].seq, 1, Unacked::Retry);
                assert_eq!(mcs, want, "{ap_label}/{rate_label}, A-MPDU {index}");
                picks.push(mcs);
            }
            picks.dedup();
            assert!(picks.len() > 10, "ten probes: the stream is read");
        }
    }

    // ---------------------------------------------------------- fan-out

    #[test]
    fn a_tie_at_the_start_associates_with_the_later_ap() {
        // Two APs 10 m either side of a parked client: the same distance
        // and the same angle off boresight, so the same mean SNR.
        let plan = ClientPlan {
            start: Position::new(0.0, 0.0),
            speed_mps: 0.0,
            ..ClientPlan::drive_by(0.0)
        };
        let cfg = TestbedConfig {
            ap_x: vec![-10.0, 10.0],
            ..TestbedConfig::two_ap()
        }
        .with_clients(vec![plan]);
        for system in [wgtt(), SystemKind::Enhanced80211r] {
            let mut w = World::new(cfg.clone(), system, Vec::new(), 1);
            let [a, b] = [0, 1].map(|aui| cfg.site(aui).mean_snr_db(plan.start));
            assert_eq!(a.to_bits(), b.to_bits(), "the two sites must tie");
            w.begin(SimDuration::from_millis(1));
            let client = w.clients[0].id;
            assert_eq!(w.serving_of(client), Some(w.cfg().ap_id(1)));
        }
    }

    #[test]
    fn an_event_fits_a_cache_line() {
        assert!(std::mem::size_of::<Ev>() <= 64);
    }

    #[test]
    fn a_link_slot_is_one_pointer() {
        assert!(std::mem::size_of::<super::air::LinkSlot>() <= 8);
    }

    #[test]
    fn fanout_reaches_each_ap_it_names_and_counts_the_id_that_is_none() {
        let mut w = quick_world(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 1.0 }, 1);
        w.traffic_start = SimTime::from_secs(1);
        w.begin(SimDuration::from_secs(1));
        let client = w.client_ids()[0];
        let (from, to) = (SERVER, w.clients[0].ip);
        let (latency, mut factory) = (BACKHAUL_LATENCY, PacketFactory::new());
        for index in 0..3u16 {
            let now = SimTime::ZERO + latency.times(2 * u64::from(index) + 1);
            w.advance_until(now);
            let packet = factory.udp(FlowId(0), from, to, index.into(), 1500, now);
            let mut buf = Vec::new();
            // NodeId(64) is neither an AP nor a client of this world.
            for ap in [NodeId(2), NodeId(64), NodeId(5)] {
                let msg = BackhaulMsg::DownlinkData {
                    client,
                    index,
                    packet,
                };
                buf.push(ControllerAction::Send { ap, msg });
            }
            w.dispatch_ctl_buf(&mut buf, now);
            w.advance_until(now + latency);
            let sent = usize::from(index) + 1;
            assert_eq!(w.report.backhaul_misaddressed, sent as u64);
            let aps = &w.system.wgtt().aps;
            let backlogs: Vec<usize> = aps.iter().map(|ap| ap.backlog(client)).collect();
            assert_eq!(backlogs, [0, 0, sent, 0, 0, sent, 0, 0]);
        }
        // The association's sync round (its Start is still being
        // processed), then one event per fan-out.
        assert_eq!(w.report.events.backhaul_to_ap, 1 + 3);
    }

    // ------------------------------------------------------- TCP timers

    #[test]
    fn every_rto_deadline_is_met_to_the_nanosecond() {
        // A car that shuttles out of the array's reach and back: ACKs
        // stop mid-transfer, the RTO backs off, and on the way back a
        // fresh ACK pulls the deadline in under the timer the last
        // back-off armed. Whoever moves the deadline arms a timer at it
        // (the flow's first tick, an ACK's arrival, an RTO, each through
        // `World::serve`); nothing else does, so one that stopped would
        // show here as a missed one.
        let plan = ClientPlan {
            start: Position::new(20.0, 0.0),
            speed_mps: 15.0,
            direction: crate::testbed::Direction::East,
            stop: None,
            shuttle: Some((20.0, 170.0)),
        };
        let cfg = TestbedConfig::paper_array().with_clients(vec![plan]);
        let mut w = World::new(cfg, wgtt(), vec![FlowSpec::DownlinkTcpBulk], 3);
        w.begin(SimDuration::from_secs(45));
        let ns = SimDuration::from_nanos(1);
        // Under min_rto, so a deadline set inside a step lies beyond it.
        let step = SimDuration::from_millis(100);
        let (mut now, mut latest_armed) = (SimTime::ZERO, SimTime::ZERO);
        let (mut backoffs, mut longest_backoff, mut under_a_later_timer) = (0, 0, 0);
        while now < w.end_at() {
            let snd = w.traffic.flow(FlowId(0)).tcp_sender();
            let (deadline, rto, fired) = (snd.rto_deadline(), snd.rto(), snd.stats.timeouts);
            // To the deadline's last nanosecond but one, if a step reaches.
            let eve = deadline.map(|d| d - ns).filter(|&t| t <= now + step);
            now = eve.unwrap_or(now + step);
            w.advance_until(now);
            let snd = w.traffic.flow(FlowId(0)).tcp_sender();
            assert_eq!(snd.stats.timeouts, fired, "RTO ahead of {deadline:?}");
            assert!(
                snd.rto_deadline().is_none_or(|d| d > now),
                "deadline {:?} passed unnoticed at {now}",
                snd.rto_deadline()
            );
            latest_armed = latest_armed.max(snd.rto_deadline().unwrap_or(now));
            if snd.rto_deadline() != deadline {
                backoffs = 0; // an ACK moved it
                continue;
            }
            let Some(d) = deadline.filter(|_| eve.is_some()) else {
                continue;
            };
            now = d;
            w.advance_until(now);
            let snd = w.traffic.flow(FlowId(0)).tcp_sender();
            assert_eq!(snd.stats.timeouts, fired + 1, "no RTO at {d}");
            let doubled = SimDuration::from_nanos(rto.as_nanos() * 2);
            let max_rto = wgtt_net::tcp::TcpConfig::default().max_rto;
            assert_eq!(snd.rto(), doubled.min(max_rto));
            assert_eq!(snd.rto_deadline(), Some(d + snd.rto()));
            under_a_later_timer += u32::from(d < latest_armed);
            latest_armed = latest_armed.max(d + snd.rto());
            backoffs += 1;
            longest_backoff = longest_backoff.max(backoffs);
        }
        assert!(longest_backoff >= 3, "the car must leave coverage");
        assert!(under_a_later_timer >= 1, "an ACK must pull a deadline in");
    }

    // -------------------------------------------------- sampler queries
    //
    // `on_sample` used to fill an ESNR trace per (client, AP) and the
    // accuracy sums at every tick. That body, evaluated here eagerly on
    // the world's own links, is the oracle for the queries that replaced
    // it — and, because it leaves the links' memos as the old sampler
    // did, shows again that doing so moves no outcome.

    const QUERY_RUN: SimDuration = SimDuration::from_millis(2500);
    /// Ticks at which a baseline world's second car has no serving AP.
    const UNSERVED_TICKS: Range<u64> = 60..90;

    /// Two cars crossing the array in opposite lanes, from out of reach at
    /// one end to past every cell within `QUERY_RUN`.
    fn two_car_world(system: SystemKind) -> World {
        use crate::testbed::Direction;
        let plan = |x, y, speed_mps, direction| ClientPlan {
            start: Position::new(x, y),
            speed_mps,
            direction,
            stop: None,
            shuttle: None,
        };
        let cfg = TestbedConfig::paper_array().with_clients(vec![
            plan(-25.0, 0.0, 35.0, Direction::East),
            plan(80.0, -3.5, 30.0, Direction::West),
        ]);
        let flows = vec![
            FlowSpec::DownlinkUdp { rate_mbps: 10.0 },
            FlowSpec::UplinkUdp { rate_mbps: 5.0 },
        ];
        World::new(cfg, system, flows, 17)
    }

    /// Drive `w` through `QUERY_RUN` stopping after every sampling tick:
    /// `at_tick` sees the world with the tick's events handled. A baseline
    /// world's second car loses its association for `UNSERVED_TICKS` (its
    /// roamer parked, one that never attached in its place).
    fn drive_by_ticks(w: &mut World, mut at_tick: impl FnMut(&World, SimTime)) {
        w.begin(QUERY_RUN);
        let mut parked = None;
        for k in 1..=QUERY_RUN.as_nanos() / SAMPLE_TICK.as_nanos() {
            if let Some(roamer) = w.clients[1].roamer.as_mut() {
                if k == UNSERVED_TICKS.start {
                    let hysteresis = SimDuration::from_secs(1);
                    let detached = Roamer::new(RoamerMode::Enhanced { hysteresis });
                    parked = Some(std::mem::replace(roamer, detached));
                }
                if k == UNSERVED_TICKS.end {
                    *roamer = parked.take().expect("parked when the stretch began");
                }
            }
            let tick = SimTime::ZERO + SAMPLE_TICK.times(k);
            w.advance_until(tick);
            at_tick(w, tick);
        }
        w.finish();
    }

    /// What `on_sample` recorded before PR 24, tick by tick.
    #[derive(Default)]
    struct EagerSampler {
        traces: HashMap<(NodeId, NodeId), TimeSeries>,
        accuracy: SelectionAccuracy,
    }

    impl EagerSampler {
        fn tick(&mut self, w: &World, now: SimTime) {
            let mut esnrs = Vec::new();
            for c in &w.clients {
                let (client, pos) = (c.id, w.cfg().client_pos(c.id, now));
                let aps = (0..w.cfg().ap_x.len()).map(|aui| w.cfg().ap_id(aui));
                wgtt_radio::batch::esnr_map(
                    aps.clone().map(|ap| w.air.link(ap, client)),
                    now,
                    pos,
                    Modulation::Qam16,
                    &mut esnrs,
                );
                let mut best: Option<f64> = None;
                for (ap, &e) in aps.zip(&esnrs) {
                    let trace = self.traces.entry((client, ap)).or_default();
                    trace.record(now, e);
                    if best.is_none_or(|be| e > be) {
                        best = Some(e);
                    }
                }
                if let (Some(s), Some(oracle_esnr)) = (w.serving_of(client), best) {
                    if oracle_esnr > 2.0 {
                        self.accuracy.total_s += SAMPLE_TICK.as_secs_f64();
                        let link = w.air.link(s, client);
                        if link.esnr_db_at(now, pos, Modulation::Qam16) >= oracle_esnr - 1.0 {
                            self.accuracy.hits_s += SAMPLE_TICK.as_secs_f64();
                        }
                    }
                }
            }
        }

        /// Both queries return these bits, for the ticks taken so far.
        fn assert_answered_by(&self, w: &World) {
            let bits = |ts: &TimeSeries| -> Vec<(SimTime, u64)> {
                let points = ts.points().iter();
                points.map(|&(t, e)| (t, e.to_bits())).collect()
            };
            assert_eq!(self.traces.len(), w.clients.len() * w.cfg().ap_x.len());
            for (&(client, ap), want) in &self.traces {
                assert_eq!(want.len() as u64, w.sample_ticks);
                let got = w.esnr_trace(client, ap);
                assert_eq!(bits(&got), bits(want), "{client:?} at {ap:?}");
            }
            let (got, want) = (w.selection_accuracy(), self.accuracy);
            assert_eq!(got.hits_s.to_bits(), want.hits_s.to_bits());
            assert_eq!(got.total_s.to_bits(), want.total_s.to_bits());
        }
    }

    /// Everything a run reports but the PHY work counters, in one string.
    fn outcome(r: &RunReport) -> String {
        use std::collections::BTreeMap;
        let bytes: BTreeMap<_, _> = r
            .flow_meters
            .iter()
            .map(|(f, m)| (f, m.total_bytes()))
            .collect();
        let udp: BTreeMap<_, _> = r.udp_counts.iter().collect();
        let serving: BTreeMap<_, _> = r
            .serving_series
            .iter()
            .map(|(c, s)| (c, s.points()))
            .collect();
        let last: BTreeMap<_, _> = r.last_delivery.iter().collect();
        format!(
            "{:?} {} {} {} {} {} {:?} {bytes:?} {udp:?} {last:?} {serving:?}",
            r.events,
            r.events_handled,
            r.frames_on_air,
            r.switches,
            r.failed_handshakes,
            r.ba_timeouts,
            r.uplink_dedup,
        )
    }

    fn queries_return_what_the_sampler_recorded(system: SystemKind) {
        // Nobody samples and nobody asks.
        let mut plain = two_car_world(system);
        drive_by_ticks(&mut plain, |_, _| {});

        // The old sampler at every tick, the queries held against it
        // half-way and at the end.
        let mut sampled = two_car_world(system);
        let mut eager = EagerSampler::default();
        let (mut served, mut unserved) = (0, 0);
        drive_by_ticks(&mut sampled, |w, tick| {
            eager.tick(w, tick);
            for c in &w.clients {
                match w.serving_of(c.id) {
                    Some(_) => served += 1,
                    None => unserved += 1,
                }
            }
            if tick == SimTime::ZERO + QUERY_RUN / 2 {
                eager.assert_answered_by(w);
            }
        });
        eager.assert_answered_by(&sampled);
        let acc = sampled.selection_accuracy();
        assert!(0.0 < acc.hits_s && acc.hits_s < acc.total_s, "{acc:?}");
        assert!(acc.total_s < served as f64 * SAMPLE_TICK.as_secs_f64());
        let baseline = sampled.clients[1].roamer.is_some();
        assert_eq!(unserved, if baseline { UNSERVED_TICKS.count() } else { 0 });
        assert_eq!(outcome(&sampled.report), outcome(&plain.report));

        // Asking, mid-run and twice over, is not an event: not even the
        // links' work counters move.
        let mut asked = two_car_world(system);
        drive_by_ticks(&mut asked, |w, tick| {
            if tick.as_nanos() % SimDuration::from_millis(250).as_nanos() == 0 {
                w.selection_accuracy();
                w.esnr_trace(w.clients[0].id, w.cfg().ap_id(3));
            }
        });
        assert_eq!(asked.selection_accuracy(), acc);
        assert_eq!(asked.selection_accuracy(), acc);
        assert_eq!(outcome(&asked.report), outcome(&plain.report));
        assert_eq!(asked.report.phy, plain.report.phy);
        let p = plain.report.phy;
        assert_eq!(
            p.rolls,
            p.rolls_exact + p.rolls_ceiling + p.rolls_bound + p.rolls_unread
        );
        assert_eq!(p.rolls_unread > 0, baseline);
    }

    #[test]
    fn wgtt_queries_return_what_the_sampler_recorded() {
        queries_return_what_the_sampler_recorded(wgtt());
    }

    #[test]
    fn baseline_queries_return_what_the_sampler_recorded() {
        queries_return_what_the_sampler_recorded(SystemKind::Enhanced80211r);
    }

    // ------------------------------------------------------- lazy links

    impl World {
        /// Draw every pair, as a world that drew them all in `new` would
        /// hold them.
        fn realize_all_links(&self) {
            for aui in 0..self.cfg().ap_x.len() {
                for c in &self.clients {
                    self.air.link(self.cfg().ap_id(aui), c.id);
                }
            }
        }

        fn links_realized(&self) -> usize {
            let links = self.air.copy_links();
            links.iter().filter(|s| s.get().is_some()).count()
        }
    }

    /// A 24-vehicle corridor two decode horizons long: some pairs lie out
    /// of every client's reach for the whole run.
    fn corridor_world() -> World {
        let fleet = crate::fleet::FleetConfig::corridor(24, 32);
        fleet.build_world(wgtt(), 7).0
    }

    /// `build`'s world run as it comes, against the same world with every
    /// pair drawn before `begin`: the same run, the same work, and the
    /// same answers to queries about pairs the first never drew. Returns
    /// how many links the first drew; `new` draws none.
    fn realizing_on_first_use_moves_nothing(build: impl Fn() -> World, run: SimDuration) -> usize {
        let mut lazy = build();
        assert_eq!(lazy.links_realized(), 0, "`new` drew a link");
        let mut eager = build();
        eager.realize_all_links();
        lazy.run(run);
        eager.run(run);
        assert_eq!(outcome(&lazy.report), outcome(&eager.report));
        let built = lazy.links_realized();
        assert_eq!(lazy.report.phy.links_built, built as u64);
        assert_eq!(
            eager.report.phy.links_built,
            eager.air.copy_links().len() as u64
        );
        let phy = PhyWork {
            links_built: eager.report.phy.links_built,
            ..lazy.report.phy
        };
        assert_eq!(phy, eager.report.phy);
        // Pair by pair: a drawn link did its eager twin's exact work, and
        // an undrawn pair's twin did none — the run evaluated nothing of
        // its channel.
        for (slot, twin) in lazy.air.copy_links().iter().zip(&eager.air.copy_links()) {
            let twin = twin.get().expect("drawn before `begin`").work();
            let work = slot.get().map(|link| link.work());
            assert_eq!(work.unwrap_or(twin), twin);
            assert!(work.is_some() || twin == LinkWork::default());
        }

        let bits = |ts: TimeSeries| -> Vec<(SimTime, u64)> {
            ts.points().iter().map(|&(t, e)| (t, e.to_bits())).collect()
        };
        let n = lazy.clients.len();
        let links = lazy.air.copy_links();
        let unbuilt = (0..links.len()).filter(|&p| links[p].get().is_none());
        for pair in unbuilt.take(2).chain([0]) {
            let (ap, client) = (lazy.cfg().ap_id(pair / n), lazy.clients[pair % n].id);
            let trace = bits(lazy.esnr_trace(client, ap));
            assert_eq!(trace.len() as u64, lazy.sample_ticks);
            assert_eq!(
                trace,
                bits(eager.esnr_trace(client, ap)),
                "{ap:?} to {client:?}"
            );
        }
        assert_eq!(lazy.selection_accuracy(), eager.selection_accuracy());
        assert_eq!(lazy.links_realized(), built, "asking realized a link");
        built
    }

    #[test]
    fn a_two_car_world_realizing_links_on_first_use_is_the_eager_one() {
        for system in [wgtt(), SystemKind::Enhanced80211r] {
            let built = realizing_on_first_use_moves_nothing(|| two_car_world(system), QUERY_RUN);
            assert_eq!(built, 16, "both cars pass every cell");
        }
    }

    #[test]
    fn a_corridor_realizing_links_on_first_use_is_the_eager_one() {
        let run = SimDuration::from_millis(500);
        let built = realizing_on_first_use_moves_nothing(corridor_world, run);
        // Fewer than the pairs inside some client's decode horizon at
        // the start, which every one of its frames was rolled at.
        let w = corridor_world();
        let reach = w.clients.iter().map(|c| {
            let pos = w.cfg().client_pos(c.id, SimTime::ZERO);
            let window = w.air.ap_window(pos.x);
            window
                .filter(|&aui| w.air.in_decode_horizon(aui, pos))
                .count()
        });
        let reach = reach.sum::<usize>();
        assert!(0 < built && built < reach, "{built} of {reach} in reach");
        // The count repeats exactly; a ceiling that drew its link would
        // draw every pair a frame was rolled at.
        assert_eq!(built, 423);
    }

    #[test]
    fn a_link_is_drawn_when_its_channel_is_first_evaluated() {
        let mut w = quick_world(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 1.0 }, 1);
        let client = w.client_ids()[0];
        let (near, far) = (w.cfg().ap_id(0), w.cfg().ap_id(7));
        let pair = |w: &World, ap| w.cfg().ap_index(ap) * w.clients.len();
        let drawn = |w: &World, ap| w.air.copy_links()[pair(w, ap)].get().is_some();
        // 109 m from the last AP: inside its decode horizon, under its
        // sidelobes, where even the static ceiling loses a 1500-byte MCS7
        // frame whatever the draw.
        let far_pos = Position::new(-55.0, 0.0);
        let far_ceiling = w.cfg().site(w.cfg().ap_index(far)).esnr_ceiling_db(far_pos);
        assert!(w.air.in_decode_horizon(w.cfg().ap_index(far), far_pos));
        assert_eq!(Mcs::Mcs7.per(far_ceiling + BOUND_MARGIN_DB, 1500), 1.0);
        for ms in 1..=5 {
            let now = SimTime::from_millis(ms);
            let pair = (far, client);
            assert!(!w.air.roll_mpdu(pair, far_pos, now, Mcs::Mcs7, 1500));
            w.air.rssi_ceiling_between(far, client, now);
            w.air.rssi_ceiling_between(client, far, now);
        }
        assert_eq!(w.air.work().rolls_ceiling, 5);
        assert_eq!(w.links_realized(), 0, "the ceiling drew a link");
        // A query works on a copy.
        w.sample_ticks = 3;
        w.esnr_trace(client, near);
        assert_eq!(w.links_realized(), 0, "a query drew a link");
        // On the first AP's boresight a control roll is not settled by
        // the ceiling: it evaluates the tap-gain bound, and that draws
        // the pair.
        let now = SimTime::from_millis(6);
        let boresight = Position::new(w.cfg().ap_x[0], 0.0);
        w.air.roll_control((near, client), boresight, now);
        assert!(w.air.work().rolls_ceiling == 5 && drawn(&w, near));
        assert_eq!(w.links_realized(), 1);
        // An exact received power draws the far pair too.
        w.air.rssi_between(far, client, now);
        assert!(drawn(&w, far));
        assert_eq!(w.links_realized(), 2);
    }

    #[test]
    fn a_district_realizes_its_pairs_as_the_whole_corridor_does() {
        // A link is a function of the pair's *global* ids: the second
        // district's first AP is the corridor's ninth.
        let mut fleet = crate::fleet::FleetConfig::corridor(6, 16);
        fleet.districts = 2;
        let (mono, _) = fleet.build_world(wgtt(), 5);
        let districts = fleet.district_worlds(wgtt(), 5);
        let t = SimTime::from_millis(3);
        for ((d, _), plan) in districts.iter().zip(fleet.district_plan(5)) {
            let n = d.clients.len();
            for pair in 0..d.air.copy_links().len() {
                let (aui, ci) = (pair / n, pair % n);
                let (ap, client) = (d.cfg().ap_id(aui), d.clients[ci].id);
                let pos = d.cfg().client_pos(client, t);
                let esnr = |w: &World| {
                    let link = w.air.link(ap, client);
                    link.esnr_db_at(t, pos, Modulation::Qam16).to_bits()
                };
                assert_eq!(
                    esnr(d),
                    esnr(&mono),
                    "AP {} of the district at AP {}",
                    aui,
                    plan.first_ap
                );
            }
        }
    }

    // ------------------------------------------------- AP range index

    /// What the range index replaced: every AP, the exact horizon gate.
    fn full_scan(w: &World, client: NodeId, now: SimTime) -> Vec<usize> {
        let pos = w.cfg().client_pos(client, now);
        let ap_pos = |aui| w.air.medium().position(w.cfg().ap_id(aui));
        (0..w.cfg().ap_x.len())
            .filter(|&aui| pos.distance_to(ap_pos(aui)) <= DECODE_HORIZON_M)
            .collect()
    }

    /// What the decode loops visit: the window, then the same gate.
    fn range_index(w: &World, client: NodeId, now: SimTime) -> Vec<usize> {
        let pos = w.cfg().client_pos(client, now);
        w.air
            .ap_window(pos.x)
            .filter(|&aui| w.air.in_decode_horizon(aui, pos))
            .collect()
    }

    #[test]
    fn range_index_visits_what_the_full_scan_accepts_in_the_same_order() {
        use crate::testbed::{Direction, StopAndGo};
        // Two 40-AP blocks 160 m apart, with one coincident pair.
        let mut ap_x: Vec<f64> = (0..40).map(|i| i as f64 * 8.0).collect();
        ap_x.extend((0..40).map(|i| 472.0 + i as f64 * 8.0));
        ap_x[7] = ap_x[6];
        let plan = |x, y, speed_mps, direction, stop, shuttle| ClientPlan {
            start: Position::new(x, y),
            speed_mps,
            direction,
            stop,
            shuttle,
        };
        let clients = vec![
            // Through both blocks and out the far end.
            plan(-150.0, 0.0, 31.0, Direction::East, None, None),
            // Held at a stop line inside the first block.
            plan(
                -15.0,
                0.0,
                12.0,
                Direction::East,
                Some(StopAndGo {
                    at_x: 100.0,
                    pause_s: 9.0,
                }),
                None,
            ),
            // Shuttles: several turn-arounds at each end of a block.
            plan(300.0, 0.0, 40.0, Direction::East, None, Some((-5.0, 317.0))),
            plan(
                500.0,
                -3.5,
                25.0,
                Direction::West,
                None,
                Some((467.0, 789.0)),
            ),
            // Level with the building line, exactly one horizon east of
            // the first AP: the `<=` boundary itself.
            plan(
                DECODE_HORIZON_M,
                crate::testbed::ROAD_OFFSET_M,
                0.0,
                Direction::East,
                None,
                None,
            ),
            // Parked past the far end, out of everyone's reach.
            plan(984.0, 0.0, 0.0, Direction::East, None, None),
        ];
        let mut cfg = TestbedConfig::paper_array().with_clients(clients);
        cfg.ap_x = ap_x;
        let w = World::new(cfg, wgtt(), vec![], 1);
        let mut visited = 0;
        for step in 0..800 {
            let now = SimTime::from_millis(step * 50);
            for client in w.client_ids() {
                let want = full_scan(&w, client, now);
                assert_eq!(range_index(&w, client, now), want, "{client:?} at {now}");
                visited += want.len();
            }
        }
        assert!(visited > 10_000, "the scenario must exercise the gate");
        // The boundary client hears the first AP, and the index is a
        // real restriction where it applies.
        let boundary = w.client_ids()[4];
        assert!(full_scan(&w, boundary, SimTime::ZERO).contains(&0));
        let parked = w.cfg().client_pos(w.client_ids()[5], SimTime::ZERO);
        assert!(w.air.ap_window(parked.x).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn an_unsorted_ap_array_is_rejected() {
        let mut cfg = TestbedConfig::paper_array();
        cfg.ap_x.swap(0, 1);
        World::new(cfg, wgtt(), vec![], 1);
    }

    // ------------------------------------------- outage accounting edges
    //
    // These drive `note_delivery`/`finish` directly (same-module
    // access) so each boundary condition is pinned exactly, without a
    // full event run in the way.

    /// A fresh world with one open-demand downlink client, its horizon
    /// pinned at `end`, ready for hand-fed deliveries.
    fn outage_rig(end: SimDuration) -> (World, NodeId) {
        let mut w = quick_world(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 2.5 }, 1);
        w.report.duration = end;
        let client = w.client_ids()[0];
        (w, client)
    }

    fn outage_samples(w: &World, client: NodeId) -> Vec<f64> {
        w.report
            .outage_durations
            .get(&client)
            .map(|d| d.cdf().into_iter().map(|(v, _)| v).collect())
            .unwrap_or_default()
    }

    #[test]
    fn outage_exactly_at_threshold_counts_and_a_hair_under_does_not() {
        let (mut w, client) = outage_rig(SimDuration::from_secs(1));
        // Exactly OUTAGE_MIN since traffic_start: `gap >= OUTAGE_MIN`
        // must include the boundary.
        w.note_delivery(client, SimTime::ZERO + OUTAGE_MIN);
        assert_eq!(outage_samples(&w, client), vec![0.2]);

        let (mut w2, c2) = outage_rig(SimDuration::from_secs(1));
        w2.note_delivery(c2, SimTime::from_micros(199_999));
        assert!(
            outage_samples(&w2, c2).is_empty(),
            "199.999 ms is not an outage"
        );
    }

    #[test]
    fn back_to_back_outages_split_by_zero_gap_delivery() {
        let (mut w, client) = outage_rig(SimDuration::from_secs(1));
        // First outage: nothing until 250 ms.
        w.note_delivery(client, SimTime::from_millis(250));
        // Zero-gap duplicate delivery at the same instant: no outage,
        // no corruption of the last-delivery anchor.
        w.note_delivery(client, SimTime::from_millis(250));
        // Second outage: silent again until 500 ms.
        w.note_delivery(client, SimTime::from_millis(500));
        assert_eq!(outage_samples(&w, client), vec![0.25, 0.25]);
        // Finishing closes the 500 ms → 1 s trailing gap as a third.
        w.finish();
        assert_eq!(outage_samples(&w, client), vec![0.25, 0.25, 0.5]);
    }

    #[test]
    fn only_delivery_being_the_final_frame_closes_leading_gap_only() {
        let (mut w, client) = outage_rig(SimDuration::from_secs(1));
        // The one and only delivery lands exactly at the end of the run:
        // the leading 1 s gap is an outage; the trailing gap is zero and
        // must NOT be double-counted when the run finishes.
        w.note_delivery(client, w.end_at());
        w.finish();
        assert_eq!(outage_samples(&w, client), vec![1.0]);
    }

    #[test]
    fn trailing_gap_is_not_closed_for_uplink_only_demand() {
        // An uplink-only client goes quiet on the downlink legitimately;
        // finishing must not invent a trailing outage for it.
        let mut w = quick_world(wgtt(), FlowSpec::UplinkUdp { rate_mbps: 0.064 }, 1);
        w.report.duration = SimDuration::from_secs(1);
        let client = w.client_ids()[0];
        w.note_delivery(client, SimTime::from_millis(300));
        w.finish();
        assert_eq!(
            outage_samples(&w, client),
            vec![0.3],
            "only the leading gap, never a trailing one, for uplink-only demand"
        );
    }
}
