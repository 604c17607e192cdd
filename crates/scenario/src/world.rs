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

use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;

use wgtt::ap::ApAgent;
use wgtt::controller::{Controller, ControllerAction};
use wgtt::messages::{BackhaulDest, BackhaulMsg, BACKHAUL_LATENCY};
use wgtt::switching::{PROCESSING_STD, START_PROCESSING_MEAN, STOP_PROCESSING_MEAN};
use wgtt::WgttConfig;
use wgtt_baseline::ap::BaselineAp;
use wgtt_baseline::roamer::{Roamer, RoamerAction, RoamerMode};
use wgtt_mac::aggregation::AggregationPolicy;
use wgtt_mac::airtime::{frame_airtime, SIFS_US};
use wgtt_mac::blockack::BaRecipient;
use wgtt_mac::downlink::TxSide;
use wgtt_mac::frame::{Frame, FrameKind, MgmtStep, Mpdu, NodeId, PacketRef};
use wgtt_mac::medium::{Medium, TxId};
use wgtt_mac::rate::RateController;
use wgtt_mac::sender::{Sender, Unacked};
use wgtt_mac::seq::seq_next;
use wgtt_mac::Mcs;
use wgtt_net::packet::{FlowId, Packet, PacketFactory};
use wgtt_net::wire::Ipv4Addr;
use wgtt_radio::fading::TapGains;
use wgtt_radio::link::{Link, LinkBudget, LinkSite};
use wgtt_radio::{Modulation, PathLossModel, Position};
use wgtt_sim::metrics::{Counter, Distribution, ThroughputMeter, TimeSeries};
use wgtt_sim::queue::{EventId, EventQueue};
use wgtt_sim::rng::{RngStream, Xoshiro256};
use wgtt_sim::time::{SimDuration, SimTime};

use crate::decide::{capture_survives, Ladder, Rung, Step};
pub use crate::flows::FlowSpec;
use crate::flows::{Asks, Flow};
use crate::testbed::{ClientPlan, TestbedConfig};

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
    plan: ClientPlan,
    ip: Ipv4Addr,
    /// Downlink data receive windows, one per transmitter identity
    /// (see `World::ba_rx_slot`). WGTT APs share one BSSID (one window,
    /// which survives switches by design); baseline APs are distinct
    /// transmitters with independent Block ACK sessions.
    ba_rx: Vec<BaRecipient>,
    /// Uplink: the next sequence number to assign, and the sender.
    up_next_seq: u16,
    uplink: Sender,
    /// This client's PHY/MAC random stream: backoff slots, per-MPDU
    /// error rolls on frames addressed to or sent by it, CSI noise on
    /// its readings, and control loss/jitter on its switch messages.
    /// Derived from the *global* vehicle index, so a client draws the
    /// same sequence whether it lives in a monolithic world or in a
    /// spatial shard.
    rng: Xoshiro256,
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
    /// run by `finalize`.
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

/// Declares [`EventCounts`] with its printing order and its sum from one
/// list of fields.
macro_rules! event_counts {
    ($($(#[$doc:meta])* $field:ident $label:literal,)*) => {
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
    backhaul_to_ap "Backhaul->AP",
    /// Backhaul deliveries to the controller.
    backhaul_to_controller "Backhaul->Controller",
    /// Controller timeout polls. Each switch start and each stop
    /// retransmission arms one deadline and a deadline is polled once, so
    /// this stays at or below `switches_started + stop_retransmits`.
    ctl_poll "CtlPoll",
    /// Backoff expiries.
    tx_start "TxStart",
    /// Frames leaving the air.
    tx_end "TxEnd",
    /// (Block) ACK responses.
    ba_response "BaResponse",
    /// Management-frame ACKs.
    mgmt_response "MgmtResponse",
    /// Contended management transmissions.
    mgmt_tx "MgmtTx",
    /// Block ACK timeouts.
    ba_timeout "BaTimeout",
    /// Traffic source ticks.
    traffic "Traffic",
    /// TCP retransmission timers, live and stale.
    tcp_timer "TcpTimer",
    /// Baseline beacons.
    beacon "Beacon",
    /// Baseline roamer polls.
    roam_poll "RoamPoll",
    /// Position refreshes.
    mobility "Mobility",
    /// Conference loss-feedback ticks.
    conf_feedback "ConfFeedback",
    /// Serving-AP / accuracy sampling ticks.
    sample_state "SampleState",
    /// Client keepalives.
    keepalive "Keepalive",
}

impl EventCounts {
    fn of(&mut self, ev: &Ev) -> &mut u64 {
        match ev {
            Ev::Backhaul {
                to: BackhaulTo::One(BackhaulDest::Controller),
                ..
            } => &mut self.backhaul_to_controller,
            Ev::Backhaul { .. } => &mut self.backhaul_to_ap,
            Ev::CtlPoll => &mut self.ctl_poll,
            Ev::TxStart { .. } => &mut self.tx_start,
            Ev::TxEnd { .. } => &mut self.tx_end,
            Ev::BaResponse { .. } => &mut self.ba_response,
            Ev::MgmtResponse { .. } => &mut self.mgmt_response,
            Ev::MgmtTx { .. } => &mut self.mgmt_tx,
            Ev::BaTimeout { .. } => &mut self.ba_timeout,
            Ev::Traffic { .. } => &mut self.traffic,
            Ev::TcpTimer { .. } => &mut self.tcp_timer,
            Ev::Beacon { .. } => &mut self.beacon,
            Ev::RoamPoll { .. } => &mut self.roam_poll,
            Ev::Mobility => &mut self.mobility,
            Ev::ConfFeedback { .. } => &mut self.conf_feedback,
            Ev::SampleState => &mut self.sample_state,
            Ev::Keepalive { .. } => &mut self.keepalive,
        }
    }
}

/// The ladder of the reception being rolled: one (link, instant, MCS)
/// at a time, replaced when a roll arrives for another. It — not the
/// link — carries the per-frame state, so per-pair memory does not grow
/// with what a frame happens to need.
struct RxContext {
    pair: usize,
    at: SimTime,
    mcs: Mcs,
    ladder: Ladder,
    /// The link's tap gains at `at`, once the bound rung has run; the
    /// exact rung synthesizes from them.
    gains: Option<TapGains>,
}

/// One (AP, client) pair's link, drawn the first time something asks
/// about its channel ([`World::link_at`]): a pointer until then. Its
/// ceilings need no draw — they are the AP's [`LinkSite`]'s.
type LinkSlot = OnceCell<Box<Link>>;

/// Where a queued backhaul message is delivered.
enum BackhaulTo {
    One(BackhaulDest),
    /// Each AP of the list `World::fanouts` holds under this index, in
    /// turn at one instant: the controller's per-packet replication
    /// (§3.1.2) and the `AssocSync` round. A second `Ev` variant would
    /// cost the niche that keeps `Ev` at 64 bytes.
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
    /// A (Block) ACK response due after SIFS + hardware jitter.
    BaResponse {
        from: NodeId,
        to: NodeId,
        start_seq: u16,
        bitmap: u64,
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

struct WgttSystem {
    cfg: WgttConfig,
    controller: Controller,
    aps: Vec<ApAgent>,
}

/// The system under test. `World` reaches it here: what both systems
/// share (every AP has a transmit side) comes back as one type, what is
/// one system's own as `None` under the other.
#[allow(clippy::large_enum_variant)] // one per world; boxing buys nothing
enum SystemState {
    Wgtt(WgttSystem),
    Baseline(Vec<BaselineAp>),
}

impl SystemState {
    fn wgtt(&mut self) -> Option<&mut WgttSystem> {
        match self {
            SystemState::Wgtt(w) => Some(w),
            SystemState::Baseline(_) => None,
        }
    }

    fn baseline(&mut self) -> Option<&mut [BaselineAp]> {
        match self {
            SystemState::Baseline(b) => Some(b),
            SystemState::Wgtt(_) => None,
        }
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
    cfg: TestbedConfig,
    queue: EventQueue<Ev>,
    medium: Medium,
    /// One radio link per (AP, client) pair, at
    /// `ap_index * clients.len() + client_index`, drawn by
    /// [`World::link_at`] when a verdict or a query first evaluates the
    /// pair's channel — never in [`World::new`]. A pair nothing
    /// evaluates costs a pointer.
    links: Vec<LinkSlot>,
    /// `root.derive("link")`, the stream every link's derives from.
    link_stream: RngStream,
    /// Each AP's [`LinkSite`] by local AP index: its position, and the
    /// geometry every ceiling and the initial association read.
    sites: Vec<LinkSite>,
    system: SystemState,
    clients: Vec<ClientNode>,
    /// First client NodeId: 100 for every paper-scale world, pushed up
    /// to the AP count for corridors with ≥ 100 APs so client ids can
    /// never collide with AP ids (`is_ap` is an id-range test).
    client_base: u32,
    flows: Vec<Flow>,
    factory: PacketFactory,
    /// Where a flow being called puts the packets it wants carried
    /// (reused across calls; zero steady-state allocation).
    outbox: Vec<Packet>,
    /// Every packet routed so far, by packet id (the factory counts from
    /// zero).
    packets: Vec<Option<Packet>>,
    /// Per-AP PHY/MAC random streams (indexed like the other per-AP
    /// vectors): contention backoff, Block-ACK response jitter, beacon
    /// deferral. Keyed by global AP id at derivation time.
    ap_rng: Vec<Xoshiro256>,
    /// One DCF gate per radio: APs by local index, then clients (see
    /// `World::station_index`).
    stations: Vec<Station>,
    /// Uplink Block-ACK receive windows per (AP, client), indexed like
    /// `links`.
    ap_up_rx: Vec<BaRecipient>,
    /// Deadlines that already have an `Ev::CtlPoll` in the queue: the
    /// controller asks for its next timeout after every dispatch, and one
    /// poll per deadline is all it needs.
    ctl_polls_armed: BTreeSet<SimTime>,
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
    /// Pool of reusable controller action buffers. Dispatching a
    /// controller action can recursively produce more controller work
    /// (a forwarded uplink TCP ack emits fresh downlink segments), so
    /// each dispatch depth pops its own buffer and returns it cleared —
    /// depth-first order preserved, zero steady-state allocation.
    ctl_bufs: Vec<Vec<ControllerAction>>,
    /// AP lists of the queued fan-outs, by their `BackhaulTo::Aps` index,
    /// and the indices no queued event holds. A delivered fan-out's list
    /// goes back empty with its storage, so steady state allocates
    /// nothing and `Ev` stays at 64 bytes.
    fanouts: Vec<Vec<NodeId>>,
    fanouts_free: Vec<u32>,
    /// Scratch for `end_uplink_data`'s per-AP decode loop (reused across
    /// APs and frames): the MPDUs one AP decoded, and the packets among
    /// them it had not seen before.
    decoded_scratch: Vec<Mpdu>,
    new_refs_scratch: Vec<PacketRef>,
    /// Scratch for `rx_survives`: each interferer with its RSSI ceiling.
    capture_scratch: Vec<(NodeId, f64)>,
    /// See [`RxContext`].
    rx_ctx: Option<RxContext>,
    end_at: SimTime,
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
/// Capture threshold: a reception survives an overlap when the wanted
/// signal exceeds the strongest interferer by this margin at the receiver.
const CAPTURE_MARGIN_DB: f64 = 10.0;
/// Sentinel packet id for keepalive frames (no packet-store entry).
const KEEPALIVE_PKT_ID: u64 = u64::MAX;
/// Beyond this AP–client distance a frame is treated as unreceivable,
/// so the every-AP decode loops skip the pair without consuming a random
/// draw. The skip is what keeps per-entity RNG streams identical between
/// a monolithic world and its spatial shards: a shard never even
/// iterates far-away APs, so the monolithic world must not draw for
/// them. The value is *not* where the PER reaches 1: `Mcs::per` scales
/// by `len/1500`, so a 64-byte control frame still decodes 22 % of the
/// time at −15 dB ESNR and control rolls pass out to the horizon
/// (DESIGN.md §7). That is why the static ceiling alone settles only
/// about half of the far control rolls and the ladder has a tap-gain
/// rung behind it — and why the horizon is ratcheted at 120 m until the
/// short-frame PER is fixed (ROADMAP item 4(iv); item 8 then derives the
/// gate).
const DECODE_HORIZON_M: f64 = 120.0;
/// Large-scale model and budget of same-kind (AP↔AP, client↔client)
/// interference, for which no fading link exists.
const SAME_KIND_PATHLOSS: PathLossModel = PathLossModel::roadside();
const SAME_KIND_BUDGET: LinkBudget = LinkBudget::testbed();

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
        let mut medium = Medium::roadside();
        let ap_positions = cfg.ap_positions();
        let n_aps = ap_positions.len();
        // Client ids historically start at 100; a fleet corridor with
        // ≥ 100 APs would alias AP ids into the client range, so the
        // base moves up with the AP count (identical to the old scheme
        // for every world the paper experiments build). Shards of a
        // larger corridor pass the fleet-wide base explicitly so client
        // ids stay global.
        let client_base = cfg
            .client_id_first
            .unwrap_or_else(|| 100u32.max(n_aps as u32));

        for (ai, &ap_pos) in ap_positions.iter().enumerate() {
            let ap_id = NodeId(cfg.ap_id_offset + ai as u32);
            medium.set_position(ap_id, ap_pos);
            if let Some(&ch) = cfg.ap_channels.get(ai) {
                medium.set_channel(ap_id, ch);
            }
        }

        let ap_ids: Vec<NodeId> = (0..n_aps as u32)
            .map(|ai| NodeId(cfg.ap_id_offset + ai))
            .collect();
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
                })
            }
            SystemKind::Enhanced80211r | SystemKind::Stock80211r => SystemState::Baseline(
                ap_ids
                    .iter()
                    .map(|&id| BaselineAp::new(id, root.derive_indexed("bl-ap", id.0 as u64)))
                    .collect(),
            ),
        };

        let clients: Vec<ClientNode> = cfg
            .clients
            .iter()
            .enumerate()
            .map(|(ci, &plan)| {
                let gci = cfg.client_index_offset + ci;
                let id = NodeId(client_base + ci as u32);
                medium.set_position(id, plan.position_at(SimTime::ZERO));
                let roamer = match system {
                    SystemKind::Wgtt(_) => None,
                    SystemKind::Enhanced80211r => Some(Roamer::new(RoamerMode::Enhanced {
                        hysteresis: SimDuration::from_secs(1),
                    })),
                    SystemKind::Stock80211r => Some(Roamer::new(RoamerMode::Stock {
                        history: SimDuration::from_secs(5),
                    })),
                };
                ClientNode {
                    id,
                    plan,
                    // Client addresses spread over the low two octets:
                    // `100 + gci` would overflow the single-octet form at
                    // gci = 156, which a fleet-sized world reaches easily.
                    // The *global* index keeps shard addressing identical
                    // to the monolithic world's.
                    ip: Ipv4Addr::new(172, 16, ((100 + gci) >> 8) as u8, (100 + gci) as u8),
                    ba_rx: vec![BaRecipient::default(); if roamer.is_some() { n_aps } else { 1 }],
                    up_next_seq: 0,
                    uplink: Sender::new(RateController::new(
                        root.derive_indexed("client-rate", gci as u64).rng(),
                    )),
                    rng: root.derive_indexed("client-phy", gci as u64).rng(),
                    roamer,
                }
            })
            .collect();

        let n_pairs = n_aps * cfg.clients.len();
        let mut world = World {
            queue: EventQueue::new(),
            medium,
            links: std::iter::repeat_with(LinkSlot::new)
                .take(n_pairs)
                .collect(),
            link_stream: root.derive("link"),
            sites: (0..n_aps).map(|aui| cfg.site(aui)).collect(),
            system: system_state,
            clients,
            client_base,
            flows: Vec::new(),
            factory: PacketFactory::new(),
            outbox: Vec::new(),
            packets: Vec::new(),
            ap_rng: ap_ids
                .iter()
                .map(|&id| root.derive_indexed("ap-phy", u64::from(id.0)).rng())
                .collect(),
            stations: vec![Station::default(); n_aps + cfg.clients.len()],
            ap_up_rx: vec![BaRecipient::default(); n_pairs],
            ctl_polls_armed: BTreeSet::new(),
            report: RunReport::default(),
            traffic_start: SimTime::ZERO,
            sample_lean: false,
            sample_ticks: 0,
            ctl_bufs: Vec::new(),
            fanouts: Vec::new(),
            fanouts_free: Vec::new(),
            decoded_scratch: Vec::new(),
            new_refs_scratch: Vec::new(),
            capture_scratch: Vec::new(),
            rx_ctx: None,
            end_at: SimTime::ZERO,
            cfg,
        };
        for (ci, spec) in flow_specs {
            let (id, c) = (FlowId(world.flows.len() as u32), &world.clients[ci]);
            world.flows.push(Flow::new(id, c.id, c.ip, spec));
        }
        world
    }

    // ------------------------------------------------------------ helpers

    fn client_index(&self, id: NodeId) -> usize {
        debug_assert!(
            id.0 >= self.client_base,
            "client_index called with a non-client id {id:?}"
        );
        id.0.saturating_sub(self.client_base) as usize
    }

    /// Global NodeId of the AP at local index `aui`.
    fn ap_id(&self, aui: usize) -> NodeId {
        NodeId(self.cfg.ap_id_offset + aui as u32)
    }

    /// Whether the AP at local index `aui` is close enough to a client
    /// at `pos` for any frame between them to be decodable at all. Pure
    /// geometry (the drive plan and the static AP grid), so both the
    /// monolithic world and a spatial shard skip exactly the same pairs
    /// — before any random draw.
    fn in_decode_horizon(&self, aui: usize, pos: Position) -> bool {
        pos.distance_to(self.sites[aui].ap_pos) <= DECODE_HORIZON_M
    }

    /// Local indices of the APs that can lie inside the decode horizon
    /// of a client at along-road coordinate `x`, ascending: a superset of
    /// the ones [`World::in_decode_horizon`] accepts, which every caller
    /// still applies: the bisected run of the sorted `ap_x` within the
    /// horizon along the road (no AP is nearer than its along-road
    /// offset), so an every-AP loop costs what is in range rather than
    /// what is in the world.
    fn ap_window(&self, x: f64) -> Range<usize> {
        // A millimetre of slack keeps rounding in the two bounds from
        // excluding an AP the exact test would accept.
        let reach = DECODE_HORIZON_M + 1e-3;
        let lo = self.cfg.ap_x.partition_point(|&a| a < x - reach);
        let hi = self.cfg.ap_x.partition_point(|&a| a <= x + reach);
        lo..hi
    }

    fn client_pos(&self, id: NodeId, now: SimTime) -> Position {
        self.clients[self.client_index(id)].plan.position_at(now)
    }

    /// Index of the (ap, client) pair in `links` and `ap_up_rx`.
    fn pair_index(&self, ap: NodeId, client: NodeId) -> usize {
        self.cfg.ap_index(ap) * self.clients.len() + self.client_index(client)
    }

    fn link(&self, ap: NodeId, client: NodeId) -> &Link {
        let pair = self.pair_index(ap, client);
        self.link_at(&self.links[pair], pair)
    }

    /// The link of `pair` held in `slot` — the world's own slot, or a
    /// query's copy of it — drawn there on first use by
    /// [`TestbedConfig::link`]: one fading realization, a pure function
    /// of the seed, the pair's *global* AP id and client index, the AP's
    /// site and the client's plan speed — shared verbatim between
    /// compared systems at equal seeds, and between a monolithic world
    /// and its districts. So where and when it is drawn moves no bit,
    /// and a link drawn but not yet asked anything holds the same empty
    /// memo and zero work as one never drawn.
    fn link_at<'a>(&self, slot: &'a LinkSlot, pair: usize) -> &'a Link {
        slot.get_or_init(|| {
            let (aui, ci) = (pair / self.clients.len(), pair % self.clients.len());
            Box::new(self.cfg.link(&self.link_stream, aui, ci))
        })
    }

    /// ESNR of the (ap, client) link right now, with the client at `pos`,
    /// under the reference 16-QAM constellation (the controller's
    /// selection metric).
    fn esnr_now(&self, ap: NodeId, client: NodeId, pos: Position, now: SimTime) -> f64 {
        self.link(ap, client)
            .esnr_db_at(now, pos, Modulation::Qam16)
    }

    /// The ESNR an AP *measures* from one frame's CSI: the true value
    /// plus estimation noise. Selection consumes these; delivery rolls
    /// use the true channel.
    fn measured_esnr(&mut self, ap: NodeId, client: NodeId, pos: Position, now: SimTime) -> f64 {
        let true_esnr = self.esnr_now(ap, client, pos, now);
        let ci = self.client_index(client);
        true_esnr + self.clients[ci].rng.normal_with(0.0, CSI_NOISE_DB)
    }

    /// The modelled link a transmission between `a` and `b` rides on, as
    /// `Ok((ap, client))` — or, for same-kind pairs (AP↔AP,
    /// client↔client), which have no fading model, `Err(rssi)`: the
    /// large-scale received power with omni gains.
    fn link_or_large_scale(
        &self,
        a: NodeId,
        b: NodeId,
        now: SimTime,
    ) -> Result<(NodeId, NodeId), f64> {
        match (self.cfg.is_ap(a), self.cfg.is_ap(b)) {
            (true, false) => Ok((a, b)),
            (false, true) => Ok((b, a)),
            (a_is_ap, _) => {
                let at = |n| {
                    if a_is_ap {
                        self.medium.position(n)
                    } else {
                        self.client_pos(n, now)
                    }
                };
                let pl = SAME_KIND_PATHLOSS.loss_db(at(a).distance_to(at(b)));
                Err(SAME_KIND_BUDGET.tx_power_dbm - pl)
            }
        }
    }

    /// Received power of a transmission from `a` at `b`, dBm, for
    /// capture comparisons.
    fn rssi_between(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        match self.link_or_large_scale(a, b, now) {
            // Power only — the fused sweep path; no 56-coefficient CSI
            // materialization for a capture comparison that never reads it.
            Ok((ap, client)) => self
                .link(ap, client)
                .rssi_dbm_at(now, self.client_pos(client, now)),
            Err(rssi) => rssi,
        }
    }

    /// What [`World::rssi_between`] can at most return: the AP's site
    /// answers, and no link is drawn.
    fn rssi_ceiling_between(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        match self.link_or_large_scale(a, b, now) {
            Ok((ap, client)) => {
                self.sites[self.cfg.ap_index(ap)].rssi_ceiling_dbm(self.client_pos(client, now))
            }
            Err(rssi) => rssi,
        }
    }

    /// Capture-aware reception check: a temporal overlap only corrupts
    /// the frame when the strongest interferer is within
    /// [`CAPTURE_MARGIN_DB`] of the wanted signal at the receiver — the
    /// power disparity the paper credits (sidelobes) for its negligible
    /// ACK collision rate (§5.3.2). Evaluates only the received powers
    /// the comparison turns on (`crate::decide::capture_survives`).
    fn rx_survives(&mut self, tx: TxId, from: NodeId, rx: NodeId, now: SimTime) -> bool {
        // Only overlappers that can actually corrupt this receiver
        // (same channel, within interference range) enter the capture
        // comparison — a sender several cells away overlaps in time but
        // contributes nothing here, exactly as in `Medium::outcome_for`.
        // One walk: no such overlapper is `TxOutcome::Clean`.
        let mut interferers = std::mem::take(&mut self.capture_scratch);
        interferers.clear();
        interferers.extend(
            self.medium
                .corrupters(tx, rx)
                .map(|n| (n, self.rssi_ceiling_between(n, rx, now))),
        );
        if interferers.is_empty() {
            self.capture_scratch = interferers;
            return true;
        }
        let mut evaluated = 0;
        let survives = capture_survives(
            CAPTURE_MARGIN_DB,
            self.rssi_ceiling_between(from, rx, now),
            &interferers,
            |n| {
                evaluated += 1;
                self.rssi_between(n.copied().unwrap_or(from), rx, now)
            },
        );
        self.capture_scratch = interferers;
        self.report.phy.capture_checks += 1;
        self.report.phy.capture_exact += evaluated;
        survives
    }

    /// The uniform draw of one delivery roll, from the client's stream —
    /// every roll's only draw site, whether or not a verdict follows.
    fn roll_draw(&mut self, client: NodeId) -> f64 {
        self.report.phy.rolls += 1;
        let ci = self.client_index(client);
        self.clients[ci].rng.uniform()
    }

    /// Roll delivery of one MPDU of `len` bytes at `mcs` over the
    /// (ap, client) link at `now`, with the client at `pos`: one uniform
    /// draw from the client's stream, then the ladder — whose answer is
    /// `draw < mcs.per(exact ESNR, len)` however few rungs it climbs.
    /// The ceiling rung asks the AP's site; only the bound and exact
    /// rungs draw the link.
    fn roll_mpdu(
        &mut self,
        ap: NodeId,
        client: NodeId,
        pos: Position,
        now: SimTime,
        mcs: Mcs,
        len: u16,
    ) -> bool {
        let u = self.roll_draw(client);
        let pair = self.pair_index(ap, client);
        let same = |c: &RxContext| c.pair == pair && c.at == now && c.mcs == mcs;
        if !self.rx_ctx.as_ref().is_some_and(same) {
            let mut ladder = Ladder::default();
            let drawn = self.links[pair].get();
            if let Some(esnr) = drawn.and_then(|l| l.esnr_memo(now, pos, mcs.modulation())) {
                ladder.set(mcs, Rung::Exact, esnr);
            }
            self.rx_ctx = Some(RxContext {
                pair,
                at: now,
                mcs,
                ladder,
                gains: None,
            });
        }
        loop {
            let step = (self.rx_ctx.as_mut().expect("context just ensured").ladder).step(u, len);
            let ctx = self.rx_ctx.as_ref().expect("context just ensured");
            let (rung, esnr_db) = match step {
                Step::Lost(lost, rung) => {
                    let phy = &mut self.report.phy;
                    match rung {
                        Rung::Ceiling => phy.rolls_ceiling += 1,
                        Rung::Bound => phy.rolls_bound += 1,
                        Rung::Exact => phy.rolls_exact += 1,
                    }
                    return !lost;
                }
                Step::Need(Rung::Ceiling) => {
                    // The site's ceiling. A drawn link's memo supplies the
                    // mean SNR, so the rungs above find the geometry done.
                    let site = &self.sites[self.cfg.ap_index(ap)];
                    let ceiling = match self.links[pair].get() {
                        Some(link) => link.mean_snr_db_at(now, pos) + site.fading_peak_db,
                        None => site.esnr_ceiling_db(pos),
                    };
                    (Rung::Ceiling, ceiling)
                }
                Step::Need(Rung::Bound) => {
                    let link = self.link_at(&self.links[pair], pair);
                    let ctx = self.rx_ctx.as_mut().expect("context just ensured");
                    let gains = ctx.gains.insert(link.fading.tap_gains_at(now));
                    (Rung::Bound, link.esnr_bound_db_at(now, pos, gains))
                }
                Step::Need(Rung::Exact) => {
                    let link = self.link_at(&self.links[pair], pair);
                    let gains = ctx.gains.as_ref().expect("the bound rung ran first");
                    let esnr = link.esnr_db_from_gains(now, pos, mcs.modulation(), gains);
                    (Rung::Exact, esnr)
                }
            };
            let ctx = self.rx_ctx.as_mut().expect("context just ensured");
            ctx.ladder.set(mcs, rung, esnr_db);
        }
    }

    /// Roll reception of a short control frame (Block ACK, ACK, beacon,
    /// management), which is sent at a robust basic rate: a 64-byte
    /// frame at the 24 Mbit/s basic rate ≈ MCS2 PER.
    fn roll_control(&mut self, ap: NodeId, client: NodeId, pos: Position, now: SimTime) -> bool {
        self.roll_mpdu(ap, client, pos, now, Mcs::Mcs2, 64)
    }

    /// A roll nobody reads: the draw is taken, so the client's stream
    /// stands where a decided roll would have left it, and nothing is
    /// decided.
    fn roll_unread(&mut self, client: NodeId) {
        self.roll_draw(client);
        self.report.phy.rolls_unread += 1;
    }

    fn store_packet(&mut self, p: Packet) {
        set_at(&mut self.packets, p.id as usize, Some(p), None);
    }

    /// Which of a client's Block ACK receive windows a downlink
    /// transmitter uses: the one shared-BSSID window under WGTT, the
    /// individual AP's otherwise.
    fn ba_rx_slot(&self, ap: NodeId) -> usize {
        match self.system {
            SystemState::Wgtt(_) => 0,
            SystemState::Baseline(_) => self.cfg.ap_index(ap),
        }
    }

    /// Resolve an in-flight packet ref. `None` — a ref outliving its
    /// store entry (duplicate delivery racing cleanup in a large world)
    /// — is the caller's cue to skip the frame, not a crash.
    fn packet_by_ref(&self, r: PacketRef) -> Option<Packet> {
        self.packets
            .get(usize::try_from(r.id).ok()?)
            .copied()
            .flatten()
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
    /// [`World::finish`] — the sharded engine advances many worlds in
    /// lockstep windows. `begin` + `advance_until(end)` + `finish` is
    /// exactly [`World::run`].
    pub fn begin(&mut self, duration: SimDuration) {
        self.end_at = SimTime::ZERO + duration;
        self.report.duration = duration;
        self.bootstrap();
    }

    /// The run horizon set by [`World::begin`].
    pub fn end_at(&self) -> SimTime {
        self.end_at
    }

    /// Drain every event up to `until` (capped at the run horizon).
    /// Advancing in windows is byte-identical to one straight pass: the
    /// queue pops in (time, insertion) order either way.
    pub fn advance_until(&mut self, until: SimTime) {
        let cap = if until < self.end_at {
            until
        } else {
            self.end_at
        };
        while let Some((now, ev)) = self.queue.pop_until(cap) {
            self.report.events_handled += 1;
            *self.report.events.of(&ev) += 1;
            self.handle(now, ev);
        }
    }

    /// Close out the run: fold per-flow and per-client observables into
    /// [`World::report`].
    pub fn finish(&mut self) {
        self.finalize();
    }

    fn bootstrap(&mut self) {
        // Initial association: strongest mean-SNR AP at the start position,
        // which is site geometry — no link is drawn to answer it.
        for ci in 0..self.clients.len() {
            let client = self.clients[ci].id;
            let pos = self.client_pos(client, SimTime::ZERO);
            // Each site evaluated once; the last of equal maxima wins, as
            // in `Iterator::max_by`.
            let (best, _) = self
                .sites
                .iter()
                .map(|site| site.mean_snr_db(pos))
                .enumerate()
                .reduce(|best, next| {
                    let order = next.1.partial_cmp(&best.1).expect("SNR is never NaN");
                    if order.is_ge() {
                        next
                    } else {
                        best
                    }
                })
                .expect("at least one AP");
            let best_ap = self.ap_id(best);
            self.with_controller(SimTime::ZERO, |c, buf| {
                c.on_client_associated(client, best_ap, SimTime::ZERO, buf);
            });
            if let Some(roamer) = self.clients[ci].roamer.as_mut() {
                roamer.set_associated(best_ap, SimTime::ZERO);
            }
        }
        // Periodic machinery.
        self.queue
            .schedule(SimTime::ZERO + MOBILITY_TICK, Ev::Mobility);
        self.queue
            .schedule(SimTime::ZERO + SAMPLE_TICK, Ev::SampleState);
        if self.system.baseline().is_some() {
            for ai in 0..self.cfg.ap_x.len() {
                // Stagger beacons across APs as real deployments do.
                let offset =
                    SimDuration::from_millis((ai as u64 * 100) / self.cfg.ap_x.len() as u64);
                self.queue.schedule(
                    SimTime::ZERO + offset,
                    Ev::Beacon {
                        ap: NodeId(self.cfg.ap_id_offset + ai as u32),
                        retry: false,
                    },
                );
            }
            for c in &self.clients {
                self.queue
                    .schedule(SimTime::ZERO + ROAM_POLL, Ev::RoamPoll { client: c.id });
            }
        }
        // Client keepalives (staggered so they never systematically
        // collide with each other).
        for (ci, c) in self.clients.iter().enumerate() {
            let gci = self.cfg.client_index_offset + ci;
            self.queue.schedule(
                SimTime::ZERO + SimDuration::from_millis(1 + gci as u64 * 7),
                Ev::Keepalive { client: c.id },
            );
        }
        // Traffic.
        let t0 = self.traffic_start;
        for fi in 0..self.flows.len() as u32 {
            self.with_flow(FlowId(fi), SimTime::ZERO, |f, _, _| f.start_at(t0));
        }
    }

    /// Record a decoded downlink A-MPDU for `client` and close any
    /// outage ([`OUTAGE_MIN`] or longer since the previous delivery,
    /// or since `traffic_start` for the first one).
    fn note_delivery(&mut self, client: NodeId, now: SimTime) {
        let from = self
            .report
            .last_delivery
            .get(&client)
            .copied()
            .unwrap_or(self.traffic_start);
        let gap = now.saturating_since(from);
        if gap >= OUTAGE_MIN {
            self.report
                .outage_durations
                .entry(client)
                .or_default()
                .record(gap.as_secs_f64());
        }
        self.report.last_delivery.insert(client, now);
    }

    fn finalize(&mut self) {
        let phy = &mut self.report.phy;
        (phy.syntheses, phy.sweeps, phy.links_built) = (0, 0, 0);
        for link in self.links.iter().filter_map(LinkSlot::get) {
            let work = link.work();
            phy.syntheses += u64::from(work.syntheses);
            phy.sweeps += u64::from(work.sweeps);
            phy.links_built += 1;
        }
        for flow in &self.flows {
            flow.fold_into(&mut self.report);
        }
        for c in &self.clients {
            if let Some(r) = &c.roamer {
                self.report.failed_handshakes += r.failed_handshakes;
            }
        }
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
        let open_demand: HashSet<NodeId> = self
            .flows
            .iter()
            .filter(|f| f.wants_downlink())
            .map(|f| f.client)
            .collect();
        for (client, last) in self.report.last_delivery.clone() {
            if !open_demand.contains(&client) {
                continue;
            }
            let gap = self.end_at.saturating_since(last);
            if gap >= OUTAGE_MIN {
                self.report
                    .outage_durations
                    .entry(client)
                    .or_default()
                    .record(gap.as_secs_f64());
            }
        }
        match &self.system {
            SystemState::Wgtt(WgttSystem {
                controller, aps, ..
            }) => {
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
                self.report.switches = self
                    .clients
                    .iter()
                    .flat_map(|c| &c.roamer)
                    .map(|r| r.switches)
                    .sum();
            }
        }
    }
}

include!("world_events.rs");
include!("world_mac.rs");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::ClientPlan;
    use wgtt_radio::link::{LinkWork, BOUND_MARGIN_DB};

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
                .derive_indexed(ap_label, u64::from(w.ap_id(ai).0))
                .derive_indexed(rate_label, u64::from(client.0));
            let mut model = Sender::new(RateController::new(stream.rng()));
            if let Some(s) = w.system.wgtt() {
                let (k, switch_id) = (0, 0);
                s.aps[ai].on_backhaul(BackhaulMsg::Start {
                    client,
                    k,
                    switch_id,
                });
            }
            let mut picks = Vec::new();
            for index in 0..100u16 {
                let (from, to) = (SERVER, w.clients[0].ip);
                let packet = w
                    .factory
                    .udp(FlowId(0), from, to, index.into(), 1500, SimTime::ZERO);
                if let Some(s) = w.system.wgtt() {
                    s.aps[ai].on_backhaul(BackhaulMsg::DownlinkData {
                        client,
                        index,
                        packet,
                    });
                }
                if let Some(aps) = w.system.baseline() {
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
            let [a, b] = [0, 1].map(|aui| w.sites[aui].mean_snr_db(plan.start));
            assert_eq!(a.to_bits(), b.to_bits(), "the two sites must tie");
            w.begin(SimDuration::from_millis(1));
            let client = w.clients[0].id;
            assert_eq!(w.serving_of(client), Some(w.ap_id(1)));
        }
    }

    #[test]
    fn an_event_fits_a_cache_line() {
        assert!(std::mem::size_of::<Ev>() <= 64);
    }

    #[test]
    fn fanout_reaches_each_ap_it_names_and_counts_the_id_that_is_none() {
        let mut w = quick_world(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 1.0 }, 1);
        w.traffic_start = SimTime::from_secs(1);
        w.begin(SimDuration::from_secs(1));
        let client = w.client_ids()[0];
        let (from, to) = (SERVER, w.clients[0].ip);
        let latency = BACKHAUL_LATENCY;
        for index in 0..3u16 {
            let now = SimTime::ZERO + latency.times(2 * u64::from(index) + 1);
            w.advance_until(now);
            let packet = w.factory.udp(FlowId(0), from, to, index.into(), 1500, now);
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
            let aps = &w.system.wgtt().expect("a WGTT world").aps;
            let backlogs: Vec<usize> = aps.iter().map(|ap| ap.backlog(client)).collect();
            assert_eq!(backlogs, [0, 0, sent, 0, 0, sent, 0, 0]);
        }
        // The association's sync round (its Start is still being
        // processed), then one event per fan-out; and the one list went
        // back each time to be used again.
        assert_eq!(w.report.events.backhaul_to_ap, 1 + 3);
        assert_eq!(w.fanouts_free.len(), w.fanouts.len());
        assert_eq!(w.fanouts.len(), 1);
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
            let snd = w.flows[0].tcp_sender();
            let (deadline, rto, fired) = (snd.rto_deadline(), snd.rto(), snd.stats.timeouts);
            // To the deadline's last nanosecond but one, if a step reaches.
            let eve = deadline.map(|d| d - ns).filter(|&t| t <= now + step);
            now = eve.unwrap_or(now + step);
            w.advance_until(now);
            let snd = w.flows[0].tcp_sender();
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
            let snd = w.flows[0].tcp_sender();
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
                let (client, pos) = (c.id, w.client_pos(c.id, now));
                let aps = (0..w.cfg.ap_x.len()).map(|aui| w.ap_id(aui));
                wgtt_radio::batch::esnr_map(
                    aps.clone().map(|ap| w.link(ap, client)),
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
                        if w.esnr_now(s, client, pos, now) >= oracle_esnr - 1.0 {
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
            assert_eq!(self.traces.len(), w.clients.len() * w.cfg.ap_x.len());
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
                w.esnr_trace(w.clients[0].id, w.ap_id(3));
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
            for pair in 0..self.links.len() {
                self.link_at(&self.links[pair], pair);
            }
        }

        fn links_realized(&self) -> usize {
            self.links.iter().filter(|s| s.get().is_some()).count()
        }
    }

    #[test]
    fn a_link_slot_is_one_pointer() {
        assert!(std::mem::size_of::<LinkSlot>() <= 8);
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
        assert_eq!(eager.report.phy.links_built, eager.links.len() as u64);
        let phy = PhyWork {
            links_built: eager.report.phy.links_built,
            ..lazy.report.phy
        };
        assert_eq!(phy, eager.report.phy);
        // Pair by pair: a drawn link did its eager twin's exact work, and
        // an undrawn pair's twin did none — the run evaluated nothing of
        // its channel.
        for (slot, twin) in lazy.links.iter().zip(&eager.links) {
            let twin = twin.get().expect("drawn before `begin`").work();
            let work = slot.get().map(|link| link.work());
            assert_eq!(work.unwrap_or(twin), twin);
            assert!(work.is_some() || twin == LinkWork::default());
        }

        let bits = |ts: TimeSeries| -> Vec<(SimTime, u64)> {
            ts.points().iter().map(|&(t, e)| (t, e.to_bits())).collect()
        };
        let n = lazy.clients.len();
        let unbuilt = (0..lazy.links.len()).filter(|&p| lazy.links[p].get().is_none());
        for pair in unbuilt.take(2).chain([0]) {
            let (ap, client) = (lazy.ap_id(pair / n), lazy.clients[pair % n].id);
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
            let pos = c.plan.position_at(SimTime::ZERO);
            let window = w.ap_window(pos.x);
            window.filter(|&aui| w.in_decode_horizon(aui, pos)).count()
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
        let (near, far) = (w.ap_id(0), w.ap_id(7));
        let drawn = |w: &World, ap| w.links[w.pair_index(ap, client)].get().is_some();
        // 109 m from the last AP: inside its decode horizon, under its
        // sidelobes, where even the static ceiling loses a 1500-byte MCS7
        // frame whatever the draw.
        let far_pos = Position::new(-55.0, 0.0);
        let far_ceiling = w.sites[w.cfg.ap_index(far)].esnr_ceiling_db(far_pos);
        assert!(w.in_decode_horizon(w.cfg.ap_index(far), far_pos));
        assert_eq!(Mcs::Mcs7.per(far_ceiling + BOUND_MARGIN_DB, 1500), 1.0);
        for ms in 1..=5 {
            let now = SimTime::from_millis(ms);
            assert!(!w.roll_mpdu(far, client, far_pos, now, Mcs::Mcs7, 1500));
            w.rssi_ceiling_between(far, client, now);
            w.rssi_ceiling_between(client, far, now);
        }
        assert_eq!(w.report.phy.rolls_ceiling, 5);
        assert_eq!(w.links_realized(), 0, "the ceiling drew a link");
        // A query works on a copy.
        w.sample_ticks = 3;
        w.esnr_trace(client, near);
        assert_eq!(w.links_realized(), 0, "a query drew a link");
        // On the first AP's boresight a control roll is not settled by
        // the ceiling: it evaluates the tap-gain bound, and that draws
        // the pair.
        let now = SimTime::from_millis(6);
        w.roll_control(near, client, Position::new(w.cfg.ap_x[0], 0.0), now);
        assert!(w.report.phy.rolls_ceiling == 5 && drawn(&w, near));
        assert_eq!(w.links_realized(), 1);
        // An exact received power draws the far pair too.
        w.rssi_between(far, client, now);
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
            for pair in 0..d.links.len() {
                let (aui, ci) = (pair / n, pair % n);
                let whole = (plan.first_ap + aui) * mono.clients.len() + plan.first_vehicle + ci;
                let pos = d.clients[ci].plan.position_at(t);
                let esnr = |w: &World, p| {
                    let link = w.link_at(&w.links[p], p);
                    link.esnr_db_at(t, pos, Modulation::Qam16).to_bits()
                };
                assert_eq!(
                    esnr(d, pair),
                    esnr(&mono, whole),
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
        let pos = w.client_pos(client, now);
        (0..w.cfg.ap_x.len())
            .filter(|&aui| pos.distance_to(w.medium.position(w.ap_id(aui))) <= DECODE_HORIZON_M)
            .collect()
    }

    /// What the decode loops visit: the window, then the same gate.
    fn range_index(w: &World, client: NodeId, now: SimTime) -> Vec<usize> {
        let pos = w.client_pos(client, now);
        w.ap_window(pos.x)
            .filter(|&aui| w.in_decode_horizon(aui, pos))
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
        let parked = w.client_pos(w.client_ids()[5], SimTime::ZERO);
        assert!(w.ap_window(parked.x).is_empty());
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
    // These drive `note_delivery`/`finalize` directly (same-module
    // access) so each boundary condition is pinned exactly, without a
    // full event run in the way.

    /// A fresh world with one open-demand downlink client, its horizon
    /// pinned at `end`, ready for hand-fed deliveries.
    fn outage_rig(end: SimDuration) -> (World, NodeId) {
        let mut w = quick_world(wgtt(), FlowSpec::DownlinkUdp { rate_mbps: 2.5 }, 1);
        w.end_at = SimTime::ZERO + end;
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
        // Finalize closes the 500 ms → 1 s trailing gap as a third.
        w.finalize();
        assert_eq!(outage_samples(&w, client), vec![0.25, 0.25, 0.5]);
    }

    #[test]
    fn only_delivery_being_the_final_frame_closes_leading_gap_only() {
        let (mut w, client) = outage_rig(SimDuration::from_secs(1));
        // The one and only delivery lands exactly at the end of the run:
        // the leading 1 s gap is an outage; the trailing gap is zero and
        // must NOT be double-counted by the finalize pass.
        w.note_delivery(client, w.end_at);
        w.finalize();
        assert_eq!(outage_samples(&w, client), vec![1.0]);
    }

    #[test]
    fn trailing_gap_is_not_closed_for_uplink_only_demand() {
        // An uplink-only client goes quiet on the downlink legitimately;
        // finalize must not invent a trailing outage for it.
        let mut w = quick_world(wgtt(), FlowSpec::UplinkUdp { rate_mbps: 0.064 }, 1);
        w.end_at = SimTime::ZERO + SimDuration::from_secs(1);
        w.report.duration = SimDuration::from_secs(1);
        let client = w.client_ids()[0];
        w.note_delivery(client, SimTime::from_millis(300));
        w.finalize();
        assert_eq!(
            outage_samples(&w, client),
            vec![0.3],
            "only the leading gap, never a trailing one, for uplink-only demand"
        );
    }
}
