//! The air: who hears a frame, and whether it decodes.
//!
//! [`Air`] owns what lies between a transmitter and its receivers: the
//! shared [`Medium`], one [`Link`] per (AP, client) pair drawn on first
//! use, each AP's [`LinkSite`], the DCF gate of every
//! radio with its random stream, and the APs' uplink Block ACK windows.
//! It answers "did this frame reach whom" — the decode-horizon gate, the
//! capture check and the delivery roll's ladder — and counts what that
//! cost in [`PhyWork`].

use std::cell::OnceCell;
use std::ops::Range;

use wgtt_mac::airtime::frame_airtime;
use wgtt_mac::blockack::BaRecipient;
use wgtt_mac::frame::{Frame, Mpdu, NodeId, PacketRef};
use wgtt_mac::medium::{Medium, TxId};
use wgtt_mac::Mcs;
use wgtt_radio::fading::TapGains;
use wgtt_radio::link::{Link, LinkBudget, LinkSite};
use wgtt_radio::{Modulation, PathLossModel, Position};
use wgtt_sim::queue::EventId;
use wgtt_sim::rng::{RngStream, Xoshiro256};
use wgtt_sim::time::SimTime;

use super::{PhyWork, CSI_NOISE_DB};
use crate::decide::{capture_survives, Ladder, Rung, Step};
use crate::testbed::TestbedConfig;

/// Capture threshold: a reception survives an overlap when the wanted
/// signal exceeds the strongest interferer by this margin at the receiver.
const CAPTURE_MARGIN_DB: f64 = 10.0;
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
pub(super) const DECODE_HORIZON_M: f64 = 120.0;
/// Large-scale model and budget of same-kind (AP↔AP, client↔client)
/// interference, for which no fading link exists.
const SAME_KIND_PATHLOSS: PathLossModel = PathLossModel::roadside();
const SAME_KIND_BUDGET: LinkBudget = LinkBudget::testbed();

/// What a node id names, with its index into the per-role tables.
#[derive(Clone, Copy)]
pub(super) enum Role {
    Ap(usize),
    Client(usize),
}

/// One radio, AP or client: its DCF gate — at most one backoff armed
/// and one A-MPDU exchange pending at a time — and its PHY/MAC stream.
pub(super) struct Radio {
    /// An AP's: contention backoff, Block ACK response jitter, beacon
    /// deferral; keyed by its global id. A client's: backoff slots, the
    /// error roll of every MPDU sent to or by it, CSI noise on its
    /// readings, its Block ACK jitter and the control loss and jitter of
    /// its switch messages; keyed by the *global* vehicle index, so it
    /// draws the same sequence in a monolithic world as in a shard.
    pub(super) rng: Xoshiro256,
    /// An `Ev::TxStart` is queued.
    pub(super) tx_scheduled: bool,
    /// Backoff stage: consecutive timeouts, capped at CWmax's.
    pub(super) backoff: u8,
    pub(super) ba_timeout_ev: Option<EventId>,
    /// Whom the pending exchange addresses: `Some` from the moment an
    /// A-MPDU goes out until its Block ACK or its timeout settles it.
    pub(super) peer: Option<NodeId>,
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
/// about its channel ([`Air::link_at`]): a pointer until then. Its
/// ceilings need no draw — they are the AP's [`LinkSite`]'s.
pub(super) type LinkSlot = OnceCell<Box<Link>>;

pub(super) struct Air {
    /// The testbed's layout — AP sites and channels, the clients' drive
    /// plans, the id ranges — that every question asked here reads.
    /// `World` reads its ids here too.
    cfg: TestbedConfig,
    medium: Medium,
    /// One radio link per (AP, client) pair, at
    /// `ap_index * clients + client_index`, drawn by [`Air::link_at`]
    /// when a verdict or a query first evaluates the pair's channel —
    /// never in [`Air::new`]. A pair nothing evaluates costs a pointer.
    links: Vec<LinkSlot>,
    /// `root.derive("link")`, the stream every link's derives from.
    link_stream: RngStream,
    /// Each AP's [`LinkSite`] by local AP index: its position, and the
    /// geometry every ceiling and the initial association read.
    sites: Vec<LinkSite>,
    /// APs by local index, then clients.
    radios: Vec<Radio>,
    /// Uplink Block-ACK receive windows per (AP, client), indexed like
    /// `links`.
    ap_up_rx: Vec<BaRecipient>,
    /// See [`RxContext`].
    rx_ctx: Option<RxContext>,
    /// Scratch for [`Air::hear_uplink`] (reused across APs and frames):
    /// the MPDUs one AP decoded, and the packets among them it had not
    /// seen before.
    decoded: Vec<Mpdu>,
    fresh: Vec<PacketRef>,
    /// Scratch for `rx_survives`: each interferer with its RSSI ceiling.
    capture: Vec<(NodeId, f64)>,
    /// The rolls and capture checks so far ([`Air::work`] adds the
    /// links' arithmetic).
    phy: PhyWork,
}

impl Air {
    /// `cfg`'s air, every client where its plan starts; no link drawn.
    pub(super) fn new(cfg: TestbedConfig, root: &RngStream) -> Self {
        let n_aps = cfg.ap_x.len();
        let n_pairs = n_aps * cfg.clients.len();
        let mut medium = Medium::roadside();
        for (ai, &ap_pos) in cfg.ap_positions().iter().enumerate() {
            medium.set_position(cfg.ap_id(ai), ap_pos);
            if let Some(&ch) = cfg.ap_channels.get(ai) {
                medium.set_channel(cfg.ap_id(ai), ch);
            }
        }
        for (ci, plan) in cfg.clients.iter().enumerate() {
            medium.set_position(cfg.client_id(ci), plan.position_at(SimTime::ZERO));
        }
        let radio = |label, i| Radio {
            rng: root.derive_indexed(label, i).rng(),
            tx_scheduled: false,
            backoff: 0,
            ba_timeout_ev: None,
            peer: None,
        };
        let ap = |ai| radio("ap-phy", u64::from(cfg.ap_id(ai).0));
        let client = |ci| radio("client-phy", (cfg.client_index_offset + ci) as u64);
        let radios = (0..n_aps).map(ap).chain((0..cfg.clients.len()).map(client));
        Air {
            medium,
            links: (0..n_pairs).map(|_| LinkSlot::new()).collect(),
            link_stream: root.derive("link"),
            sites: (0..n_aps).map(|aui| cfg.site(aui)).collect(),
            radios: radios.collect(),
            ap_up_rx: vec![BaRecipient::default(); n_pairs],
            rx_ctx: None,
            decoded: Vec::new(),
            fresh: Vec::new(),
            capture: Vec::new(),
            phy: PhyWork::default(),
            cfg,
        }
    }

    pub(super) fn cfg(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// Local indices of the APs that can lie inside the decode horizon
    /// of a client at along-road coordinate `x`, ascending: a superset of
    /// the ones [`Air::reaches`] accepts, which every caller still applies:
    /// the bisected run of the sorted `ap_x` within the horizon along the
    /// road (no AP is nearer than its along-road offset), so an every-AP
    /// loop costs what is in range rather than what is in the world.
    pub(super) fn ap_window(&self, x: f64) -> Range<usize> {
        // A millimetre of slack keeps rounding in the two bounds from
        // excluding an AP the exact test would accept.
        let reach = DECODE_HORIZON_M + 1e-3;
        let lo = self.cfg.ap_x.partition_point(|&a| a < x - reach);
        let hi = self.cfg.ap_x.partition_point(|&a| a <= x + reach);
        lo..hi
    }

    /// Whether the AP at local index `aui` is close enough to a client
    /// at `pos` for any frame between them to be decodable at all. Pure
    /// geometry (the drive plan and the static AP grid), so both the
    /// monolithic world and a spatial shard skip exactly the same pairs
    /// — before any random draw.
    pub(super) fn in_decode_horizon(&self, aui: usize, pos: Position) -> bool {
        pos.distance_to(self.sites[aui].ap_pos) <= DECODE_HORIZON_M
    }

    /// The AP whose site has the strongest mean SNR at `pos`, the last of
    /// equal maxima: site geometry, so no link is drawn to answer it.
    pub(super) fn strongest_ap(&self, pos: Position) -> usize {
        let snr = self.sites.iter().map(|site| site.mean_snr_db(pos));
        let by_snr = |a: &(usize, f64), b: &(usize, f64)| a.1.partial_cmp(&b.1).expect("NaN SNR");
        snr.enumerate().max_by(by_snr).expect("at least one AP").0
    }

    /// The medium, for carrier sense; what changes it is `Air`'s.
    pub(super) fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Move every client to where its plan puts it at `now`.
    pub(super) fn move_clients(&mut self, now: SimTime) {
        for (ci, plan) in self.cfg.clients.iter().enumerate() {
            self.medium
                .set_position(self.cfg.client_id(ci), plan.position_at(now));
        }
    }

    /// Tune `client`'s radio to `ap`'s channel.
    pub(super) fn follow(&mut self, client: NodeId, ap: NodeId) {
        let ch = self.medium.channel_of(ap);
        if self.medium.channel_of(client) != ch {
            self.medium.set_channel(client, ch);
        }
    }

    /// Whether `node` senses nobody on the air at `now`, itself included.
    pub(super) fn clear_to_send(&self, node: NodeId, now: SimTime) -> bool {
        !self.medium.is_busy_for(node, now) && self.medium.own_tx_until(node, now) <= now
    }

    /// When `node` may next start a frame, backing off at `stage`.
    pub(super) fn access_time(&mut self, node: NodeId, now: SimTime, stage: u8) -> SimTime {
        let i = self.radio_index(node);
        let rng = &mut self.radios[i].rng;
        self.medium.access_time(node, now, stage, rng)
    }

    /// Arm `node`'s backoff at its gate's stage: when it may go next.
    pub(super) fn contend(&mut self, node: NodeId, now: SimTime) -> SimTime {
        let radio = self.radio(node);
        radio.tx_scheduled = true;
        let stage = radio.backoff;
        self.access_time(node, now, stage)
    }

    /// Put `frame` on the air from `now`: its id, and when it leaves.
    pub(super) fn transmit(&mut self, frame: &Frame, now: SimTime) -> (TxId, SimTime) {
        let dur = frame_airtime(frame);
        (self.medium.begin_tx(frame.from, now, dur), now + dur)
    }

    /// What `node` names, with its index into the per-role tables.
    pub(super) fn role(&self, node: NodeId) -> Role {
        if self.cfg.is_ap(node) {
            Role::Ap(self.cfg.ap_index(node))
        } else {
            Role::Client(self.cfg.client_index(node))
        }
    }

    pub(super) fn radio(&mut self, node: NodeId) -> &mut Radio {
        let i = self.radio_index(node);
        &mut self.radios[i]
    }

    fn radio_index(&self, node: NodeId) -> usize {
        match self.role(node) {
            Role::Ap(ai) => ai,
            Role::Client(ci) => self.sites.len() + ci,
        }
    }

    /// Index of the (ap, client) pair in `links` and `ap_up_rx`.
    fn pair_index(&self, ap: NodeId, client: NodeId) -> usize {
        let cfg = &self.cfg;
        cfg.ap_index(ap) * cfg.clients.len() + cfg.client_index(client)
    }

    pub(super) fn link(&self, ap: NodeId, client: NodeId) -> &Link {
        let pair = self.pair_index(ap, client);
        self.link_at(&self.links[pair], pair)
    }

    /// The link of `pair` held in `slot` — the air's own slot, or a
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
            let n = self.cfg.clients.len();
            let (aui, ci) = (pair / n, pair % n);
            Box::new(self.cfg.link(&self.link_stream, aui, ci))
        })
    }

    /// A copy of the (ap, client) link for a query to evaluate — a clone
    /// if the run drew it, drawn afresh if not — so that asking leaves
    /// the run's memos, work counters and drawn links alone.
    pub(super) fn link_copy(&self, ap: NodeId, client: NodeId) -> Link {
        let pair = self.pair_index(ap, client);
        self.link_at(&self.links[pair].clone(), pair).clone()
    }

    /// Every link slot, copied for a query as [`Air::link_copy`] copies one.
    pub(super) fn copy_links(&self) -> Vec<LinkSlot> {
        self.links.clone()
    }

    /// The (ap, client) link of a copy from [`Air::copy_links`].
    pub(super) fn link_of<'a>(&self, copy: &'a [LinkSlot], ap: NodeId, client: NodeId) -> &'a Link {
        let pair = self.pair_index(ap, client);
        self.link_at(&copy[pair], pair)
    }

    /// What the run cost: the rolls and capture checks counted as they
    /// ran, and the arithmetic of every link drawn.
    pub(super) fn work(&self) -> PhyWork {
        let mut phy = self.phy;
        (phy.syntheses, phy.sweeps, phy.links_built) = (0, 0, 0);
        for link in self.links.iter().filter_map(LinkSlot::get) {
            let work = link.work();
            phy.syntheses += u64::from(work.syntheses);
            phy.sweeps += u64::from(work.sweeps);
            phy.links_built += 1;
        }
        phy
    }

    /// The ESNR an AP *measures* from one frame's CSI: the link's exact
    /// 16-QAM ESNR plus estimation noise from the client's stream.
    /// Selection consumes these; delivery rolls use the true channel.
    pub(super) fn measured_esnr(&mut self, ap: NodeId, client: NodeId, now: SimTime) -> f64 {
        let pos = self.cfg.client_pos(client, now);
        let esnr = self
            .link(ap, client)
            .esnr_db_at(now, pos, Modulation::Qam16);
        esnr + self.radio(client).rng.normal_with(0.0, CSI_NOISE_DB)
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
                        self.cfg.client_pos(n, now)
                    }
                };
                let pl = SAME_KIND_PATHLOSS.loss_db(at(a).distance_to(at(b)));
                Err(SAME_KIND_BUDGET.tx_power_dbm - pl)
            }
        }
    }

    /// Received power of a transmission from `a` at `b`, dBm, for
    /// capture comparisons.
    pub(super) fn rssi_between(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        match self.link_or_large_scale(a, b, now) {
            // Power only — the fused sweep path; no 56-coefficient CSI
            // materialization for a capture comparison that never reads it.
            Ok((ap, client)) => self
                .link(ap, client)
                .rssi_dbm_at(now, self.cfg.client_pos(client, now)),
            Err(rssi) => rssi,
        }
    }

    /// What [`Air::rssi_between`] can at most return: the AP's site
    /// answers, and no link is drawn.
    pub(super) fn rssi_ceiling_between(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        match self.link_or_large_scale(a, b, now) {
            Ok((ap, client)) => {
                self.sites[self.cfg.ap_index(ap)].rssi_ceiling_dbm(self.cfg.client_pos(client, now))
            }
            Err(rssi) => rssi,
        }
    }

    /// Whether `rx` receives the frame `tx` from `from` as far as
    /// collisions decide (the PHY error roll comes after). Capture
    /// aware: a temporal overlap only corrupts the frame when the
    /// strongest interferer is within [`CAPTURE_MARGIN_DB`] of the wanted
    /// signal at the receiver — the power disparity the paper credits
    /// (sidelobes) for its negligible ACK collision rate (§5.3.2).
    /// Evaluates only the received powers the comparison turns on
    /// (`crate::decide::capture_survives`).
    pub(super) fn rx_survives(&mut self, tx: TxId, from: NodeId, rx: NodeId, now: SimTime) -> bool {
        // Only overlappers that can actually corrupt this receiver
        // (same channel, within interference range) enter the capture
        // comparison — a sender several cells away overlaps in time but
        // contributes nothing here, exactly as in `Medium::outcome_for`.
        // One walk: no such overlapper is `TxOutcome::Clean`.
        let mut interferers = std::mem::take(&mut self.capture);
        interferers.clear();
        interferers.extend(
            self.medium
                .corrupters(tx, rx)
                .map(|n| (n, self.rssi_ceiling_between(n, rx, now))),
        );
        if interferers.is_empty() {
            self.capture = interferers;
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
        self.capture = interferers;
        self.phy.capture_checks += 1;
        self.phy.capture_exact += evaluated;
        survives
    }

    /// Whether `rx` receives the frame `tx` from `from` — one of them the
    /// AP at local index `aui`, the other a client at `pos` — as far as
    /// geometry, channel and collisions decide. The horizon gate is
    /// first: an AP past the decode horizon takes *no random draw*, or a
    /// shard (which never iterates it) would fall out of step with the
    /// monolithic world.
    pub(super) fn reaches(
        &mut self,
        aui: usize,
        tx: TxId,
        (from, rx): (NodeId, NodeId),
        pos: Position,
        now: SimTime,
    ) -> bool {
        self.in_decode_horizon(aui, pos)
            && self.medium.same_channel(from, rx)
            && self.rx_survives(tx, from, rx, now)
    }

    /// The uniform draw of one delivery roll, from the client's stream —
    /// every roll's only draw site, whether or not a verdict follows.
    fn roll_draw(&mut self, client: NodeId) -> f64 {
        self.phy.rolls += 1;
        self.radio(client).rng.uniform()
    }

    /// Roll delivery of one MPDU of `len` bytes at `mcs` over the
    /// (ap, client) link at `now`, with the client at `pos`: one uniform
    /// draw from the client's stream, then the ladder — whose answer is
    /// `draw < mcs.per(exact ESNR, len)` however few rungs it climbs.
    /// The ceiling rung asks the AP's site; only the bound and exact
    /// rungs draw the link.
    pub(super) fn roll_mpdu(
        &mut self,
        (ap, client): (NodeId, NodeId),
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
                    let phy = &mut self.phy;
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
    pub(super) fn roll_control(
        &mut self,
        pair: (NodeId, NodeId),
        pos: Position,
        now: SimTime,
    ) -> bool {
        self.roll_mpdu(pair, pos, now, Mcs::Mcs2, 64)
    }

    /// A roll nobody reads: the draw is taken, so the client's stream
    /// stands where a decided roll would have left it, and nothing is
    /// decided.
    pub(super) fn roll_unread(&mut self, client: NodeId) {
        self.roll_draw(client);
        self.phy.rolls_unread += 1;
    }

    /// What the AP at local index `aui` makes of the uplink A-MPDU `tx`
    /// that `client` just sent: if [`Air::reaches`] lets it,
    /// one roll per MPDU from the client's stream, and the decoded ones
    /// through the AP's receive window (with the downlink's BAR re-anchor
    /// rule). Answers the Block ACK it owes if it decoded any;
    /// [`Air::fresh`] then holds the packets it had not seen before.
    pub(super) fn hear_uplink(
        &mut self,
        aui: usize,
        tx: TxId,
        client: NodeId,
        mpdus: &[Mpdu],
        mcs: Mcs,
        now: SimTime,
    ) -> Option<(u16, u64)> {
        let (ap, pos) = (self.cfg.ap_id(aui), self.cfg.client_pos(client, now));
        if !self.reaches(aui, tx, (client, ap), pos, now) {
            return None;
        }
        let mut decoded = std::mem::take(&mut self.decoded);
        decoded.clear();
        for m in mpdus {
            if self.roll_mpdu((ap, client), pos, now, mcs, m.packet.len) {
                decoded.push(*m);
            }
        }
        self.fresh.clear();
        let pair = self.pair_index(ap, client);
        let win = &mut self.ap_up_rx[pair];
        win.reanchor_if_behind(&decoded);
        for m in &decoded {
            if win.on_mpdu(m.seq) {
                self.fresh.push(m.packet);
            }
        }
        let ba = (!decoded.is_empty()).then(|| win.block_ack());
        self.decoded = decoded;
        ba
    }

    /// The packets the last [`Air::hear_uplink`] found new at its AP.
    pub(super) fn fresh(&self) -> &[PacketRef] {
        &self.fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::ClientPlan;
    use wgtt_mac::frame::FrameKind;

    #[test]
    fn a_client_frame_draws_nothing_past_the_decode_horizon_and_one_roll_per_mpdu_inside() {
        // A parked client in front of the first of two APs 200 m apart.
        let plan = ClientPlan {
            start: Position::new(0.0, 0.0),
            speed_mps: 0.0,
            ..ClientPlan::drive_by(0.0)
        };
        let cfg = TestbedConfig {
            ap_x: vec![0.0, 200.0],
            ..TestbedConfig::two_ap()
        }
        .with_clients(vec![plan]);
        let root = RngStream::root(4);
        let mut air = Air::new(cfg.clone(), &root);
        let (client, near, far) = (cfg.client_id(0), 0, 1);
        assert!(air.in_decode_horizon(near, plan.start));
        assert!(!air.in_decode_horizon(far, plan.start));
        let mpdus: Vec<Mpdu> = (0..4)
            .map(|seq| Mpdu::fresh(seq, seq.into(), 1500))
            .collect();
        let frame = Frame {
            from: client,
            to: cfg.ap_id(near),
            kind: FrameKind::Ampdu {
                mpdus: mpdus.clone(),
            },
            mcs: Mcs::Mcs3,
        };
        let (tx, end) = air.transmit(&frame, SimTime::from_millis(1));
        let next = |rng: &mut Xoshiro256| rng.uniform().to_bits();
        let heard = |air: &mut Air, aui| air.hear_uplink(aui, tx, client, &mpdus, Mcs::Mcs3, end);
        // Every radio's stream: the APs', then the client's.
        let streams = |air: &Air| air.radios.iter().map(|r| r.rng.clone()).collect::<Vec<_>>();
        let nexts = |mut rngs: Vec<Xoshiro256>| rngs.iter_mut().map(next).collect::<Vec<_>>();

        let before = streams(&air);
        assert_eq!(heard(&mut air, far), None);
        assert_eq!(air.work(), PhyWork::default(), "the far AP rolled");
        assert!(air.copy_links().iter().all(|slot| slot.get().is_none()));
        assert_eq!(nexts(streams(&air)), nexts(before), "the far AP drew");

        let mut want = streams(&air);
        assert!(heard(&mut air, near).is_some());
        assert_eq!(air.work().rolls, 4);
        assert_eq!(air.fresh().len(), 4, "a clean frame next to its AP");
        for _ in 0..4 {
            want[2].uniform();
        }
        assert_eq!(
            nexts(streams(&air)),
            nexts(want),
            "one draw per MPDU, no AP's"
        );
    }
}
