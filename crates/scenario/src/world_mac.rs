// The MAC pipeline for `World`: contention, A-MPDU exchanges, Block ACK
// responses/forwarding, beacons, and baseline management frames.
// Textually included by world.rs.

/// Preamble-detection lag: a transmission younger than this is invisible
/// to carrier sense, allowing SIFS-spaced responses to collide.
const SENSE_LAG: SimDuration = SimDuration::from_micros(4);

/// The DCF gate of one radio, AP or client: at most one backoff armed
/// and one A-MPDU exchange pending at a time.
#[derive(Clone, Copy, Default)]
struct Station {
    /// An `Ev::TxStart` is queued.
    tx_scheduled: bool,
    /// Backoff stage: consecutive timeouts, capped at CWmax's.
    backoff: u8,
    ba_timeout_ev: Option<EventId>,
    /// Whom the pending exchange addresses: `Some` from the moment an
    /// A-MPDU goes out until its Block ACK or its timeout settles it.
    peer: Option<NodeId>,
}

/// What a node id names, with its index into the per-role tables.
#[derive(Clone, Copy)]
enum Role {
    Ap(usize),
    Client(usize),
}

impl World {
    // ---------------------------------------------------- station gate
    //
    // One pipeline for every sender. What differs by role is only whether
    // the node has work, how it builds its next A-MPDU, and which random
    // stream backs it off.

    fn role(&self, node: NodeId) -> Role {
        if self.cfg.is_ap(node) {
            Role::Ap(self.cfg.ap_index(node))
        } else {
            Role::Client(self.client_index(node))
        }
    }

    /// Index of `node`'s gate in `stations`.
    fn station_index(&self, node: NodeId) -> usize {
        match self.role(node) {
            Role::Ap(ai) => ai,
            Role::Client(ci) => self.cfg.ap_x.len() + ci,
        }
    }

    fn has_work(&mut self, node: NodeId) -> bool {
        match self.role(node) {
            Role::Ap(ai) => self.system.ap_tx(ai).has_work(),
            Role::Client(ci) => self.clients[ci].uplink.has_work(),
        }
    }

    /// The node's next A-MPDU and its addressee, marked in flight at its
    /// sender.
    fn next_ampdu(&mut self, node: NodeId) -> Option<(NodeId, Vec<Mpdu>, Mcs)> {
        match self.role(node) {
            Role::Ap(ai) => self.system.ap_tx(ai).next_ampdu(),
            Role::Client(ci) => {
                let target = self
                    .serving_of(node)
                    .unwrap_or(NodeId(self.cfg.ap_id_offset));
                let (mpdus, mcs) = self.clients[ci].uplink.build(&AggregationPolicy::default())?;
                Some((target, mpdus, mcs))
            }
        }
    }

    fn kick(&mut self, node: NodeId, now: SimTime) {
        let si = self.station_index(node);
        let st = self.stations[si];
        if st.tx_scheduled || st.peer.is_some() || !self.has_work(node) {
            return;
        }
        let rng = match self.role(node) {
            Role::Ap(ai) => &mut self.ap_rng[ai],
            Role::Client(ci) => &mut self.clients[ci].rng,
        };
        let at = self.medium.access_time(node, now, st.backoff, rng);
        self.stations[si].tx_scheduled = true;
        self.queue.schedule(at, Ev::TxStart { node });
    }

    fn on_tx_start(&mut self, node: NodeId, now: SimTime) {
        let si = self.station_index(node);
        self.stations[si].tx_scheduled = false;
        if self.stations[si].peer.is_some() {
            return;
        }
        if self.medium.is_busy_for(node, now) || self.medium.own_tx_until(node, now) > now {
            // Someone grabbed the channel during our backoff (or our own
            // previous frame is still on the air): re-contend.
            self.kick(node, now);
            return;
        }
        let Some((to, mpdus, mcs)) = self.next_ampdu(node) else {
            return;
        };
        let frame = Frame {
            from: node,
            to,
            kind: FrameKind::Ampdu { mpdus },
            mcs,
        };
        self.transmit(frame, now);
        self.stations[si].peer = Some(to);
    }

    /// Put `frame` on the air from `now`; its `Ev::TxEnd` fires when the
    /// last symbol has left.
    fn transmit(&mut self, frame: Frame, now: SimTime) -> TxId {
        let dur = frame_airtime(&frame);
        let tx = self.medium.begin_tx(frame.from, now, dur);
        self.queue.schedule(now + dur, Ev::TxEnd { tx, frame });
        tx
    }

    /// The pending exchange of `node` ended, one way or the other.
    fn end_exchange(&mut self, node: NodeId, backoff: u8, now: SimTime) {
        let si = self.station_index(node);
        let st = &mut self.stations[si];
        st.peer = None;
        st.backoff = backoff;
        self.kick(node, now);
    }

    /// A Block ACK settled the window `node` had in flight.
    fn resolve_exchange(&mut self, node: NodeId, now: SimTime) {
        let si = self.station_index(node);
        if let Some(ev) = self.stations[si].ba_timeout_ev.take() {
            self.queue.cancel(ev);
        }
        self.end_exchange(node, 0, now);
    }

    fn on_ba_timeout(&mut self, node: NodeId, peer: NodeId, now: SimTime) {
        let si = self.station_index(node);
        self.stations[si].ba_timeout_ev = None;
        match self.role(node) {
            Role::Ap(ai) => {
                self.system.ap_tx(ai).on_ba_timeout(peer);
            }
            Role::Client(ci) => {
                self.clients[ci].uplink.on_ba_timeout(Unacked::Retry);
            }
        }
        let backoff = (self.stations[si].backoff + 1).min(6);
        self.end_exchange(node, backoff, now);
    }

    // ------------------------------------------------------ frame ends

    fn on_tx_end(&mut self, tx: TxId, frame: Frame, now: SimTime) {
        self.report.frames_on_air += 1;
        let Frame {
            from,
            to,
            kind,
            mcs,
        } = frame;
        let from_ap = self.cfg.is_ap(from);
        match kind {
            FrameKind::Ampdu { mpdus } => {
                if from_ap {
                    self.end_downlink_data(tx, from, to, &mpdus, mcs, now);
                } else {
                    self.end_uplink_data(tx, from, &mpdus, mcs, now);
                }
                let ev = self
                    .queue
                    .schedule(now + BA_WAIT, Ev::BaTimeout { from, peer: to });
                let si = self.station_index(from);
                self.stations[si].ba_timeout_ev = Some(ev);
            }
            FrameKind::BlockAck { start_seq, bitmap } if from_ap => {
                self.end_ap_blockack(tx, from, to, start_seq, bitmap, now);
            }
            FrameKind::BlockAck { start_seq, bitmap } => {
                self.end_client_blockack(tx, from, to, start_seq, bitmap, now);
            }
            FrameKind::Beacon => self.end_beacon(tx, from, now),
            FrameKind::Mgmt { step } => self.end_mgmt(tx, from, to, step, now),
            FrameKind::Data { packet, .. } if !from_ap => {
                if packet.id == KEEPALIVE_PKT_ID {
                    self.end_keepalive(tx, from, now);
                }
            }
            FrameKind::Data { .. } | FrameKind::Ack => {}
        }
    }

    /// Whether the AP at local index `aui` receives the frame `tx` that a
    /// client at `pos` just finished sending, as far as geometry, channel
    /// and collisions decide (the PHY error roll comes after). The
    /// horizon gate is first: an AP past the decode horizon must be
    /// skipped *without consuming a random draw*, or a shard (which never
    /// iterates it) would fall out of step with the monolithic world.
    fn ap_hears(
        &mut self,
        aui: usize,
        tx: TxId,
        client: NodeId,
        pos: Position,
        now: SimTime,
    ) -> bool {
        let ap = self.ap_id(aui);
        self.in_decode_horizon(aui, pos)
            && self.medium.same_channel(client, ap)
            && self.rx_survives(tx, client, ap, now)
    }

    /// A keepalive finished: every decoding AP reports CSI (WGTT). The
    /// baseline's client-side roamer works from beacons instead.
    fn end_keepalive(&mut self, tx: TxId, client: NodeId, now: SimTime) {
        if self.system.wgtt().is_none() {
            return;
        }
        let pos = self.client_pos(client, now);
        for aui in self.ap_window(pos.x) {
            if !self.ap_hears(aui, tx, client, pos, now) {
                continue;
            }
            let ap = self.ap_id(aui);
            if !self.roll_mpdu(ap, client, pos, now, Mcs::Mcs0, 40) {
                continue;
            }
            self.report_csi(aui, client, pos, now);
        }
    }

    /// The AP at local index `aui` decoded an uplink frame of `client`:
    /// every one is a CSI measurement for the controller. A baseline
    /// world has nobody to tell, and measures nothing.
    fn report_csi(&mut self, aui: usize, client: NodeId, pos: Position, now: SimTime) {
        if self.system.wgtt().is_none() {
            return;
        }
        let esnr = self.measured_esnr(self.ap_id(aui), client, pos, now);
        let Some(w) = self.system.wgtt() else { return };
        let csi = w.aps[aui].csi_report(client, esnr, now);
        self.backhaul_send(csi.to, csi.msg, now);
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
        self.report
            .bitrate_series
            .entry(client)
            .or_default()
            .record(mcs.rate_mbps());
        let survives =
            self.medium.same_channel(ap, client) && self.rx_survives(tx, ap, client, now);
        // BAR semantics: when the whole aggregate lies in the stale half
        // of the receive window (the sender's sequence space jumped after
        // an overload drop or fan-out absence), re-anchor the window at
        // the aggregate's first sequence number.
        let ci = self.client_index(client);
        let slot = self.ba_rx_slot(ap);
        let pos = self.client_pos(client, now);
        {
            let win = &mut self.clients[ci].ba_rx[slot];
            if !mpdus.is_empty() && mpdus.iter().all(|m| win.is_behind(m.seq)) {
                win.reanchor(mpdus[0].seq);
            }
        }
        let mut decoded_any = false;
        for m in mpdus {
            let ok = survives && self.roll_mpdu(ap, client, pos, now, mcs, m.packet.len);
            if !ok {
                continue;
            }
            decoded_any = true;
            if self.clients[ci].ba_rx[slot].on_mpdu(m.seq) {
                self.deliver_to_client(m.packet, now);
            }
        }
        if decoded_any {
            self.note_delivery(client, now);
            let (start_seq, bitmap) = self.clients[ci].ba_rx[slot].block_ack();
            let jitter =
                SimDuration::from_micros(SIFS_US + self.clients[ci].rng.below(16));
            self.queue.schedule(
                now + jitter,
                Ev::BaResponse {
                    from: client,
                    to: ap,
                    start_seq,
                    bitmap,
                },
            );
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
        let wgtt = self.system.wgtt().is_some();
        let assoc_ap = if wgtt { None } else { self.serving_of(client) };
        let pos = self.client_pos(client, now);
        let mut decoded = std::mem::take(&mut self.decoded_scratch);
        let mut new_refs = std::mem::take(&mut self.new_refs_scratch);
        for aui in self.ap_window(pos.x) {
            if !self.ap_hears(aui, tx, client, pos, now) {
                continue;
            }
            let ap = self.ap_id(aui);
            decoded.clear();
            for m in mpdus {
                if self.roll_mpdu(ap, client, pos, now, mcs, m.packet.len) {
                    decoded.push(*m);
                }
            }
            if decoded.is_empty() {
                continue;
            }
            // Per-AP receive-window dedup + bitmap construction (with the
            // same BAR re-anchor rule as the downlink direction).
            new_refs.clear();
            let pair = self.pair_index(ap, client);
            {
                let win = &mut self.ap_up_rx[pair];
                if decoded.iter().all(|m| win.is_behind(m.seq)) {
                    win.reanchor(decoded[0].seq);
                }
                for m in &decoded {
                    if win.on_mpdu(m.seq) {
                        new_refs.push(m.packet);
                    }
                }
            }
            if wgtt {
                self.report_csi(aui, client, pos, now);
                for &r in &new_refs {
                    let Some(packet) = self.packet_by_ref(r) else {
                        self.report.missing_packet_refs += 1;
                        continue;
                    };
                    self.backhaul_send(
                        BackhaulDest::Controller,
                        BackhaulMsg::UplinkData { ap, packet },
                        now,
                    );
                }
            } else if assoc_ap == Some(ap) {
                for &r in &new_refs {
                    let Some(packet) = self.packet_by_ref(r) else {
                        self.report.missing_packet_refs += 1;
                        continue;
                    };
                    self.on_arrival(packet, now);
                }
            }
            // Block ACK response — under WGTT *every* decoding AP is
            // associated and replies (Table 3); under the baseline only
            // the associated AP does. The addressee answers HT-immediate
            // after SIFS; the others respond with the µs-scale backoff
            // the paper measured on the TP-Link hardware (§5.3.2), which
            // together with carrier sense makes collisions rare.
            let is_addressee = self.serving_of(client) == Some(ap);
            if wgtt || assoc_ap == Some(ap) {
                let (start_seq, bitmap) = self.ap_up_rx[pair].block_ack();
                let jitter_us = if is_addressee {
                    SIFS_US + self.ap_rng[aui].below(3)
                } else {
                    SIFS_US + 12 + self.ap_rng[aui].below(60)
                };
                self.queue.schedule(
                    now + SimDuration::from_micros(jitter_us),
                    Ev::BaResponse {
                        from: ap,
                        to: client,
                        start_seq,
                        bitmap,
                    },
                );
            }
        }
        self.decoded_scratch = decoded;
        self.new_refs_scratch = new_refs;
    }

    /// A client's Block ACK (for downlink data) finished: the addressee
    /// applies it; under WGTT every other decoding AP both reports CSI
    /// and forwards the Block ACK to the serving AP (§3.2.1).
    fn end_client_blockack(
        &mut self,
        tx: TxId,
        client: NodeId,
        target: NodeId,
        start_seq: u16,
        bitmap: u64,
        now: SimTime,
    ) {
        let wgtt = self.system.wgtt().is_some();
        let pos = self.client_pos(client, now);
        for aui in self.ap_window(pos.x) {
            if !self.ap_hears(aui, tx, client, pos, now) {
                continue;
            }
            let ap = self.ap_id(aui);
            // A baseline AP the Block ACK does not address has nobody to
            // tell — no CSI report, no forwarding — so whether it decoded
            // the frame is never read.
            if !wgtt && ap != target {
                self.roll_unread(client);
                continue;
            }
            if !self.roll_control(ap, client, pos, now) {
                continue;
            }
            self.report_csi(aui, client, pos, now);
            if ap == target {
                let ap_tx = self.system.ap_tx(aui);
                ap_tx.on_block_ack(client, start_seq, bitmap);
                // A byte-identical BA for a retransmission window is a
                // no-op: resolve only when the window actually cleared.
                let cleared = !ap_tx.has_in_flight(client);
                if cleared && self.stations[aui].peer == Some(client) {
                    self.resolve_exchange(ap, now);
                }
            } else if let Some(w) = self.system.wgtt() {
                if w.cfg.enable_ba_forwarding {
                    if let Some(act) = w.aps[aui].on_overheard_block_ack(client, start_seq, bitmap) {
                        self.backhaul_send(act.to, act.msg, now);
                    }
                }
            }
        }
    }

    /// An AP's Block ACK (for uplink data) finished at the client.
    fn end_ap_blockack(
        &mut self,
        tx: TxId,
        ap: NodeId,
        client: NodeId,
        start_seq: u16,
        bitmap: u64,
        now: SimTime,
    ) {
        if !self.medium.same_channel(ap, client) {
            return;
        }
        if !self.rx_survives(tx, ap, client, now) {
            self.report.ba_collisions.incr();
            return;
        }
        let pos = self.client_pos(client, now);
        if !self.roll_control(ap, client, pos, now) {
            return;
        }
        // With nothing in flight the client ignores the Block ACK
        // outright. A stale or repeated copy changes nothing either: keep
        // waiting for a live one or the timeout.
        let ci = self.client_index(client);
        let up = &mut self.clients[ci].uplink;
        if up.has_in_flight() && !up.on_block_ack(start_seq, bitmap, Unacked::Retry).duplicate {
            self.resolve_exchange(client, now);
        }
    }

    fn on_ba_response(
        &mut self,
        from: NodeId,
        to: NodeId,
        start_seq: u16,
        bitmap: u64,
        now: SimTime,
    ) {
        // Responses younger than the preamble-detect lag are invisible:
        // that is how two APs' acknowledgements can collide (§5.3.2).
        if self.medium.sensed_busy(from, now, SENSE_LAG)
            || self.medium.own_tx_until(from, now) > now
        {
            return; // suppressed by carrier sense (or own radio busy)
        }
        let frame = Frame {
            from,
            to,
            kind: FrameKind::BlockAck { start_seq, bitmap },
            mcs: Mcs::Mcs0,
        };
        if self.cfg.is_ap(from) {
            self.report.ba_responses.incr();
        }
        self.transmit(frame, now);
    }

    // -------------------------------------------------- baseline frames

    fn on_beacon(&mut self, ap: NodeId, retry: bool, now: SimTime) {
        if !retry {
            self.queue
                .schedule(now + BEACON_INTERVAL, Ev::Beacon { ap, retry: false });
        }
        if self.medium.is_busy_for(ap, now) {
            if !retry {
                let ai = self.cfg.ap_index(ap);
                let at = self.medium.busy_until_for(ap, now)
                    + SimDuration::from_micros(
                        wgtt_mac::airtime::DIFS_US + self.ap_rng[ai].below(64),
                    );
                self.queue.schedule(at, Ev::Beacon { ap, retry: true });
            }
            return;
        }
        let frame = Frame {
            from: ap,
            to: ap, // broadcast; the field is unused for beacons
            kind: FrameKind::Beacon,
            mcs: Mcs::Mcs0,
        };
        self.transmit(frame, now);
    }

    fn end_beacon(&mut self, tx: TxId, ap: NodeId, now: SimTime) {
        let aui = self.cfg.ap_index(ap);
        for ci in 0..self.clients.len() {
            let client = self.clients[ci].id;
            let pos = self.client_pos(client, now);
            // Horizon gate first — see `ap_hears`.
            if !self.in_decode_horizon(aui, pos)
                || !self.medium.same_channel(ap, client)
                || !self.rx_survives(tx, ap, client, now)
            {
                continue;
            }
            if !self.roll_control(ap, client, pos, now) {
                continue;
            }
            // Power only — no CSI materialization for a beacon RSSI.
            let rssi = self.link(ap, client).rssi_dbm_at(now, pos);
            if let Some(r) = self.clients[ci].roamer.as_mut() {
                r.on_beacon(ap, rssi, now);
            }
        }
    }

    fn on_roam_poll(&mut self, client: NodeId, now: SimTime) {
        self.queue
            .schedule(now + ROAM_POLL, Ev::RoamPoll { client });
        let ci = self.client_index(client);
        let Some(roamer) = self.clients[ci].roamer.as_mut() else {
            return;
        };
        match roamer.evaluate(now) {
            RoamerAction::SendMgmt { ap, step } => {
                // Contend for the channel like any other frame — under a
                // saturated medium the reassociation must still win slots.
                let at = self
                    .medium
                    .access_time(client, now, 0, &mut self.clients[ci].rng);
                self.queue.schedule(
                    at,
                    Ev::MgmtTx {
                        from: client,
                        to: ap,
                        step,
                        attempt: 0,
                    },
                );
            }
            RoamerAction::None => {}
        }
    }

    /// A granted management transmission instant: send if the channel is
    /// clear, otherwise re-contend (bounded; the roamer's own retry timer
    /// provides the outer loop).
    fn on_mgmt_tx(&mut self, from: NodeId, to: NodeId, step: MgmtStep, attempt: u8, now: SimTime) {
        if self.medium.is_busy_for(from, now) || self.medium.own_tx_until(from, now) > now {
            if attempt < 8 {
                let ci = self.client_index(from);
                let at = self
                    .medium
                    .access_time(from, now, attempt + 1, &mut self.clients[ci].rng);
                self.queue.schedule(
                    at,
                    Ev::MgmtTx {
                        from,
                        to,
                        step,
                        attempt: attempt + 1,
                    },
                );
            }
            return;
        }
        let frame = Frame {
            from,
            to,
            kind: FrameKind::Mgmt { step },
            mcs: Mcs::Mcs0,
        };
        self.transmit(frame, now);
    }

    fn end_mgmt(&mut self, tx: TxId, from: NodeId, to: NodeId, step: MgmtStep, now: SimTime) {
        match step {
            MgmtStep::AssocReq => {
                // `from` = client, `to` = AP.
                if !self.rx_survives(tx, from, to, now) {
                    return;
                }
                let pos = self.client_pos(from, now);
                if !self.roll_control(to, from, pos, now) {
                    return;
                }
                self.queue.schedule(
                    now + SimDuration::from_micros(SIFS_US),
                    Ev::MgmtResponse {
                        from: to,
                        to: from,
                        step: MgmtStep::AssocResp,
                    },
                );
            }
            MgmtStep::AssocResp => {
                // `from` = AP, `to` = client.
                if !self.rx_survives(tx, from, to, now) {
                    return;
                }
                let pos = self.client_pos(to, now);
                if !self.roll_control(from, to, pos, now) {
                    return;
                }
                let ci = self.client_index(to);
                let Some(roamer) = self.clients[ci].roamer.as_mut() else {
                    return;
                };
                let old = roamer.associated();
                if roamer.on_assoc_response(from, now) {
                    // The handshake's target is never the AP the client
                    // is leaving.
                    if let (Some(old_ap), Some(aps)) = (old, self.system.baseline()) {
                        aps[self.cfg.ap_index(old_ap)].flush_client(to);
                    }
                    self.kick(from, now);
                }
            }
            _ => {}
        }
    }

    fn on_mgmt_response(&mut self, from: NodeId, to: NodeId, step: MgmtStep, now: SimTime) {
        if self.medium.sensed_busy(from, now, SENSE_LAG) {
            return;
        }
        let frame = Frame {
            from,
            to,
            kind: FrameKind::Mgmt { step },
            mcs: Mcs::Mcs0,
        };
        self.transmit(frame, now);
    }
}
