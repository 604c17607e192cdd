// Event dispatch, backhaul plumbing, and packet routing for `World`.
// Textually included by world.rs so the impl stays in one module.

impl World {
    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Backhaul { to, msg } => match to {
                BackhaulTo::One(to) => self.on_backhaul(to, msg, now),
                BackhaulTo::Aps(aps) => self.on_backhaul_fanout(aps, msg, now),
            },
            Ev::CtlPoll => self.on_ctl_poll(now),
            Ev::TxStart { node } => self.on_tx_start(node, now),
            Ev::TxEnd { tx, frame } => self.on_tx_end(tx, frame, now),
            Ev::BaResponse {
                from,
                to,
                start_seq,
                bitmap,
            } => self.on_ba_response(from, to, start_seq, bitmap, now),
            Ev::MgmtResponse { from, to, step } => self.on_mgmt_response(from, to, step, now),
            Ev::BaTimeout { from, peer } => self.on_ba_timeout(from, peer, now),
            Ev::Traffic { flow } => self.with_flow(flow, now, |f, factory, out| {
                f.on_tick(now, factory, out)
            }),
            Ev::TcpTimer { flow } => self.with_flow(flow, now, |f, factory, out| {
                f.on_timer(now, factory, out)
            }),
            Ev::Beacon { ap, retry } => self.on_beacon(ap, retry, now),
            Ev::RoamPoll { client } => self.on_roam_poll(client, now),
            Ev::Mobility => self.on_mobility(now),
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
        if self.medium.is_busy_for(client, now)
            || self.medium.own_tx_until(client, now) > now
        {
            return; // skip this beat; the next one is 50 ms away
        }
        let target = self
            .serving_of(client)
            .unwrap_or(NodeId(self.cfg.ap_id_offset));
        let frame = Frame {
            from: client,
            to: target,
            kind: FrameKind::Data {
                packet: PacketRef {
                    id: KEEPALIVE_PKT_ID,
                    len: 40,
                },
                seq: 0,
            },
            mcs: Mcs::Mcs0,
        };
        self.transmit(frame, now);
    }

    // --------------------------------------------------------- backhaul

    /// Queue `msg` for delivery over the Ethernet backhaul, applying
    /// latency, the switching protocol's processing delays, and the
    /// control-loss probability. Only a WGTT world has a backhaul.
    fn backhaul_send(&mut self, to: BackhaulDest, msg: BackhaulMsg, now: SimTime) {
        let SystemState::Wgtt(WgttSystem { cfg, .. }) = &self.system else {
            return;
        };
        let (loss_prob, mut delay) = (cfg.control_loss_prob, cfg.backhaul_latency);
        let processing = match &msg {
            BackhaulMsg::Stop { .. } => Some((cfg.stop_processing_mean, cfg.processing_std)),
            BackhaulMsg::Start { .. } => Some((cfg.start_processing_mean, cfg.processing_std)),
            _ => None,
        };
        // Control loss and processing jitter draw from the *affected
        // client's* stream (exactly the Stop/Start/SwitchAck messages,
        // which all name one): one vehicle's switch protocol must not
        // perturb another vehicle's randomness, or shards would diverge
        // from the monolithic world.
        if let Some(client) = msg.control_client() {
            let ci = self.client_index(client);
            if self.clients[ci].rng.chance(loss_prob) {
                return; // lost in the Click forwarding path; timeouts recover
            }
        }
        self.capture_backhaul(&to, &msg, now);
        if let (Some((mean, std)), Some(client)) = (processing, msg.control_client()) {
            let ci = self.client_index(client);
            let jitter = self.clients[ci]
                .rng
                .normal_with(mean.as_secs_f64(), std.as_secs_f64())
                .max(0.0005);
            delay += SimDuration::from_secs_f64(jitter);
        }
        let to = BackhaulTo::One(to);
        self.queue.schedule(now + delay, Ev::Backhaul { to, msg });
    }

    /// An empty AP list in `fanouts` that no queued event names.
    fn free_fanout(&mut self) -> u32 {
        self.fanouts_free.pop().unwrap_or_else(|| {
            self.fanouts.push(Vec::new());
            self.fanouts.len() as u32 - 1
        })
    }

    /// Queue `msg` — no control message, so nothing is rolled — for every
    /// AP of list `aps`, as one event. The events it stands for would have
    /// had one delivery time and consecutive sequence numbers: nothing
    /// could have popped between them, and whatever their handlers
    /// schedule keeps its order (DESIGN §18).
    fn backhaul_fanout(&mut self, aps: u32, msg: BackhaulMsg, now: SimTime) {
        let SystemState::Wgtt(WgttSystem { cfg, .. }) = &self.system else {
            return;
        };
        let at = now + cfg.backhaul_latency;
        let list = std::mem::take(&mut self.fanouts[aps as usize]);
        for &ap in &list {
            self.capture_backhaul(&BackhaulDest::Ap(ap), &msg, now);
        }
        self.fanouts[aps as usize] = list;
        let to = BackhaulTo::Aps(aps);
        self.queue.schedule(at, Ev::Backhaul { to, msg });
    }

    fn on_backhaul_fanout(&mut self, aps: u32, msg: BackhaulMsg, now: SimTime) {
        let mut list = std::mem::take(&mut self.fanouts[aps as usize]);
        for &ap in &list {
            self.on_backhaul(BackhaulDest::Ap(ap), msg.clone(), now);
        }
        list.clear();
        self.fanouts[aps as usize] = list;
        self.fanouts_free.push(aps);
    }

    /// Run `f` against the WGTT controller with a pooled action buffer,
    /// then dispatch everything it emitted. No-op on baseline worlds.
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
        let mut buf = self.ctl_bufs.pop().unwrap_or_default();
        debug_assert!(buf.is_empty());
        if let Some(w) = self.system.wgtt() {
            f(&mut w.controller, &mut buf);
            self.dispatch_ctl_buf(&mut buf, now);
        }
        buf.clear();
        self.ctl_bufs.push(buf);
    }

    fn dispatch_ctl_buf(&mut self, buf: &mut Vec<ControllerAction>, now: SimTime) {
        let mut actions = buf.drain(..).peekable();
        while let Some(a) = actions.next() {
            match a {
                ControllerAction::Send { ap, msg } => {
                    // The same data or sync message to the next AP too?
                    let again = |next: &ControllerAction| {
                        matches!(next, ControllerAction::Send { msg: m, .. } if *m == msg)
                    };
                    if msg.control_client().is_some() || !actions.peek().is_some_and(again) {
                        self.backhaul_send(BackhaulDest::Ap(ap), msg, now);
                        continue;
                    }
                    let aps = self.free_fanout();
                    self.fanouts[aps as usize].push(ap);
                    while let Some(ControllerAction::Send { ap, .. }) = actions.next_if(again) {
                        self.fanouts[aps as usize].push(ap);
                    }
                    self.backhaul_fanout(aps, msg, now);
                }
                ControllerAction::ToWan { packet } => self.on_arrival(packet, now),
            }
        }
        // A switch may have been started: make sure its timeout is
        // polled, once. The poll kept for a deadline is the first one
        // asked for, so its place among same-instant events is the one
        // a poll per dispatch would have given it.
        if let Some(t) = self.system.wgtt().and_then(|w| w.controller.next_timeout()) {
            let at = t.max(now);
            if self.ctl_polls_armed.insert(at) {
                self.queue.schedule(at, Ev::CtlPoll);
            }
        }
    }

    fn on_backhaul(&mut self, to: BackhaulDest, msg: BackhaulMsg, now: SimTime) {
        match to {
            BackhaulDest::Controller => {
                self.with_controller(now, |c, buf| c.on_msg(msg, now, buf));
            }
            BackhaulDest::Ap(ap_id) => {
                if !self.cfg.is_ap(ap_id) {
                    // A message addressed outside the AP array (a stale
                    // id from a reconfigured corridor segment) is
                    // dropped, not a crash: timeouts re-drive the
                    // protocol.
                    self.report.backhaul_misaddressed += 1;
                    return;
                }
                let ai = self.cfg.ap_index(ap_id);
                let kick_client = match &msg {
                    BackhaulMsg::DownlinkData { client, .. }
                    | BackhaulMsg::Start { client, .. }
                    | BackhaulMsg::BlockAckForward { client, .. } => Some(*client),
                    _ => None,
                };
                let Some(w) = self.system.wgtt() else {
                    return;
                };
                let action = w.aps[ai].on_backhaul(msg);
                // A forwarded Block ACK may have resolved the pending
                // exchange.
                let resolved = kick_client.is_some_and(|client| {
                    self.stations[ai].exchange_pending
                        && self.stations[ai].peer == Some(client)
                        && !w.aps[ai].tx.has_in_flight(client)
                });
                if resolved {
                    self.resolve_exchange(ap_id, now);
                }
                if let Some(act) = action {
                    self.backhaul_send(act.to, act.msg, now);
                }
                self.kick(ap_id, now);
            }
        }
    }

    fn on_ctl_poll(&mut self, now: SimTime) {
        // Disarm first: the dispatch below may need this very instant
        // polled again.
        self.ctl_polls_armed.remove(&now);
        self.with_controller(now, |c, buf| c.poll(now, buf));
    }

    // --------------------------------------------------------- transport

    /// Send one downlink packet into the system (controller fan-out or
    /// baseline distribution).
    fn route_downlink(&mut self, client: NodeId, packet: Packet, now: SimTime) {
        self.store_packet(packet);
        match &mut self.system {
            SystemState::Wgtt(_) => {
                self.with_controller(now, |c, buf| c.on_downlink(client, packet, now, buf));
            }
            SystemState::Baseline(bl) => {
                if let Some(ap) = bl.ds.route(client) {
                    bl.aps[self.cfg.ap_index(ap)].enqueue_downlink(client, packet);
                    self.kick(ap, now);
                }
            }
        }
    }

    /// Send a packet of one of `client`'s flows on its way: into the
    /// system when it is addressed to the client, into the client's MAC
    /// when it is the client's to send.
    fn route(&mut self, client: NodeId, packet: Packet, now: SimTime) {
        if packet.dst == self.clients[self.client_index(client)].ip {
            self.route_downlink(client, packet, now);
        } else {
            self.enqueue_uplink(client, packet, now);
        }
    }

    /// Queue an uplink packet at the client's MAC.
    fn enqueue_uplink(&mut self, client: NodeId, packet: Packet, now: SimTime) {
        self.store_packet(packet);
        let ci = self.client_index(client);
        let c = &mut self.clients[ci];
        let seq = c.up_next_seq;
        c.up_next_seq = seq_next(seq);
        c.uplink.stage(Mpdu::fresh(seq, packet.id, packet.len));
        self.kick(client, now);
    }

    /// Call `flow`, then do what it asks in the order its handlers always
    /// have: route the packets it put out, then schedule its wake-ups.
    /// Routing calls no flow, so the one outbox is free whenever a flow
    /// is called (a nested call would merely find it empty).
    fn with_flow(
        &mut self,
        flow: FlowId,
        now: SimTime,
        call: impl FnOnce(&mut Flow, &mut PacketFactory, &mut Vec<Packet>) -> Asks,
    ) {
        let Some(f) = self.flows.get_mut(flow.0 as usize) else {
            return; // a packet of no flow of this world
        };
        let client = f.client;
        let mut out = std::mem::take(&mut self.outbox);
        let asks = call(f, &mut self.factory, &mut out);
        for p in out.drain(..) {
            self.route(client, p, now);
        }
        self.outbox = out;
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
    /// baseline AP, or (`deliver_to_client`) the client.
    fn on_arrival(&mut self, packet: Packet, now: SimTime) {
        self.with_flow(packet.flow, now, |f, factory, out| {
            f.on_arrival(&packet, now, factory, out)
        });
    }

    /// A downlink packet was decoded (and MAC-deduplicated) at the client.
    fn deliver_to_client(&mut self, pref: PacketRef, now: SimTime) {
        match self.packet_by_ref(pref) {
            Some(packet) => self.on_arrival(packet, now),
            None => self.report.missing_packet_refs += 1,
        }
    }

    // -------------------------------------------------------- monitoring

    fn serving_of(&self, client: NodeId) -> Option<NodeId> {
        match &self.system {
            SystemState::Wgtt(w) => w.controller.serving(client),
            SystemState::Baseline(_) => self.clients[self.client_index(client)]
                .roamer
                .as_ref()
                .and_then(|r| r.associated()),
        }
    }

    fn on_mobility(&mut self, now: SimTime) {
        for c in &self.clients {
            self.medium.set_position(c.id, c.plan.position_at(now));
        }
        self.queue.schedule(now + MOBILITY_TICK, Ev::Mobility);
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
            let ch = self.medium.channel_of(ap);
            if self.medium.channel_of(client) != ch {
                self.medium.set_channel(client, ch);
            }
            self.report
                .serving_series
                .entry(client)
                .or_default()
                .record(now, ap.0 as f64 + 1.0);
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
    /// copy of the link — a clone if the run realized it, realized afresh
    /// on the copy if not: the run's memos, work counters and realized
    /// links stay as the run left them, so asking — twice, or mid-run —
    /// changes nothing.
    pub fn esnr_trace(&self, client: NodeId, ap: NodeId) -> TimeSeries {
        let pair = self.pair_index(ap, client);
        let copy = self.links[pair].clone();
        let link = self.link_at(&copy, pair);
        let mut trace = TimeSeries::new();
        for t in self.sample_instants() {
            let pos = self.client_pos(client, t);
            trace.record(t, link.esnr_db_at(t, pos, Modulation::Qam16));
        }
        trace
    }

    /// Table 2's switching accuracy over the sampling ticks taken so far:
    /// the time the serving AP (read back from `serving_series`) was the
    /// oracle-best one, over the time any AP was usable. Like
    /// [`World::esnr_trace`] it works on copies of the links.
    pub fn selection_accuracy(&self) -> SelectionAccuracy {
        let links = self.links.clone();
        let n_aps = self.cfg.ap_x.len();
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
                let serving = self.cfg.ap_index(NodeId(ap as u32 - 1));
                let pairs = (0..n_aps).map(|aui| self.pair_index(self.ap_id(aui), c.id));
                wgtt_radio::batch::esnr_map(
                    pairs.map(|pair| self.link_at(&links[pair], pair)),
                    t,
                    c.plan.position_at(t),
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
}
