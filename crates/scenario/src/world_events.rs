// Event dispatch, backhaul plumbing, and flow routing for `World`.
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
            Ev::Traffic { flow } => self.on_traffic(flow, now),
            Ev::TcpTimer { flow } => self.on_tcp_timer(flow, now),
            Ev::Beacon { ap, retry } => self.on_beacon(ap, retry, now),
            Ev::RoamPoll { client } => self.on_roam_poll(client, now),
            Ev::Mobility => self.on_mobility(now),
            Ev::ConfFeedback { flow } => self.on_conf_feedback(flow, now),
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
    fn with_controller(&mut self, now: SimTime, f: impl FnOnce(&mut Controller, &mut ActionBuf)) {
        let mut buf = self.ctl_bufs.pop().unwrap_or_default();
        debug_assert!(buf.is_empty());
        if let Some(w) = self.system.wgtt() {
            f(&mut w.controller, &mut buf);
            self.dispatch_ctl_buf(&mut buf, now);
        }
        buf.clear();
        self.ctl_bufs.push(buf);
    }

    fn dispatch_ctl_buf(&mut self, buf: &mut ActionBuf, now: SimTime) {
        let mut actions = buf.drain().peekable();
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
                ControllerAction::ToWan { packet } => self.on_wan_uplink(packet, now),
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
                let actions = w.aps[ai].on_backhaul(msg);
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
                for act in actions {
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

    /// Send a flow's packet on its way: into the system for the client,
    /// or into the client's MAC for the server.
    fn route(&mut self, dir: Dir, client: NodeId, packet: Packet, now: SimTime) {
        match dir {
            Dir::Down => self.route_downlink(client, packet, now),
            Dir::Up => self.enqueue_uplink(client, packet, now),
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

    fn on_traffic(&mut self, flow_id: FlowId, now: SimTime) {
        let fi = flow_id.0 as usize;
        let client = self.flows[fi].client;
        let client_ip = self.clients[self.client_index(client)].ip;
        match &mut self.flows[fi].kind {
            FlowKind::Udp { dir, src, .. } => {
                let dir = *dir;
                let pkts = src.poll(now, &mut self.factory);
                let next = src.next_due();
                for p in pkts {
                    self.route(dir, client, p, now);
                }
                self.queue.schedule(next, Ev::Traffic { flow: flow_id });
            }
            FlowKind::DownTcp { snd, .. } => {
                // One-shot bootstrap: emit the initial window.
                let segs = snd.poll_send(now);
                let deadline = snd.rto_deadline();
                self.emit_tcp_segments(flow_id, client, client_ip, segs, now);
                if let Some(d) = deadline {
                    self.queue.schedule(d, Ev::TcpTimer { flow: flow_id });
                }
            }
            FlowKind::Conf {
                dir,
                src,
                asm,
                next_seq,
                ..
            } => {
                let dir = *dir;
                let (from, to) = dir.endpoints(client_ip);
                let frames = src.poll(now);
                let mut pkts = Vec::new();
                for f in frames {
                    let chunks = f.bytes.div_ceil(CONF_CHUNK);
                    for seq in asm.on_frame_sent(f.id, chunks, next_seq) {
                        let len = (CONF_CHUNK + 28) as u16;
                        pkts.push(self.factory.udp(flow_id, from, to, seq, len, now));
                    }
                }
                for p in pkts {
                    self.route(dir, client, p, now);
                }
                self.queue.schedule(
                    now + SimDuration::from_secs_f64(1.0 / 30.0),
                    Ev::Traffic { flow: flow_id },
                );
            }
        }
    }

    fn emit_tcp_segments(
        &mut self,
        flow: FlowId,
        client: NodeId,
        client_ip: Ipv4Addr,
        segs: Vec<wgtt_net::tcp::Segment>,
        now: SimTime,
    ) {
        for s in segs {
            let p = self.factory.tcp(
                flow,
                SERVER_IP,
                client_ip,
                s.seq as u32,
                s.len as u32,
                0,
                false,
                now,
            );
            self.route_downlink(client, p, now);
        }
    }

    fn on_tcp_timer(&mut self, flow_id: FlowId, now: SimTime) {
        let fi = flow_id.0 as usize;
        let client = self.flows[fi].client;
        let client_ip = self.clients[self.client_index(client)].ip;
        let FlowKind::DownTcp { snd, .. } = &mut self.flows[fi].kind else {
            return;
        };
        let Some(d) = snd.rto_deadline() else { return };
        if d > now {
            // Stale: the deadline moved after this timer was armed, and
            // whoever moved it armed one at the new deadline (each of the
            // three places that can: the bootstrap in `on_traffic`, an ACK
            // in `on_wan_uplink`, the RTO below).
            return;
        }
        snd.on_rto(now);
        let segs = snd.poll_send(now);
        let next = snd.rto_deadline();
        self.emit_tcp_segments(flow_id, client, client_ip, segs, now);
        if let Some(d) = next {
            self.queue.schedule(d.max(now), Ev::TcpTimer { flow: flow_id });
        }
    }

    /// A de-duplicated uplink packet reached the WAN side (server).
    fn on_wan_uplink(&mut self, packet: Packet, now: SimTime) {
        let fi = packet.flow.0 as usize;
        if fi >= self.flows.len() {
            return;
        }
        let client = self.flows[fi].client;
        let client_ip = self.clients[self.client_index(client)].ip;
        match &mut self.flows[fi].kind {
            FlowKind::Udp {
                dir: Dir::Up, sink, ..
            } => sink.on_packet(&packet, now),
            FlowKind::DownTcp { snd, .. } => {
                if let Transport::Tcp {
                    ack_no, is_ack: true, ..
                } = packet.transport
                {
                    snd.on_ack(u64::from(ack_no), now);
                    let segs = snd.poll_send(now);
                    let deadline = snd.rto_deadline();
                    self.emit_tcp_segments(packet.flow, client, client_ip, segs, now);
                    if let Some(d) = deadline {
                        self.queue
                            .schedule(d.max(now), Ev::TcpTimer { flow: packet.flow });
                    }
                }
            }
            FlowKind::Conf {
                dir: Dir::Up,
                asm,
                sink,
                ..
            } => {
                if let Transport::Udp { seq } = packet.transport {
                    if asm.on_chunk(seq) {
                        sink.on_frame_complete(now);
                    }
                }
            }
            _ => {}
        }
    }

    /// A downlink packet was decoded (and MAC-deduplicated) at the client.
    fn deliver_to_client(&mut self, client: NodeId, pref: PacketRef, now: SimTime) {
        let Some(packet) = self.packet_by_ref(pref) else {
            self.report.missing_packet_refs += 1;
            return;
        };
        let fi = packet.flow.0 as usize;
        if fi >= self.flows.len() {
            return;
        }
        let client_ip = self.clients[self.client_index(client)].ip;
        let mut ack_to_send: Option<Packet> = None;
        match &mut self.flows[fi].kind {
            FlowKind::Udp {
                dir: Dir::Down,
                sink,
                ..
            } => sink.on_packet(&packet, now),
            FlowKind::DownTcp {
                rcv,
                meter,
                limit,
                ..
            } => {
                if let Transport::Tcp { seq, payload, .. } = packet.transport {
                    let before = rcv.delivered;
                    let ack_no = rcv.on_segment(u64::from(seq), u64::from(payload));
                    let newly = rcv.delivered - before;
                    if newly > 0 {
                        meter.record(now, newly);
                        if let Some(lim) = limit {
                            if rcv.delivered >= *lim {
                                self.report
                                    .tcp_completion
                                    .entry(packet.flow)
                                    .or_insert(now);
                            }
                        }
                    }
                    ack_to_send = Some(self.factory.tcp(
                        packet.flow,
                        client_ip,
                        SERVER_IP,
                        0,
                        0,
                        ack_no as u32,
                        true,
                        now,
                    ));
                }
            }
            FlowKind::Conf {
                dir: Dir::Down,
                asm,
                sink,
                ..
            } => {
                if let Transport::Udp { seq } = packet.transport {
                    if asm.on_chunk(seq) {
                        sink.on_frame_complete(now);
                    }
                }
            }
            _ => {}
        }
        if let Some(ack) = ack_to_send {
            self.enqueue_uplink(client, ack, now);
        }
    }

    fn on_conf_feedback(&mut self, flow_id: FlowId, now: SimTime) {
        let fi = flow_id.0 as usize;
        match &mut self.flows[fi].kind {
            FlowKind::Conf { src, asm, .. } => {
                let sent = asm.window_sent;
                let done = asm.window_done;
                if sent > 0 {
                    let loss = 1.0 - (done.min(sent) as f64 / sent as f64);
                    src.on_loss_feedback(loss);
                }
                asm.window_sent = 0;
                asm.window_done = 0;
            }
            _ => return,
        }
        self.queue
            .schedule(now + CONF_FEEDBACK, Ev::ConfFeedback { flow: flow_id });
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

    fn on_sample(&mut self, now: SimTime) {
        let n_aps = self.cfg.ap_x.len() as u32;
        let off = self.cfg.ap_id_offset;
        for ci in 0..self.clients.len() {
            let client = self.clients[ci].id;
            // Serving-AP trace.
            let serving = self.serving_of(client);
            // Multi-channel deployments: the client's radio follows its
            // serving AP's channel (retune modelled at tick granularity).
            if let Some(ap) = serving {
                let ch = self.medium.channel_of(ap);
                if self.medium.channel_of(client) != ch {
                    self.medium.set_channel(client, ch);
                }
            }
            if let Some(ap) = serving {
                self.report
                    .serving_series
                    .entry(client)
                    .or_default()
                    .record(now, ap.0 as f64 + 1.0);
            }
            // ESNR traces + oracle accuracy. O(clients × APs) every
            // tick; fleet runs opt out (`sample_lean`) — their report
            // never reads these traces.
            if self.sample_lean {
                continue;
            }
            // One batched multi-AP ESNR map per client (fused SoA sweep
            // per link, scratch reused across clients and ticks), read
            // back per AP below.
            let pos = self.client_pos(client, now);
            let mut esnrs = std::mem::take(&mut self.esnr_scratch);
            wgtt_radio::batch::esnr_map(
                (0..n_aps).map(|ai| self.link(NodeId(off + ai), client)),
                now,
                pos,
                Modulation::Qam16,
                &mut esnrs,
            );
            let mut best: Option<(NodeId, f64)> = None;
            for ai in 0..n_aps {
                let ap = NodeId(off + ai);
                let e = esnrs[ai as usize];
                self.report
                    .esnr_traces
                    .entry((client, ap))
                    .or_default()
                    .record(now, e);
                if best.is_none_or(|(_, be)| e > be) {
                    best = Some((ap, e));
                }
            }
            self.esnr_scratch = esnrs;
            if let (Some(s), Some((_oracle, oracle_esnr))) = (serving, best) {
                // Only count instants where any AP is actually usable; the
                // serving AP counts as optimal when it is within 1 dB of
                // the instantaneous best (an indistinguishable tie at CSI
                // measurement precision).
                if oracle_esnr > 2.0 {
                    self.report.accuracy_total += SAMPLE_TICK.as_secs_f64();
                    let serving_esnr = self.esnr_now(s, client, pos, now);
                    if serving_esnr >= oracle_esnr - 1.0 {
                        self.report.accuracy_hits += SAMPLE_TICK.as_secs_f64();
                    }
                }
            }
        }
        self.queue.schedule(now + SAMPLE_TICK, Ev::SampleState);
    }
}
