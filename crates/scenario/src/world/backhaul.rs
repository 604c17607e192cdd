//! The Ethernet backhaul between the WGTT controller and its APs
//! (§3.1.2).

use wgtt::messages::{BackhaulMsg, BACKHAUL_LATENCY};
use wgtt::switching::{PROCESSING_STD, START_PROCESSING_MEAN, STOP_PROCESSING_MEAN};
use wgtt_mac::frame::NodeId;
use wgtt_sim::rng::Xoshiro256;
use wgtt_sim::time::{SimDuration, SimTime};

/// What the backhaul does to a message — when it arrives, if at all —
/// and the AP lists of the fan-outs in flight.
pub(super) struct Backhaul {
    control_loss_prob: f64,
    /// AP lists of the queued fan-outs, by their `BackhaulTo::Aps` index,
    /// and the indices no queued event holds. A delivered fan-out's list
    /// goes back empty with its storage, so steady state allocates
    /// nothing and `Ev` stays at 64 bytes.
    fanouts: Vec<Vec<NodeId>>,
    fanouts_free: Vec<u32>,
}

impl Backhaul {
    pub(super) fn new(control_loss_prob: f64) -> Self {
        Backhaul {
            control_loss_prob,
            fanouts: Vec::new(),
            fanouts_free: Vec::new(),
        }
    }

    /// When `msg`, sent at `now`, arrives: [`BACKHAUL_LATENCY`] later, a
    /// Stop or a Start later still by its receiver's switch processing —
    /// or never: a control message (Stop, Start, SwitchAck) is lost in
    /// the Click forwarding path with `control_loss_prob`, and timeouts
    /// recover it. Only a control message draws — loss, then processing
    /// — and from `rng`, the stream of the client it names: one
    /// vehicle's switch protocol must not perturb another's randomness,
    /// or shards would diverge from the monolithic world.
    pub(super) fn arrival(
        &self,
        msg: &BackhaulMsg,
        now: SimTime,
        rng: Option<&mut Xoshiro256>,
    ) -> Option<SimTime> {
        let mut delay = BACKHAUL_LATENCY;
        if msg.control_client().is_some() {
            let rng = rng.expect("a control message draws from its client's stream");
            if rng.chance(self.control_loss_prob) {
                return None;
            }
            let processing = match msg {
                BackhaulMsg::Stop { .. } => Some(STOP_PROCESSING_MEAN),
                BackhaulMsg::Start { .. } => Some(START_PROCESSING_MEAN),
                _ => None,
            };
            if let Some(mean) = processing {
                let std = PROCESSING_STD.as_secs_f64();
                let jitter = rng.normal_with(mean.as_secs_f64(), std).max(0.0005);
                delay += SimDuration::from_secs_f64(jitter);
            }
        }
        Some(now + delay)
    }

    /// An empty AP list for a fan-out — one message to several APs at one
    /// instant, queued as one event — with the index that event carries.
    pub(super) fn open_fanout(&mut self) -> (u32, &mut Vec<NodeId>) {
        let i = self.fanouts_free.pop().unwrap_or_else(|| {
            self.fanouts.push(Vec::new());
            self.fanouts.len() as u32 - 1
        });
        (i, &mut self.fanouts[i as usize])
    }

    /// The APs of fan-out `aps`, to hand back to [`Backhaul::recycle`].
    pub(super) fn take_fanout(&mut self, aps: u32) -> Vec<NodeId> {
        std::mem::take(&mut self.fanouts[aps as usize])
    }

    pub(super) fn recycle(&mut self, aps: u32, mut list: Vec<NodeId>) {
        list.clear();
        self.fanouts[aps as usize] = list;
        self.fanouts_free.push(aps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::packet::{FlowId, PacketFactory};
    use wgtt_net::wire::Ipv4Addr;
    use wgtt_sim::rng::RngStream;

    const CLIENT: NodeId = NodeId(100);
    const NOW: SimTime = SimTime::from_millis(7);

    fn data() -> BackhaulMsg {
        let (ip, at) = (Ipv4Addr::new(8, 8, 8, 8), SimTime::ZERO);
        let packet = PacketFactory::new().udp(FlowId(0), ip, ip, 0, 1500, at);
        BackhaulMsg::DownlinkData {
            client: CLIENT,
            index: 0,
            packet,
        }
    }

    fn control() -> [BackhaulMsg; 3] {
        let (client, switch_id) = (CLIENT, 1);
        [
            BackhaulMsg::Stop {
                client,
                next_ap: NodeId(3),
                switch_id,
            },
            BackhaulMsg::Start {
                client,
                k: 9,
                switch_id,
            },
            BackhaulMsg::SwitchAck {
                client,
                ap: NodeId(3),
                switch_id,
            },
        ]
    }

    fn next(rng: &mut Xoshiro256) -> u64 {
        rng.uniform().to_bits()
    }

    #[test]
    fn data_arrives_after_the_latency_and_draws_nothing() {
        let backhaul = Backhaul::new(1.0);
        let stream = RngStream::root(1);
        let mut rng = stream.rng();
        let sync = BackhaulMsg::AssocSync {
            client: CLIENT,
            via_ap: NodeId(2),
        };
        let at = Some(NOW + BACKHAUL_LATENCY);
        for msg in [data(), sync] {
            assert_eq!(backhaul.arrival(&msg, NOW, Some(&mut rng)), at);
            assert_eq!(backhaul.arrival(&msg, NOW, None), at);
        }
        assert_eq!(next(&mut rng), next(&mut stream.rng()));
    }

    #[test]
    fn stop_and_start_roll_loss_then_jitter_on_the_named_clients_stream() {
        let backhaul = Backhaul::new(0.25);
        let stream = RngStream::root(3).derive_indexed("client-phy", 0);
        let (mut rng, mut model) = (stream.rng(), stream.rng());
        let mut sent = 0;
        for _ in 0..200 {
            for msg in control() {
                let arrival = backhaul.arrival(&msg, NOW, Some(&mut rng));
                if model.chance(0.25) {
                    assert_eq!(arrival, None, "{msg:?} was lost");
                    continue;
                }
                let mean = match msg {
                    BackhaulMsg::Stop { .. } => Some(STOP_PROCESSING_MEAN),
                    BackhaulMsg::Start { .. } => Some(START_PROCESSING_MEAN),
                    _ => None,
                };
                let std = PROCESSING_STD.as_secs_f64();
                let jitter = mean.map(|m| model.normal_with(m.as_secs_f64(), std).max(0.0005));
                let delay = BACKHAUL_LATENCY + SimDuration::from_secs_f64(jitter.unwrap_or(0.0));
                assert_eq!(arrival, Some(NOW + delay), "{msg:?}");
                if jitter.is_some() {
                    assert!(delay >= BACKHAUL_LATENCY + SimDuration::from_micros(500));
                }
                sent += 1;
            }
        }
        assert!((400..500).contains(&sent), "{sent} of 600 arrived");
        assert_eq!(next(&mut rng), next(&mut model));
    }

    #[test]
    fn certain_control_loss_drops_every_control_message_and_no_data() {
        let backhaul = Backhaul::new(1.0);
        let mut rng = RngStream::root(5).rng();
        for msg in control() {
            assert_eq!(backhaul.arrival(&msg, NOW, Some(&mut rng)), None, "{msg:?}");
        }
        assert!(backhaul.arrival(&data(), NOW, None).is_some());
    }

    #[test]
    fn delivered_fan_out_lists_return_empty_and_one_list_serves_a_steady_state() {
        let mut backhaul = Backhaul::new(0.0);
        for round in 0..5 {
            let (aps, list) = backhaul.open_fanout();
            list.extend([NodeId(round), NodeId(round + 1)]);
            let list = backhaul.take_fanout(aps);
            assert_eq!(list, [NodeId(round), NodeId(round + 1)]);
            backhaul.recycle(aps, list);
            assert_eq!(backhaul.fanouts_free, [aps]);
        }
        assert_eq!(backhaul.fanouts.len(), 1);
        assert!(backhaul.fanouts[0].is_empty() && backhaul.fanouts[0].capacity() >= 2);
        // Two in flight at once take two lists.
        let (first, _) = backhaul.open_fanout();
        let (second, _) = backhaul.open_fanout();
        assert_ne!(first, second);
    }
}
