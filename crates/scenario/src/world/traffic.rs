//! The flows a world carries and every packet they have put out.

use std::collections::HashSet;

use wgtt_mac::frame::{NodeId, PacketRef};
use wgtt_net::packet::{FlowId, Packet, PacketFactory};

use super::{set_at, RunReport};
use crate::flows::{Asks, Flow};

/// The world's flows (`crate::flows`, both ends of each), the factory
/// that numbers their packets, and the store the MAC's packet refs
/// resolve against.
pub(super) struct Traffic {
    flows: Vec<Flow>,
    factory: PacketFactory,
    /// Where a flow being called puts the packets it wants carried
    /// (reused across calls; zero steady-state allocation).
    outbox: Vec<Packet>,
    /// Every packet put out so far, by packet id (the factory counts from
    /// zero).
    packets: Vec<Option<Packet>>,
}

impl Traffic {
    pub(super) fn new(flows: Vec<Flow>) -> Self {
        Traffic {
            flows,
            factory: PacketFactory::new(),
            outbox: Vec::new(),
            packets: Vec::new(),
        }
    }

    pub(super) fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Call `flow` and store the packets it put out: its client, those
    /// packets in sending order (the outbox: hand it back drained with
    /// [`Traffic::recycle`]; a nested call finds it empty) and what it
    /// asks — `None` for a packet of no flow of this world.
    pub(super) fn call(
        &mut self,
        flow: FlowId,
        call: impl FnOnce(&mut Flow, &mut PacketFactory, &mut Vec<Packet>) -> Asks,
    ) -> Option<(NodeId, Vec<Packet>, Asks)> {
        let f = self.flows.get_mut(flow.0 as usize)?;
        let mut out = std::mem::take(&mut self.outbox);
        let asks = call(f, &mut self.factory, &mut out);
        for &p in &out {
            set_at(&mut self.packets, p.id as usize, Some(p), None);
        }
        Some((f.client, out, asks))
    }

    pub(super) fn recycle(&mut self, out: Vec<Packet>) {
        self.outbox = out;
    }

    /// Resolve an in-flight packet ref. `None` — a ref outliving its
    /// store entry (duplicate delivery racing cleanup in a large world)
    /// — is the caller's cue to skip the frame, not a crash.
    pub(super) fn packet(&self, r: PacketRef) -> Option<Packet> {
        *self.packets.get(usize::try_from(r.id).ok()?)?
    }

    /// Fold every flow's observables into `report`; answer the clients
    /// with open-ended downlink demand or an unfinished finite transfer.
    pub(super) fn fold_into(&self, report: &mut RunReport) -> HashSet<NodeId> {
        for flow in &self.flows {
            flow.fold_into(report);
        }
        let open = self.flows.iter().filter(|f| f.wants_downlink());
        open.map(|f| f.client).collect()
    }

    #[cfg(test)]
    pub(super) fn flow(&self, flow: FlowId) -> &Flow {
        &self.flows[flow.0 as usize]
    }
}
