//! The controller side of the three-step switching protocol (§3.1.2).
//!
//! 1. controller → AP1: `stop(c)` (with the layer-2 identity of AP2);
//! 2. AP1 → AP2: `start(c, k)` where `k` is the first unsent index;
//! 3. AP2 → controller: `ack`, and AP2 starts transmitting from `k`.
//!
//! The controller retransmits `stop` if no `ack` arrives within 30 ms,
//! and — footnote 2 — "will not issue another switch until the current
//! issued switch is acknowledged". This module is exactly that state
//! machine, per client; timing of the timeout is polled by the owner.

use wgtt_mac::frame::NodeId;
use wgtt_sim::time::{SimDuration, SimTime};

/// Abandon an attempt after this many stop retransmissions (the old AP
/// may have died; the controller re-evaluates selection instead of
/// blocking forever).
const MAX_RETRIES: u32 = 10;

/// State of one client's switching protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchState {
    /// No switch in progress.
    Idle,
    /// `stop` sent; waiting for the `ack` from the new AP.
    AwaitingAck {
        /// AP being switched away from.
        from: NodeId,
        /// AP being switched to.
        to: NodeId,
        /// Attempt identifier carried by the control packets.
        switch_id: u64,
        /// When the *first* `stop` of this attempt went out (the Table 1
        /// execution time spans retransmissions).
        started: SimTime,
        /// When the pending `stop` was (re)sent.
        sent_at: SimTime,
        /// How many times `stop` has been retransmitted.
        retries: u32,
    },
}

/// Outcome of a poll or event on the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchEvent {
    /// Nothing to do.
    None,
    /// (Re)send `stop(client, next_ap)` to `old_ap`.
    SendStop {
        /// AP to stop.
        old_ap: NodeId,
        /// AP taking over (carried inside the stop packet).
        new_ap: NodeId,
        /// Attempt id.
        switch_id: u64,
    },
    /// The switch completed (ack received); the new AP now serves.
    Completed {
        /// The AP now serving.
        new_ap: NodeId,
        /// Total protocol execution time, `stop` first sent → `ack`.
        elapsed: SimDuration,
    },
}

/// Per-client switching protocol driver.
///
/// ```
/// use wgtt::switching::{SwitchEvent, SwitchProtocol};
/// use wgtt_mac::frame::NodeId;
/// use wgtt_sim::{SimDuration, SimTime};
///
/// let mut p = SwitchProtocol::new(SimDuration::from_millis(30));
/// let Some(SwitchEvent::SendStop { switch_id, .. }) =
///     p.begin(NodeId(1), NodeId(2), SimTime::ZERO) else { unreachable!() };
/// // The new AP acks ≈17 ms later (paper Table 1):
/// let done = p.on_ack(switch_id, SimTime::from_millis(17));
/// assert!(matches!(done, SwitchEvent::Completed { .. }));
/// ```
#[derive(Debug)]
pub struct SwitchProtocol {
    state: SwitchState,
    ack_timeout: SimDuration,
    next_switch_id: u64,
}

impl SwitchProtocol {
    /// New driver with the paper's 30 ms ack timeout.
    pub fn new(ack_timeout: SimDuration) -> Self {
        SwitchProtocol {
            state: SwitchState::Idle,
            ack_timeout,
            next_switch_id: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> SwitchState {
        self.state
    }

    /// True when a switch is outstanding (blocks new switch decisions —
    /// paper footnote 2).
    pub fn busy(&self) -> bool {
        !matches!(self.state, SwitchState::Idle)
    }

    /// Begin a switch from `from` to `to` at `now`. Returns the
    /// `SendStop` action, or `None` if a switch is already outstanding.
    pub fn begin(&mut self, from: NodeId, to: NodeId, now: SimTime) -> Option<SwitchEvent> {
        if self.busy() {
            return None;
        }
        let switch_id = self.next_switch_id;
        self.next_switch_id += 1;
        self.state = SwitchState::AwaitingAck {
            from,
            to,
            switch_id,
            started: now,
            sent_at: now,
            retries: 0,
        };
        Some(SwitchEvent::SendStop {
            old_ap: from,
            new_ap: to,
            switch_id,
        })
    }

    /// Handle an `ack` for `switch_id`. Stale acks (from an abandoned
    /// attempt) are ignored.
    pub fn on_ack(&mut self, switch_id: u64, now: SimTime) -> SwitchEvent {
        match self.state {
            SwitchState::AwaitingAck {
                to,
                switch_id: pending,
                started,
                ..
            } if pending == switch_id => {
                self.state = SwitchState::Idle;
                SwitchEvent::Completed {
                    new_ap: to,
                    elapsed: now.saturating_since(started),
                }
            }
            _ => SwitchEvent::None,
        }
    }

    /// The instant the ack timeout fires, if a switch is outstanding.
    pub fn timeout_at(&self) -> Option<SimTime> {
        match self.state {
            SwitchState::AwaitingAck { sent_at, .. } => Some(sent_at + self.ack_timeout),
            SwitchState::Idle => None,
        }
    }

    /// Poll at `now`: retransmit the stop if the timeout elapsed, or give
    /// up after `MAX_RETRIES`.
    pub fn poll(&mut self, now: SimTime) -> SwitchEvent {
        let SwitchState::AwaitingAck {
            from,
            to,
            switch_id,
            sent_at,
            retries,
            ..
        } = &mut self.state
        else {
            return SwitchEvent::None;
        };
        if now.saturating_since(*sent_at) < self.ack_timeout {
            return SwitchEvent::None;
        }
        if *retries >= MAX_RETRIES {
            // Abandon; the selector will decide afresh.
            self.state = SwitchState::Idle;
            return SwitchEvent::None;
        }
        *sent_at = now;
        *retries += 1;
        SwitchEvent::SendStop {
            old_ap: *from,
            new_ap: *to,
            switch_id: *switch_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    const AP1: NodeId = NodeId(1);
    const AP2: NodeId = NodeId(2);

    fn proto() -> SwitchProtocol {
        SwitchProtocol::new(SimDuration::from_millis(30))
    }

    #[test]
    fn happy_path_three_steps() {
        let mut p = proto();
        let ev = p.begin(AP1, AP2, ms(0)).expect("idle, must start");
        let SwitchEvent::SendStop {
            old_ap,
            new_ap,
            switch_id,
        } = ev
        else {
            panic!("expected SendStop");
        };
        assert_eq!((old_ap, new_ap), (AP1, AP2));
        assert!(p.busy());
        let done = p.on_ack(switch_id, ms(17));
        assert_eq!(
            done,
            SwitchEvent::Completed {
                new_ap: AP2,
                elapsed: SimDuration::from_millis(17)
            }
        );
        assert!(!p.busy());
    }

    #[test]
    fn single_outstanding_switch() {
        let mut p = proto();
        p.begin(AP1, AP2, ms(0)).unwrap();
        // Footnote 2: no second switch until the first acks.
        assert!(p.begin(AP2, AP1, ms(5)).is_none());
    }

    #[test]
    fn timeout_retransmits_stop() {
        let mut p = proto();
        let SwitchEvent::SendStop { switch_id, .. } = p.begin(AP1, AP2, ms(0)).unwrap() else {
            panic!();
        };
        assert_eq!(p.poll(ms(29)), SwitchEvent::None);
        assert_eq!(p.timeout_at(), Some(ms(30)));
        let again = p.poll(ms(30));
        assert_eq!(
            again,
            SwitchEvent::SendStop {
                old_ap: AP1,
                new_ap: AP2,
                switch_id
            }
        );
        // Timer restarts from the retransmission.
        assert_eq!(p.timeout_at(), Some(ms(60)));
    }

    #[test]
    fn elapsed_spans_retransmissions() {
        let mut p = proto();
        let SwitchEvent::SendStop { switch_id, .. } = p.begin(AP1, AP2, ms(0)).unwrap() else {
            panic!();
        };
        p.poll(ms(30)); // one retransmission
        let SwitchEvent::Completed { elapsed, .. } = p.on_ack(switch_id, ms(47)) else {
            panic!("ack must complete");
        };
        assert_eq!(elapsed, SimDuration::from_millis(47));
    }

    #[test]
    fn stale_ack_ignored() {
        let mut p = proto();
        let SwitchEvent::SendStop { switch_id, .. } = p.begin(AP1, AP2, ms(0)).unwrap() else {
            panic!();
        };
        assert_eq!(p.on_ack(switch_id + 99, ms(5)), SwitchEvent::None);
        assert!(p.busy());
    }

    #[test]
    fn gives_up_after_max_retries() {
        let mut p = proto();
        p.begin(AP1, AP2, ms(0)).unwrap();
        let mut t = ms(0);
        let mut resends = 0;
        for _ in 0..20 {
            t += SimDuration::from_millis(30);
            if matches!(p.poll(t), SwitchEvent::SendStop { .. }) {
                resends += 1;
            }
        }
        assert_eq!(resends, 10);
        assert!(!p.busy(), "must abandon eventually");
    }

    #[test]
    fn timeout_exactly_at_boundary_fires() {
        // §3.1.2: retransmit when the 30 ms ack timeout elapses. The
        // boundary is inclusive on the fire side: at `now == sent_at +
        // 30 ms` the timeout has elapsed (`saturating_since == timeout`,
        // not `<`), one nanosecond earlier it has not.
        let mut p = proto();
        let SwitchEvent::SendStop { switch_id, .. } = p.begin(AP1, AP2, ms(0)).unwrap() else {
            panic!();
        };
        let just_before = SimTime::from_nanos(ms(30).as_nanos() - 1);
        assert_eq!(p.poll(just_before), SwitchEvent::None);
        // `timeout_at` and the poll that fires must agree on the instant.
        assert_eq!(p.timeout_at(), Some(ms(30)));
        assert_eq!(
            p.poll(ms(30)),
            SwitchEvent::SendStop {
                old_ap: AP1,
                new_ap: AP2,
                switch_id
            }
        );
        // And an ack landing exactly at a later boundary still completes
        // (the retransmission does not invalidate the attempt id).
        assert_eq!(p.timeout_at(), Some(ms(60)));
        let SwitchEvent::Completed { elapsed, .. } = p.on_ack(switch_id, ms(60)) else {
            panic!("boundary ack must complete");
        };
        assert_eq!(elapsed, SimDuration::from_millis(60));
    }

    #[test]
    fn abandon_after_max_retries_exact_budget() {
        // The abandon path, counted exactly: the initial stop plus
        // `MAX_RETRIES` retransmissions, then the next elapsed timeout
        // abandons (returns None, goes Idle, disarms the timer).
        let mut p = proto();
        p.begin(AP1, AP2, ms(0)).unwrap();
        let mut t = ms(0);
        for i in 0..10 {
            t += SimDuration::from_millis(30);
            assert!(
                matches!(p.poll(t), SwitchEvent::SendStop { .. }),
                "retransmission {i} must fire"
            );
            assert!(p.busy(), "still outstanding after retransmission {i}");
        }
        // Retry budget exhausted: the 11th elapsed timeout gives up.
        t += SimDuration::from_millis(30);
        assert_eq!(p.poll(t), SwitchEvent::None);
        assert!(!p.busy());
        assert_eq!(p.timeout_at(), None);
        assert_eq!(p.state(), SwitchState::Idle);
    }

    #[test]
    fn stale_ack_after_abandon_never_completes() {
        let mut p = proto();
        let SwitchEvent::SendStop { switch_id, .. } = p.begin(AP1, AP2, ms(0)).unwrap() else {
            panic!();
        };
        let mut t = ms(0);
        while p.busy() {
            t += SimDuration::from_millis(30);
            p.poll(t);
        }
        // The ack for the abandoned attempt finally limps in: it must
        // not complete a switch the controller already gave up on...
        assert_eq!(
            p.on_ack(switch_id, t + SimDuration::from_millis(1)),
            SwitchEvent::None
        );
        assert!(!p.busy());
        // ...nor leak into the next attempt, which gets a fresh id.
        let SwitchEvent::SendStop {
            switch_id: next, ..
        } = p.begin(AP2, AP1, t + SimDuration::from_millis(2)).unwrap()
        else {
            panic!();
        };
        assert_ne!(next, switch_id);
        assert_eq!(
            p.on_ack(switch_id, t + SimDuration::from_millis(3)),
            SwitchEvent::None
        );
        assert!(p.busy(), "stale ack must not complete the new attempt");
    }

    #[test]
    fn one_outstanding_switch_across_whole_lifecycle() {
        // Footnote 2, strengthened: `begin` stays refused through every
        // retransmission of an outstanding attempt, and unblocks on both
        // exit paths (ack completion and retry-budget abandonment).
        let mut p = proto();
        let SwitchEvent::SendStop { switch_id, .. } = p.begin(AP1, AP2, ms(0)).unwrap() else {
            panic!();
        };
        let mut t = ms(0);
        for _ in 0..3 {
            t += SimDuration::from_millis(30);
            p.poll(t);
            assert!(p.begin(AP2, AP1, t).is_none(), "blocked while awaiting ack");
        }
        // Exit path 1: completion by ack.
        assert!(matches!(
            p.on_ack(switch_id, t + SimDuration::from_millis(1)),
            SwitchEvent::Completed { .. }
        ));
        let mut t = t + SimDuration::from_millis(2);
        p.begin(AP2, AP1, t).expect("idle after completion");
        // Exit path 2: abandonment after the retry budget.
        for _ in 0..=10 {
            assert!(p.begin(AP1, AP2, t).is_none(), "blocked while retrying");
            t += SimDuration::from_millis(30);
            p.poll(t);
        }
        assert!(!p.busy());
        p.begin(AP1, AP2, t).expect("idle after abandonment");
    }

    #[test]
    fn switch_ids_are_unique_per_attempt() {
        let mut p = proto();
        let SwitchEvent::SendStop { switch_id: a, .. } = p.begin(AP1, AP2, ms(0)).unwrap() else {
            panic!();
        };
        p.on_ack(a, ms(10));
        let SwitchEvent::SendStop { switch_id: b, .. } = p.begin(AP2, AP1, ms(20)).unwrap() else {
            panic!();
        };
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any interleaving of polls and (possibly stale) acks the
        /// protocol completes at most once per begun attempt and never
        /// wedges: after the retry budget it always returns to Idle.
        #[test]
        fn never_wedges_or_double_completes(
            events in proptest::collection::vec((0u8..3, 0u64..4), 1..60)
        ) {
            let mut p = SwitchProtocol::new(SimDuration::from_millis(30));
            let mut now = SimTime::ZERO;
            let mut begun = 0u32;
            let mut completed = 0u32;
            let mut last_id = 0u64;
            for (kind, arg) in events {
                now += SimDuration::from_millis(10 + arg);
                match kind {
                    0 => {
                        if let Some(SwitchEvent::SendStop { switch_id, .. }) =
                            p.begin(NodeId(1), NodeId(2), now)
                        {
                            begun += 1;
                            last_id = switch_id;
                        }
                    }
                    1 => {
                        // Ack with a possibly-stale id.
                        let id = last_id.saturating_sub(arg);
                        if matches!(p.on_ack(id, now), SwitchEvent::Completed { .. }) {
                            completed += 1;
                        }
                    }
                    _ => {
                        let _ = p.poll(now);
                    }
                }
            }
            prop_assert!(completed <= begun);
            // Drain any pending attempt: within the retry budget the
            // protocol must give up and unblock.
            for _ in 0..12 {
                now += SimDuration::from_millis(31);
                let _ = p.poll(now);
            }
            prop_assert!(!p.busy());
        }
    }
}
