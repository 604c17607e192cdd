//! Uplink packet de-duplication (paper §3.2.2–3.2.3).
//!
//! Every AP that decodes a client's uplink packet tunnels it to the
//! controller — that redundancy is WGTT's uplink path diversity (Fig. 18)
//! — so the controller must drop the copies before forwarding to the
//! Internet, or TCP sees spurious duplicates. The paper uses a hash set
//! keyed by a 48-bit value built from the source IP address and the IPv4
//! identification field. We add bounded memory: once the set reaches
//! capacity, the *least recently seen* key ages out (the ident field
//! wraps at 65,536 packets per source, so unbounded retention would
//! eventually *drop fresh packets*). The controller keeps one filter per
//! source, so no other source's keys push an old ident out: eviction
//! happens only if the capacity is below the 2¹⁶ idents of one source,
//! which is why `WgttConfig::dedup_capacity` defaults to 2¹⁵ and
//! `Controller::new` refuses 2¹⁶ or more. Recency — not insertion order — is
//! what must drive eviction: a duplicate hit proves the key's flow is
//! still alive across multiple APs, and under the old FIFO order a
//! long-lived chatty flow's key aged out while its copies were still
//! arriving, so a late third copy was re-accepted and forwarded twice.

use std::collections::VecDeque;
use wgtt_sim::hash::FastMap;

/// Bounded-memory duplicate filter over 48-bit packet keys, evicting in
/// least-recently-seen order.
///
/// ```
/// use wgtt::dedup::DedupFilter;
/// let mut d = DedupFilter::new(1024);
/// assert!(d.check_and_insert(42));   // first copy → forward
/// assert!(!d.check_and_insert(42));  // second AP's copy → drop
/// ```
#[derive(Debug)]
pub struct DedupFilter {
    /// key → recency stamp of its most recent sighting (first copy *or*
    /// duplicate hit).
    seen: FastMap<u64, u64>,
    /// `(stamp, key)` of every sighting not yet compacted away, in stamp
    /// order. An entry is live while `seen[key]` still holds its stamp;
    /// a hit leaves the key's older entry stale, so the first live entry
    /// is always the eviction victim. Stale entries are skipped when
    /// they reach the front and dropped wholesale once the deque holds
    /// more than `2·len + 64` entries.
    order: VecDeque<(u64, u64)>,
    /// Monotonic sighting counter backing the recency stamps.
    tick: u64,
    capacity: usize,
    /// Packets accepted (first copies).
    pub accepted: u64,
    /// Duplicate copies dropped.
    pub duplicates: u64,
}

impl DedupFilter {
    /// Filter remembering at most `capacity` recent keys.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dedup capacity must be positive");
        DedupFilter {
            // Grow lazily: the controller keeps one filter per source
            // address, and a fleet has ~one source per vehicle plus the
            // servers. Reserving 2¹⁶ buckets up front cost ~1 MiB per
            // source — ~100 GiB at the 10⁵-source scale the controller
            // tests pin — for sources that mostly hold a handful of
            // in-flight keys.
            seen: FastMap::default(),
            order: VecDeque::new(),
            tick: 0,
            capacity,
            accepted: 0,
            duplicates: 0,
        }
    }

    /// Observe `key`. Returns `true` if this is the first (and thus
    /// forwardable) copy. A duplicate hit refreshes the key's recency,
    /// so an actively chatty flow is never evicted ahead of idle ones.
    pub fn check_and_insert(&mut self, key: u64) -> bool {
        self.tick += 1;
        let fresh = if let Some(stamp) = self.seen.get_mut(&key) {
            self.duplicates += 1;
            *stamp = self.tick;
            false
        } else {
            if self.seen.len() >= self.capacity {
                self.evict_least_recent();
            }
            self.seen.insert(key, self.tick);
            self.accepted += 1;
            true
        };
        self.order.push_back((self.tick, key));
        if self.order.len() > 2 * self.seen.len() + 64 {
            let seen = &self.seen;
            self.order
                .retain(|(stamp, key)| seen.get(key) == Some(stamp));
        }
        fresh
    }

    /// Forget the key whose latest sighting is the oldest.
    fn evict_least_recent(&mut self) {
        loop {
            let (stamp, key) = self.order.pop_front().expect("every key has a live entry");
            if self.seen.get(&key) == Some(&stamp) {
                self.seen.remove(&key);
                return;
            }
        }
    }

    /// Keys currently remembered.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Hash-table slots currently reserved — the filter's memory
    /// footprint proxy. Stays proportional to the keys actually seen
    /// (never eagerly `capacity`-sized), which is what keeps 10⁵
    /// per-source filters affordable.
    pub fn reserved(&self) -> usize {
        self.seen.capacity()
    }

    /// Whether no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_copy_passes_rest_drop() {
        let mut d = DedupFilter::new(100);
        assert!(d.check_and_insert(42));
        assert!(!d.check_and_insert(42));
        assert!(!d.check_and_insert(42));
        assert_eq!(d.accepted, 1);
        assert_eq!(d.duplicates, 2);
    }

    #[test]
    fn distinct_keys_all_pass() {
        let mut d = DedupFilter::new(100);
        for k in 0..50u64 {
            assert!(d.check_and_insert(k));
        }
        assert_eq!(d.accepted, 50);
        assert_eq!(d.duplicates, 0);
    }

    #[test]
    fn capacity_ages_out_least_recent() {
        let mut d = DedupFilter::new(3);
        for k in [1u64, 2, 3] {
            d.check_and_insert(k);
        }
        d.check_and_insert(4); // evicts 1
        assert_eq!(d.len(), 3);
        // Key 1 forgotten → accepted again (the ident-wrap case).
        assert!(d.check_and_insert(1));
        // Key 3 still remembered.
        assert!(!d.check_and_insert(3));
    }

    #[test]
    fn duplicate_hit_refreshes_recency() {
        // Regression (§3.2.2 filter): a long-lived chatty flow keeps
        // producing duplicate copies of key 1 via multiple APs. Under
        // FIFO eviction the key aged out while still active, so a late
        // third copy was re-accepted and forwarded twice to the WAN.
        let mut d = DedupFilter::new(3);
        assert!(d.check_and_insert(1)); // the chatty flow's key
        assert!(d.check_and_insert(2));
        assert!(d.check_and_insert(3));
        assert!(!d.check_and_insert(1)); // second AP's copy — refreshes 1
        assert!(d.check_and_insert(4)); // must evict 2 (least recent), not 1
        assert!(
            !d.check_and_insert(1),
            "late third copy of an active flow's key must still be a duplicate"
        );
        // Key 2 was the eviction victim instead.
        assert!(d.check_and_insert(2));
        assert_eq!(d.len(), 3);
        // Counters stayed consistent throughout: 5 first copies, 2 dups.
        assert_eq!(d.accepted, 5);
        assert_eq!(d.duplicates, 2);
    }

    #[test]
    fn fresh_filter_reserves_nothing() {
        // Regression: `new` used to call `HashMap::with_capacity(2¹⁶)`,
        // eagerly burning ~1 MiB per filter — fatal once the controller
        // splits dedup state per source address (10⁵ sources at fleet
        // scale). Memory must follow the keys actually inserted.
        let d = DedupFilter::new(1 << 16);
        assert_eq!(d.reserved(), 0);
        let mut d = DedupFilter::new(1 << 16);
        for k in 0..8u64 {
            d.check_and_insert(k);
        }
        assert!(
            d.reserved() < 64,
            "8 keys must not reserve {} slots",
            d.reserved()
        );
    }

    #[test]
    fn three_ap_duplication_scenario() {
        // Three APs overhear the same uplink stream: per packet, exactly
        // one copy reaches the WAN.
        let mut d = DedupFilter::new(1 << 16);
        let mut forwarded = 0;
        for pkt_key in 0..1000u64 {
            for _ap in 0..3 {
                if d.check_and_insert(pkt_key) {
                    forwarded += 1;
                }
            }
        }
        assert_eq!(forwarded, 1000);
        assert_eq!(d.duplicates, 2000);
    }

    proptest! {
        #[test]
        fn set_and_queue_stay_consistent(
            span in 1u64..50,
            keys in proptest::collection::vec(0u64..50, 1..600),
        ) {
            // Spans up to 16 never evict, so only compaction can bound
            // the stale stamps their hits leave.
            let mut d = DedupFilter::new(16);
            for k in keys {
                d.check_and_insert(k % span);
                prop_assert!(d.len() <= 16);
                // Each remembered key has exactly one live stamp, and the
                // stale ones never pile up past the compaction bound.
                for (key, stamp) in &d.seen {
                    let live = d.order.iter().filter(|&e| *e == (*stamp, *key)).count();
                    prop_assert_eq!(live, 1);
                }
                prop_assert!(d.order.len() <= 2 * d.seen.len() + 64);
            }
        }

        /// The filter against a naive LRU list (least recent first): the
        /// same verdict on every key and the same remembered set after
        /// every step.
        #[test]
        fn evicts_exactly_like_a_naive_lru(keys in proptest::collection::vec(0u64..40, 1..600)) {
            const CAPACITY: usize = 16;
            let mut d = DedupFilter::new(CAPACITY);
            let mut lru: Vec<u64> = Vec::new();
            for k in keys {
                let fresh = match lru.iter().position(|&x| x == k) {
                    Some(i) => {
                        lru.remove(i);
                        false
                    }
                    None => {
                        if lru.len() >= CAPACITY {
                            lru.remove(0);
                        }
                        true
                    }
                };
                lru.push(k);
                prop_assert_eq!(d.check_and_insert(k), fresh);
                let mut remembered: Vec<u64> = d.seen.keys().copied().collect();
                remembered.sort_unstable();
                let mut want = lru.clone();
                want.sort_unstable();
                prop_assert_eq!(remembered, want);
            }
        }
    }
}
