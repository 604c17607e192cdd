//! Monotonicity suite for `Mcs::per`.
//!
//! The frame path settles a delivery roll from an *upper bound* on the
//! link's ESNR whenever it can (`wgtt_scenario::decide`): with the draw
//! `u` in hand, `u < per(bound + margin)` is taken to mean
//! `u < per(exact)`. That inference is exactly "`per` never rises with
//! ESNR", in floats: across any two ESNRs at least `BOUND_MARGIN_DB`
//! apart, for every MCS and every frame length, and for the
//! length-independent half `q1500` the rolls cache. The grid test also
//! shows the curve has no wobble at the millidecibel scale the margin
//! would have to absorb.

use proptest::prelude::*;
use wgtt_mac::mcs::ALL_MCS;
use wgtt_radio::BOUND_MARGIN_DB;

/// Lengths the world rolls (keepalive, control, TCP ACK, MTU) and the
/// ends of the `u16` range.
const LENS: [u16; 7] = [0, 1, 40, 64, 1500, 4095, u16::MAX];

#[test]
fn per_never_rises_on_a_millidecibel_grid() {
    for m in ALL_MCS {
        let mut prev = [f64::INFINITY; LENS.len()];
        let mut prev_q = f64::NEG_INFINITY;
        // −60 dB (every curve long saturated at 1) to +50 dB (at 0).
        for step in 0..=110_000 {
            let esnr = -60.0 + f64::from(step) * 1e-3;
            let q = m.q1500(esnr);
            assert!(q >= prev_q, "{m:?} q1500 fell at {esnr} dB");
            prev_q = q;
            for (slot, &len) in prev.iter_mut().zip(&LENS) {
                let p = m.per(esnr, len);
                assert!((0.0..=1.0).contains(&p));
                assert!(p <= *slot, "{m:?} per rose at {esnr} dB, {len} bytes");
                *slot = p;
            }
        }
        assert_eq!(prev_q, 1.0, "{m:?} delivers everything at +50 dB");
    }
}

proptest! {
    #[test]
    fn per_ordered_across_pairs_a_margin_apart(
        lo in -80.0f64..60.0,
        gap in 0.0f64..40.0,
        mcs_idx in 0usize..8,
        len in any::<u16>(),
    ) {
        let m = ALL_MCS[mcs_idx];
        let hi = lo + BOUND_MARGIN_DB + gap;
        prop_assert!(m.q1500(hi) >= m.q1500(lo));
        prop_assert!(m.per(hi, len) <= m.per(lo, len), "{:?} {} {} {}", m, lo, hi, len);
    }
}
