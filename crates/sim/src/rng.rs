//! Deterministic pseudo-random number generation.
//!
//! All stochastic behaviour in the reproduction — Doppler fading phases,
//! MAC backoff slots, packet error draws, traffic jitter — derives from one
//! experiment seed through named [`RngStream`]s. Two design rules:
//!
//! 1. **Version stability.** The generator is xoshiro256\*\* with SplitMix64
//!    seeding, implemented here (≈40 lines) so results never change under a
//!    dependency upgrade, unlike `rand::SmallRng` whose algorithm is
//!    explicitly unstable.
//! 2. **Stream independence.** Subsystems must not share a generator, or
//!    adding a draw in one place would perturb every other subsystem and
//!    break A/B comparisons (e.g. WGTT vs the Enhanced 802.11r baseline over
//!    the *same* channel realization). [`RngStream::derive`] gives each
//!    subsystem its own generator keyed by a label hash.

/// SplitMix64: used to expand a 64-bit seed into xoshiro state and to mix
/// label hashes. Reference: Steele, Lea, Flood (2014).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string; used to hash stream labels.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// xoshiro256\*\* by Blackman & Vigna — fast, high-quality, 256-bit state.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 as the authors recommend; any `u64` seed
    /// (including 0) yields a valid, well-mixed state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256 { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased method.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection-free for most draws; loop handles the biased zone.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box–Muller (we discard the second variate to
    /// keep the generator stateless beyond its 256-bit core).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (self.next_u64() >> 11).max(1) as f64 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Exponential with the given mean (inverse of the rate).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = (self.next_u64() >> 11).max(1) as f64 * (1.0 / (1u64 << 53) as f64);
        -mean * u.ln()
    }
}

/// A seed-derivation tree. The experiment harness creates one root from the
/// experiment seed, then every subsystem derives an independent generator
/// (or sub-stream) from a human-readable label.
///
/// ```
/// use wgtt_sim::rng::RngStream;
/// let root = RngStream::root(42);
/// let mut fading = root.derive("fading").derive_indexed("link", 3).rng();
/// let mut backoff = root.derive("mac-backoff").rng();
/// let a = fading.next_u64();
/// let b = backoff.next_u64();
/// assert_ne!(a, b); // independent streams
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RngStream {
    key: u64,
}

impl RngStream {
    /// Root stream for an experiment seed.
    pub fn root(seed: u64) -> Self {
        let mut sm = seed ^ 0x5747_5454_2017_0821; // "WGTT", SIGCOMM'17 dates
        RngStream {
            key: splitmix64(&mut sm),
        }
    }

    /// Child stream identified by a label.
    pub fn derive(&self, label: &str) -> RngStream {
        let mut sm = self.key ^ fnv1a(label.as_bytes());
        RngStream {
            key: splitmix64(&mut sm),
        }
    }

    /// Child stream identified by a label and an index (e.g. per-link,
    /// per-client streams).
    pub fn derive_indexed(&self, label: &str, index: u64) -> RngStream {
        let mut sm = self.key ^ fnv1a(label.as_bytes()) ^ index.rotate_left(17);
        RngStream {
            key: splitmix64(&mut sm),
        }
    }

    /// Materialize the generator for this stream.
    pub fn rng(&self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_answer_vector() {
        // Pin the exact output sequence so any accidental algorithm change
        // is caught (experiments must be bit-reproducible forever).
        let mut r = Xoshiro256::seed_from_u64(0);
        let v: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(v[0], 11091344671253066420);
        assert_eq!(v[1], 13793997310169335082);
        assert_eq!(v[2], 1900383378846508768);
        assert_eq!(v[3], 7684712102626143532);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = Xoshiro256::seed_from_u64(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Xoshiro256::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_moments() {
        let mut r = Xoshiro256::seed_from_u64(4);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn streams_are_independent() {
        let root = RngStream::root(99);
        let mut a = root.derive("alpha").rng();
        let mut b = root.derive("beta").rng();
        let mut same = 0;
        for _ in 0..64 {
            if a.next_u64() == b.next_u64() {
                same += 1;
            }
        }
        assert_eq!(same, 0);
    }

    #[test]
    fn indexed_streams_differ() {
        let root = RngStream::root(1);
        let x = root.derive_indexed("link", 0).rng().next_u64();
        let y = root.derive_indexed("link", 1).rng().next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn derivation_is_stable() {
        // Same seed + same labels => same stream, regardless of call order.
        let r1 = RngStream::root(5).derive("mac").derive_indexed("ap", 2);
        let r2 = RngStream::root(5).derive("mac").derive_indexed("ap", 2);
        assert_eq!(r1.rng().next_u64(), r2.rng().next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xoshiro256::seed_from_u64(6);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }
}
