//! Small-scale multipath fading.
//!
//! Each client↔AP link carries a tapped-delay-line channel whose taps
//! evolve by Clarke's sum-of-sinusoids model with the Doppler spread set by
//! the vehicle speed (`f_d = v/λ`; 15 mph → ≈ 55 Hz → coherence time of a
//! few milliseconds at 2.4 GHz — exactly the regime of paper Fig. 2). The
//! first tap is Rician (a line-of-sight component exists when the client is
//! in the antenna mainlobe across an open road); later taps are Rayleigh
//! with an exponential power-delay profile whose RMS delay spread is small
//! (≈ 75 ns), consistent with the paper's note (§4) that WGTT's small cells
//! keep the delay spread indoor-like.
//!
//! Tap gains are *pure deterministic functions of simulation time*: the
//! sinusoid frequencies and phases are fixed at construction from the
//! experiment seed, so the channel can be sampled at arbitrary instants by
//! any subsystem and is identical across compared systems.
//!
//! ## Two implementations, two contracts
//!
//! CSI synthesis runs once per overhearing AP per uplink frame, in the
//! simulator's hottest loop (the frame path's `TxEnd`). This
//! module therefore ships a structure-of-arrays implementation whose lane
//! loops vectorize (see `crates/simd`), built on top of the seed
//! implementation:
//!
//! * [`reference::FadingProcess`] — the seed implementation, verbatim. It
//!   draws every link's realization ([`FadingProcess::new`] constructs
//!   through it), so it is load-bearing as well as the oracle.
//! * [`FadingProcess`] (shipping) — the SoA path: `re`/`im` planes instead
//!   of arrays of `Complex`, the 48 sinusoids of all six taps evaluated by
//!   one branchless vector sin/cos pass, and the 56-subcarrier twiddle MAC
//!   as `f64 × 8` lane arithmetic.
//!
//! The SIMD path's only deviation from the reference is its faithful
//! (≤ 2 ulp) vector transcendentals and the factorized phase rotation
//! `cos(ωt+φ) = cos ωt · cos φ − sin ωt · sin φ`; every other lane
//! operation is exact IEEE arithmetic in the reference's accumulation
//! order. Its contract is therefore **within-1e-6-dB of the reference**
//! (in practice ~1e-9 dB) plus **bit-identity across backends and lane
//! widths** — both enforced by `crates/radio/tests/prop_simd.rs` over
//! random links, times and backend choices.
//!
//! ## A synthesis in two halves, and two bounds on its result
//!
//! A synthesis is the sinusoid pass ([`TapGains`], most of the cost) and
//! then the twiddle MAC over the 56 subcarriers. The halves are callable
//! apart — [`FadingProcess::tap_gains_at`],
//! [`FadingProcess::powers_from_gains`] — and composing them is
//! [`FadingProcess::powers_at`] operation for operation. A caller that
//! only has a threshold to test can often stop early:
//!
//! * [`FadingProcess::peak_gain_db`] bounds the wideband gain at *every*
//!   instant from the tap powers and the Rician scale alone;
//! * [`FadingProcess::wideband_gain_of`] gives the wideband gain *at one
//!   instant* from the six tap gains through the 6 × 6 Gram matrix of
//!   the twiddle planes, with no subcarrier sweep.
//!
//! [`crate::link`] turns both into ESNR/RSSI bounds;
//! `crates/radio/tests/prop_bounds.rs` holds them to the exact values.

use crate::complex::Complex;
use crate::csi::{subcarrier_offset_hz, Csi, NUM_SUBCARRIERS};
use std::sync::OnceLock;
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::SimTime;
use wgtt_simd::{multiversion, Backend, F64s};

/// Number of multipath taps in the delay line.
pub const NUM_TAPS: usize = 6;

/// Tap spacing in nanoseconds (sampling at 20 MHz ⇒ 50 ns).
pub const TAP_SPACING_NS: f64 = 50.0;

/// Sinusoids per tap in the sum-of-sinusoids synthesizer. Eight is enough
/// for a close-to-Rayleigh envelope while staying cheap to evaluate.
const SINUSOIDS_PER_TAP: usize = 8;

/// Total sinusoid lanes across all taps — one vector sin/cos pass covers
/// the whole delay line.
const SIN_LANES: usize = NUM_TAPS * SINUSOIDS_PER_TAP;

/// Lane width of the subcarrier sweeps (56 = 7 × 8, no tail).
const LANES: usize = 8;

/// Chunks per 56-subcarrier sweep.
const SC_CHUNKS: usize = NUM_SUBCARRIERS / LANES;

/// The seed implementation, retained verbatim.
///
/// [`FadingProcess`] (the shipping SoA
/// path) is constructed *through* this type, so the two can never
/// disagree on the channel realization; `tests/prop_simd.rs` differences
/// the shipping kernels against [`reference::FadingProcess::csi_at`].
pub mod reference {
    use super::{
        subcarrier_offset_hz, Complex, Csi, RngStream, SimTime, NUM_SUBCARRIERS, NUM_TAPS,
        SINUSOIDS_PER_TAP, TAP_SPACING_NS,
    };

    #[derive(Debug, Clone)]
    pub(super) struct Sinusoid {
        /// Angular Doppler frequency of this path, rad/s.
        pub(super) omega: f64,
        /// Phase offset for the real (in-phase) component.
        pub(super) phase_i: f64,
        /// Phase offset for the quadrature component.
        pub(super) phase_q: f64,
    }

    #[derive(Debug, Clone)]
    pub(super) struct Tap {
        /// Mean linear power of this tap (all taps sum to 1).
        pub(super) power: f64,
        /// Excess delay, seconds.
        pub(super) delay_s: f64,
        /// Scattered (Rayleigh) component synthesizer.
        pub(super) sinusoids: Vec<Sinusoid>,
        /// Line-of-sight component: `Some((amplitude, omega, phase))`.
        pub(super) los: Option<(f64, f64, f64)>,
    }

    impl Tap {
        /// Complex gain at time `t` (seconds).
        pub(super) fn gain_at(&self, t: f64) -> Complex {
            let n = self.sinusoids.len() as f64;
            let mut re = 0.0;
            let mut im = 0.0;
            for s in &self.sinusoids {
                re += (s.omega * t + s.phase_i).cos();
                im += (s.omega * t + s.phase_q).sin();
            }
            // Scattered power: each of the I/Q sums has variance n/2, so this
            // scaling gives the scattered part unit mean power.
            let scatter_scale = (1.0 / n).sqrt();
            let mut g = Complex::new(re * scatter_scale, im * scatter_scale);
            if let Some((amp, omega, phase)) = self.los {
                // Rician: deterministic LoS phasor plus scaled scatter.
                let k_scale = (1.0 / (1.0 + amp * amp)).sqrt();
                g = g.scale(k_scale) + Complex::from_polar(amp * k_scale, omega * t + phase);
            }
            g.scale(self.power.sqrt())
        }
    }

    /// The seed's time-varying small-scale channel of one link.
    #[derive(Debug, Clone)]
    pub struct FadingProcess {
        pub(super) taps: Vec<Tap>,
        /// Maximum Doppler shift, Hz.
        pub(super) doppler_hz: f64,
    }

    impl FadingProcess {
        /// Build a fading process (see
        /// [`FadingProcess::new`](super::FadingProcess::new) for the
        /// parameter contract; this is the seed constructor, verbatim).
        pub fn new(stream: RngStream, speed_mps: f64, rician_k_db: f64) -> Self {
            let mut rng = stream.derive("fading-taps").rng();
            let doppler_hz = (speed_mps / crate::WAVELENGTH_M).max(1.0);
            let omega_max = std::f64::consts::TAU * doppler_hz;

            // Exponential power-delay profile with ≈50 ns RMS delay spread
            // (the paper notes WGTT's small cells keep delay spread indoor-like).
            let decay_ns = 50.0;
            let mut powers: Vec<f64> = (0..NUM_TAPS)
                .map(|l| (-(l as f64) * TAP_SPACING_NS / decay_ns).exp())
                .collect();
            let total: f64 = powers.iter().sum();
            for p in &mut powers {
                *p /= total;
            }

            let taps = powers
                .iter()
                .enumerate()
                .map(|(l, &power)| {
                    let sinusoids = (0..SINUSOIDS_PER_TAP)
                        .map(|_| {
                            // Clarke: arrival angles uniform on the circle give
                            // Doppler shifts fd·cos(α).
                            let alpha = rng.uniform_range(0.0, std::f64::consts::TAU);
                            Sinusoid {
                                omega: omega_max * alpha.cos(),
                                phase_i: rng.uniform_range(0.0, std::f64::consts::TAU),
                                phase_q: rng.uniform_range(0.0, std::f64::consts::TAU),
                            }
                        })
                        .collect();
                    let los = if l == 0 && rician_k_db.is_finite() {
                        let k_lin = crate::db_to_linear(rician_k_db);
                        // LoS Doppler: direct path at a random but fixed angle.
                        let alpha0 = rng.uniform_range(0.0, std::f64::consts::TAU);
                        Some((
                            k_lin.sqrt(),
                            omega_max * alpha0.cos(),
                            rng.uniform_range(0.0, std::f64::consts::TAU),
                        ))
                    } else {
                        None
                    };
                    Tap {
                        power,
                        delay_s: l as f64 * TAP_SPACING_NS * 1e-9,
                        sinusoids,
                        los,
                    }
                })
                .collect();

            FadingProcess { taps, doppler_hz }
        }

        /// Maximum Doppler shift, Hz.
        pub fn doppler_hz(&self) -> f64 {
            self.doppler_hz
        }

        /// Per-subcarrier frequency response at instant `t`, normalized to
        /// unit mean power: `H_k(t) = Σ_l g_l(t)·e^{−j2π f_k τ_l}`.
        pub fn csi_at(&self, t: SimTime) -> Csi {
            let ts = t.as_secs_f64();
            let gains: Vec<Complex> = self.taps.iter().map(|tap| tap.gain_at(ts)).collect();
            let mut h = [Complex::ZERO; NUM_SUBCARRIERS];
            for (i, hk) in h.iter_mut().enumerate() {
                let f = subcarrier_offset_hz(i);
                let mut acc = Complex::ZERO;
                for (tap, &g) in self.taps.iter().zip(gains.iter()) {
                    let phase = -std::f64::consts::TAU * f * tap.delay_s;
                    acc += g * Complex::from_polar(1.0, phase);
                }
                *hk = acc;
            }
            Csi { h }
        }

        /// Wideband (subcarrier-averaged) instantaneous power gain at `t`.
        pub fn wideband_gain_at(&self, t: SimTime) -> f64 {
            self.csi_at(t).mean_power()
        }
    }
}

/// The shipping time-varying small-scale channel of one link:
/// structure-of-arrays layout vectorized with `f64 × 8` lanes (see the
/// module docs for the equivalence contract).
///
/// Everything time-invariant *and particular to the link* is baked at
/// construction — the sinusoid bank flattened to 48 contiguous lanes with
/// the phase offsets pre-rotated into `cos φ`/`sin φ` pairs (so synthesis
/// needs `sin/cos(ωt)` only — one branchless vector pass for the whole
/// delay line instead of 96 libm calls). What is time-invariant and the
/// same for every link (the twiddle planes, the per-tap scales) lives
/// once per process in `DelayLine`, so a world of thousands of links
/// keeps those 5.4 KB hot in cache instead of carrying a copy per link.
#[derive(Debug, Clone)]
pub struct FadingProcess {
    /// Angular Doppler frequency per sinusoid lane (tap-major: sinusoid
    /// `k` of tap `l` lives at `l·8 + k`), rad/s.
    omega: [f64; SIN_LANES],
    /// `cos`/`sin` of the in-phase phase offsets, per lane.
    cos_phi_i: [f64; SIN_LANES],
    sin_phi_i: [f64; SIN_LANES],
    /// `cos`/`sin` of the quadrature phase offsets, per lane.
    cos_phi_q: [f64; SIN_LANES],
    sin_phi_q: [f64; SIN_LANES],
    /// Rician LoS component of tap 0: `(amp·k_scale, k_scale, omega,
    /// phase)`.
    los: Option<(f64, f64, f64, f64)>,
    /// Twiddle planes and per-tap scales, shared by every link.
    delay_line: &'static DelayLine,
    /// Maximum Doppler shift, Hz.
    doppler_hz: f64,
    /// [`FadingProcess::peak_gain_db`], baked at construction.
    peak_gain_db: f64,
}

/// The link-independent half of the synthesis tables: everything that is
/// a function of the tap index and the subcarrier index alone.
#[derive(Debug)]
struct DelayLine {
    /// Excess delay per tap, seconds — the reference's `Tap::delay_s`.
    delay_s: [f64; NUM_TAPS],
    /// `√(1/n)` per tap — unit-power scaling of the scattered sum.
    scatter_scale: [f64; NUM_TAPS],
    /// `√power` per tap of the normalized exponential power-delay profile.
    power_sqrt: [f64; NUM_TAPS],
    /// Real/imaginary planes of `e^{−j2π f_k τ_l}`, tap-major so the
    /// subcarrier sweep is unit-stride.
    twiddle_re: [[f64; NUM_SUBCARRIERS]; NUM_TAPS],
    twiddle_im: [[f64; NUM_SUBCARRIERS]; NUM_TAPS],
    /// Gram matrix of the twiddle planes, `G_lm = mean_k w_lk·conj(w_mk)`:
    /// the subcarrier-mean power of `H = Σ_l g_l·w_l` is the quadratic
    /// form `Σ_lm g_l·conj(g_m)·G_lm`, so the wideband gain follows from
    /// the six tap gains without the 56-subcarrier sweep.
    gram_re: [[f64; NUM_TAPS]; NUM_TAPS],
    gram_im: [[f64; NUM_TAPS]; NUM_TAPS],
}

impl DelayLine {
    /// The process-wide table. The first link built bakes it from its
    /// reference realization; every later one is checked against it, so
    /// the kernel reads the bits a private per-link copy would have held.
    fn shared(r: &reference::FadingProcess) -> &'static DelayLine {
        static TABLE: OnceLock<DelayLine> = OnceLock::new();
        assert_eq!(r.taps.len(), NUM_TAPS, "reference tap count fixed");
        let dl = TABLE.get_or_init(|| {
            let mut twiddle_re = [[0.0; NUM_SUBCARRIERS]; NUM_TAPS];
            let mut twiddle_im = [[0.0; NUM_SUBCARRIERS]; NUM_TAPS];
            for l in 0..NUM_TAPS {
                for i in 0..NUM_SUBCARRIERS {
                    let phase =
                        -std::f64::consts::TAU * subcarrier_offset_hz(i) * r.taps[l].delay_s;
                    twiddle_re[l][i] = phase.cos();
                    twiddle_im[l][i] = phase.sin();
                }
            }
            let mut gram_re = [[0.0; NUM_TAPS]; NUM_TAPS];
            let mut gram_im = [[0.0; NUM_TAPS]; NUM_TAPS];
            for l in 0..NUM_TAPS {
                for m in 0..NUM_TAPS {
                    let (mut re, mut im) = (0.0, 0.0);
                    for i in 0..NUM_SUBCARRIERS {
                        let (lr, li) = (twiddle_re[l][i], twiddle_im[l][i]);
                        let (mr, mi) = (twiddle_re[m][i], twiddle_im[m][i]);
                        re += lr * mr + li * mi;
                        im += li * mr - lr * mi;
                    }
                    gram_re[l][m] = re / NUM_SUBCARRIERS as f64;
                    gram_im[l][m] = im / NUM_SUBCARRIERS as f64;
                }
            }
            DelayLine {
                delay_s: std::array::from_fn(|l| r.taps[l].delay_s),
                scatter_scale: std::array::from_fn(|l| {
                    (1.0 / r.taps[l].sinusoids.len() as f64).sqrt()
                }),
                power_sqrt: std::array::from_fn(|l| r.taps[l].power.sqrt()),
                twiddle_re,
                twiddle_im,
                gram_re,
                gram_im,
            }
        });
        for (l, rt) in r.taps.iter().enumerate() {
            assert_eq!(rt.sinusoids.len(), SINUSOIDS_PER_TAP);
            assert_eq!(rt.delay_s.to_bits(), dl.delay_s[l].to_bits());
            assert_eq!(rt.power.sqrt().to_bits(), dl.power_sqrt[l].to_bits());
        }
        dl
    }
}

/// The six complex tap gains `g_l(t)` of one link at one instant: what
/// the sinusoid pass produces and the twiddle MAC consumes. A caller
/// that only needs the wideband gain
/// ([`FadingProcess::wideband_gain_of`]) stops here; one that goes on to
/// the per-subcarrier powers ([`FadingProcess::powers_from_gains`]) pays
/// no second sinusoid pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapGains {
    re: [f64; NUM_TAPS],
    im: [f64; NUM_TAPS],
}

/// First half of a synthesis: the tap gains at `ts`. `inline(always)`
/// (here and on the second half) so each `target_feature` clone absorbs
/// the body and vectorizes it under its own instruction set.
#[inline(always)]
fn tap_gains_impl(fp: &FadingProcess, ts: f64) -> TapGains {
    let dl = fp.delay_line;
    // One vector sin/cos pass over all 48 sinusoid arguments ω·t.
    let mut args = [0.0; SIN_LANES];
    for (a, w) in args.iter_mut().zip(fp.omega.iter()) {
        *a = w * ts;
    }
    let mut sin_wt = [0.0; SIN_LANES];
    let mut cos_wt = [0.0; SIN_LANES];
    wgtt_simd::math::sincos_lanes::<LANES>(&args, &mut sin_wt, &mut cos_wt);

    // Factorized phase rotation: cos(ωt+φᵢ) = cos ωt·cos φᵢ − sin ωt·sin φᵢ
    // and sin(ωt+φ_q) = sin ωt·cos φ_q + cos ωt·sin φ_q.
    let mut re_terms = [0.0; SIN_LANES];
    let mut im_terms = [0.0; SIN_LANES];
    for i in 0..SIN_LANES {
        re_terms[i] = cos_wt[i] * fp.cos_phi_i[i] - sin_wt[i] * fp.sin_phi_i[i];
        im_terms[i] = sin_wt[i] * fp.cos_phi_q[i] + cos_wt[i] * fp.sin_phi_q[i];
    }

    // Per-tap reduction, sequential in lane order (width-independent, so
    // results are bit-identical on every backend), then the same scale/LoS
    // sequence the reference applies.
    let mut g_re = [0.0; NUM_TAPS];
    let mut g_im = [0.0; NUM_TAPS];
    for l in 0..NUM_TAPS {
        let mut sre = 0.0;
        let mut sim = 0.0;
        for k in 0..SINUSOIDS_PER_TAP {
            sre += re_terms[l * SINUSOIDS_PER_TAP + k];
            sim += im_terms[l * SINUSOIDS_PER_TAP + k];
        }
        g_re[l] = sre * dl.scatter_scale[l];
        g_im[l] = sim * dl.scatter_scale[l];
    }
    if let Some((amp_scaled, k_scale, omega, phase)) = fp.los {
        let (s, c) = wgtt_simd::math::sincos_e(omega * ts + phase);
        g_re[0] = g_re[0] * k_scale + amp_scaled * c;
        g_im[0] = g_im[0] * k_scale + amp_scaled * s;
    }
    for l in 0..NUM_TAPS {
        g_re[l] *= dl.power_sqrt[l];
        g_im[l] *= dl.power_sqrt[l];
    }
    TapGains { re: g_re, im: g_im }
}

/// Second half of a synthesis: the subcarrier planes of `g`.
#[inline(always)]
fn twiddle_mac_impl(
    dl: &DelayLine,
    g: &TapGains,
    re: &mut [f64; NUM_SUBCARRIERS],
    im: &mut [f64; NUM_SUBCARRIERS],
) {
    let (g_re, g_im) = (&g.re, &g.im);
    // Twiddle MAC across subcarriers: H_k = Σ_l g_l · w_{l,k}, with the
    // complex product expanded onto the planes. Lane arithmetic only — the
    // per-subcarrier accumulation order matches the reference's.
    for c in 0..SC_CHUNKS {
        let mut acc_re = F64s::<LANES>::ZERO;
        let mut acc_im = F64s::<LANES>::ZERO;
        for l in 0..NUM_TAPS {
            let wre = F64s::<LANES>::from_slice(&dl.twiddle_re[l][c * LANES..]);
            let wim = F64s::<LANES>::from_slice(&dl.twiddle_im[l][c * LANES..]);
            let gre = F64s::<LANES>::splat(g_re[l]);
            let gim = F64s::<LANES>::splat(g_im[l]);
            acc_re = acc_re + (gre * wre - gim * wim);
            acc_im = acc_im + (gre * wim + gim * wre);
        }
        acc_re.write_to_slice(&mut re[c * LANES..]);
        acc_im.write_to_slice(&mut im[c * LANES..]);
    }
}

/// `|H_k|²` of the planes `g` spans — the expression `Complex::norm_sq`
/// evaluates, on the same planes.
#[inline(always)]
fn powers_of_gains_impl(dl: &DelayLine, g: &TapGains, powers: &mut [f64; NUM_SUBCARRIERS]) {
    let mut re = [0.0; NUM_SUBCARRIERS];
    let mut im = [0.0; NUM_SUBCARRIERS];
    twiddle_mac_impl(dl, g, &mut re, &mut im);
    for i in 0..NUM_SUBCARRIERS {
        powers[i] = re[i] * re[i] + im[i] * im[i];
    }
}

multiversion! {
    /// The tap gains at `ts` (the sinusoid pass alone).
    fn synth_tap_gains, synth_tap_gains_with(fp: &FadingProcess, ts: f64) -> TapGains {
        tap_gains_impl(fp, ts)
    }
}

multiversion! {
    /// Per-subcarrier powers from tap gains already in hand (the twiddle
    /// MAC alone).
    fn synth_powers_of_gains, synth_powers_of_gains_with(
        dl: &DelayLine,
        g: &TapGains,
        powers: &mut [f64; NUM_SUBCARRIERS],
    ) {
        powers_of_gains_impl(dl, g, powers);
    }
}

multiversion! {
    /// Per-subcarrier `re`/`im` planes of the frequency response at `ts`.
    fn synth_planes, synth_planes_with(
        fp: &FadingProcess,
        ts: f64,
        re: &mut [f64; NUM_SUBCARRIERS],
        im: &mut [f64; NUM_SUBCARRIERS],
    ) {
        twiddle_mac_impl(fp.delay_line, &tap_gains_impl(fp, ts), re, im);
    }
}

multiversion! {
    /// Per-subcarrier powers `|H_k|²` at `ts`, fused so ESNR/RSSI paths
    /// never materialize the complex planes outside the kernel.
    fn synth_powers, synth_powers_with(
        fp: &FadingProcess,
        ts: f64,
        powers: &mut [f64; NUM_SUBCARRIERS],
    ) {
        powers_of_gains_impl(fp.delay_line, &tap_gains_impl(fp, ts), powers);
    }
}

/// Interleave kernel output planes into a [`Csi`].
#[inline]
fn planes_to_csi(re: &[f64; NUM_SUBCARRIERS], im: &[f64; NUM_SUBCARRIERS]) -> Csi {
    let mut h = [Complex::ZERO; NUM_SUBCARRIERS];
    for i in 0..NUM_SUBCARRIERS {
        h[i] = Complex::new(re[i], im[i]);
    }
    Csi { h }
}

impl FadingProcess {
    /// Build a fading process.
    ///
    /// * `stream` — per-link RNG stream (derive it from the link id so each
    ///   link gets an independent realization).
    /// * `speed_mps` — relative speed of the endpoints, metres/second. Zero
    ///   is allowed: a small residual Doppler (1 Hz) models environmental
    ///   motion so that a parked client still sees a slowly breathing
    ///   channel.
    /// * `rician_k_db` — K-factor of the first tap, dB. Use ≈ 6 dB for the
    ///   open-road mainlobe geometry; `f64::NEG_INFINITY` for pure Rayleigh.
    pub fn new(stream: RngStream, speed_mps: f64, rician_k_db: f64) -> Self {
        // Draw the realization through the seed constructor so the
        // implementations can never diverge on parameters, then bake the
        // time-invariant SoA tables.
        Self::from_reference(&reference::FadingProcess::new(
            stream,
            speed_mps,
            rician_k_db,
        ))
    }

    /// Precompute the SoA tables from a seed-constructed process.
    pub fn from_reference(r: &reference::FadingProcess) -> Self {
        let delay_line = DelayLine::shared(r);
        let mut omega = [0.0; SIN_LANES];
        let mut cos_phi_i = [0.0; SIN_LANES];
        let mut sin_phi_i = [0.0; SIN_LANES];
        let mut cos_phi_q = [0.0; SIN_LANES];
        let mut sin_phi_q = [0.0; SIN_LANES];
        for (l, rt) in r.taps.iter().enumerate() {
            for (k, s) in rt.sinusoids.iter().enumerate() {
                let lane = l * SINUSOIDS_PER_TAP + k;
                omega[lane] = s.omega;
                cos_phi_i[lane] = s.phase_i.cos();
                sin_phi_i[lane] = s.phase_i.sin();
                cos_phi_q[lane] = s.phase_q.cos();
                sin_phi_q[lane] = s.phase_q.sin();
            }
        }
        let los = r.taps[0].los.map(|(amp, om, ph)| {
            let k_scale = (1.0 / (1.0 + amp * amp)).sqrt();
            (amp * k_scale, k_scale, om, ph)
        });
        // No tap can exceed `√P_l` times the largest magnitude its
        // synthesizer reaches: every I and Q sum is at most n·scale, and
        // the Rician tap adds its LoS amplitude to the rescaled scatter.
        let mut peak_amp = 0.0;
        for l in 0..NUM_TAPS {
            let scatter =
                SINUSOIDS_PER_TAP as f64 * delay_line.scatter_scale[l] * std::f64::consts::SQRT_2;
            let tap = match los {
                Some((amp_scaled, k_scale, _, _)) if l == 0 => scatter * k_scale + amp_scaled,
                _ => scatter,
            };
            peak_amp += delay_line.power_sqrt[l] * tap;
        }
        FadingProcess {
            omega,
            cos_phi_i,
            sin_phi_i,
            cos_phi_q,
            sin_phi_q,
            los,
            delay_line,
            doppler_hz: r.doppler_hz,
            peak_gain_db: crate::linear_to_db(peak_amp * peak_amp),
        }
    }

    /// Maximum Doppler shift, Hz.
    pub fn doppler_hz(&self) -> f64 {
        self.doppler_hz
    }

    /// Approximate channel coherence time (Clarke: `9/(16π·f_d)`), seconds.
    pub fn coherence_time_s(&self) -> f64 {
        9.0 / (16.0 * std::f64::consts::PI * self.doppler_hz)
    }

    /// Per-subcarrier frequency response at instant `t`, normalized to
    /// unit mean power: `H_k(t) = Σ_l g_l(t)·e^{−j2π f_k τ_l}`.
    pub fn csi_at(&self, t: SimTime) -> Csi {
        let mut re = [0.0; NUM_SUBCARRIERS];
        let mut im = [0.0; NUM_SUBCARRIERS];
        synth_planes(self, t.as_secs_f64(), &mut re, &mut im);
        planes_to_csi(&re, &im)
    }

    /// [`FadingProcess::csi_at`] on an explicit backend (differential
    /// tests; results are bit-identical across backends).
    pub fn csi_at_with(&self, backend: Backend, t: SimTime) -> Csi {
        let mut re = [0.0; NUM_SUBCARRIERS];
        let mut im = [0.0; NUM_SUBCARRIERS];
        synth_planes_with(backend, self, t.as_secs_f64(), &mut re, &mut im);
        planes_to_csi(&re, &im)
    }

    /// Per-subcarrier powers `|H_k(t)|²` without materializing a [`Csi`]
    /// — the fused input of the ESNR sweep and the RSSI reduction.
    /// Bit-identical to `self.csi_at(t).powers()`.
    pub fn powers_at(&self, t: SimTime) -> [f64; NUM_SUBCARRIERS] {
        let mut powers = [0.0; NUM_SUBCARRIERS];
        synth_powers(self, t.as_secs_f64(), &mut powers);
        powers
    }

    /// [`FadingProcess::powers_at`] on an explicit backend.
    pub fn powers_at_with(&self, backend: Backend, t: SimTime) -> [f64; NUM_SUBCARRIERS] {
        let mut powers = [0.0; NUM_SUBCARRIERS];
        synth_powers_with(backend, self, t.as_secs_f64(), &mut powers);
        powers
    }

    /// The tap gains at `t`: the sinusoid pass of a synthesis (the larger
    /// part of its cost) without the 56-subcarrier sweep.
    pub fn tap_gains_at(&self, t: SimTime) -> TapGains {
        synth_tap_gains(self, t.as_secs_f64())
    }

    /// [`FadingProcess::tap_gains_at`] on an explicit backend.
    pub fn tap_gains_at_with(&self, backend: Backend, t: SimTime) -> TapGains {
        synth_tap_gains_with(backend, self, t.as_secs_f64())
    }

    /// Per-subcarrier powers from `gains = self.tap_gains_at(t)`:
    /// bit-identical to `self.powers_at(t)`, which runs the same two
    /// halves back to back.
    pub fn powers_from_gains(&self, gains: &TapGains) -> [f64; NUM_SUBCARRIERS] {
        let mut powers = [0.0; NUM_SUBCARRIERS];
        synth_powers_of_gains(self.delay_line, gains, &mut powers);
        powers
    }

    /// [`FadingProcess::powers_from_gains`] on an explicit backend.
    pub fn powers_from_gains_with(
        &self,
        backend: Backend,
        gains: &TapGains,
    ) -> [f64; NUM_SUBCARRIERS] {
        let mut powers = [0.0; NUM_SUBCARRIERS];
        synth_powers_of_gains_with(backend, self.delay_line, gains, &mut powers);
        powers
    }

    /// Wideband gain from `gains = self.tap_gains_at(t)` alone, as the
    /// quadratic form `gᴴGg` over the twiddle Gram matrix — what
    /// [`FadingProcess::wideband_gain_at`] reduces from the 56 powers, to
    /// rounding (the two differ in summation order, ~1e-15 relative).
    pub fn wideband_gain_of(&self, gains: &TapGains) -> f64 {
        let dl = self.delay_line;
        let (re, im) = (&gains.re, &gains.im);
        let mut acc = 0.0;
        for l in 0..NUM_TAPS {
            acc += (re[l] * re[l] + im[l] * im[l]) * dl.gram_re[l][l];
            for m in l + 1..NUM_TAPS {
                // g_l·conj(g_m); G is Hermitian, so the (m, l) term is
                // this one's conjugate and the pair sums to twice its
                // real part.
                let dot = re[l] * re[m] + im[l] * im[m];
                let cross = im[l] * re[m] - re[l] * im[m];
                acc += 2.0 * (dot * dl.gram_re[l][m] - cross * dl.gram_im[l][m]);
            }
        }
        acc
    }

    /// The most this link's small-scale channel can ever add to its mean
    /// SNR, dB: `|H_k| ≤ Σ_l |g_l|` on every subcarrier (the twiddles
    /// have unit modulus) and each `|g_l|` is bounded by its
    /// synthesizer's all-sinusoids-aligned magnitude, so `10·log₁₀` of
    /// `(Σ_l √P_l·|g_l|max)²` is a ceiling on the wideband gain at every
    /// instant. Time-independent, baked at construction.
    pub fn peak_gain_db(&self) -> f64 {
        self.peak_gain_db
    }

    /// Wideband (subcarrier-averaged) instantaneous power gain at `t`,
    /// relative to the large-scale mean. This is what an RSSI measurement
    /// fluctuates with.
    ///
    /// Reduces the fused power sweep in subcarrier order — the same
    /// summation [`Csi::mean_power`] performs.
    pub fn wideband_gain_at(&self, t: SimTime) -> f64 {
        let powers = self.powers_at(t);
        let mut total = 0.0;
        for p in powers {
            total += p;
        }
        total / NUM_SUBCARRIERS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_sim::time::SimDuration;

    fn process(speed_mps: f64, k_db: f64, seed: u64) -> FadingProcess {
        FadingProcess::new(RngStream::root(seed).derive("test-link"), speed_mps, k_db)
    }

    #[test]
    fn unit_mean_power() {
        // Time-average of the wideband gain must be ≈ 1 (0 dB) so fading
        // never biases the link budget.
        let p = process(6.7, f64::NEG_INFINITY, 1);
        let mut acc = 0.0;
        let n = 4000;
        for i in 0..n {
            acc += p.wideband_gain_at(SimTime::from_micros(i * 500));
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean power = {mean}");
    }

    #[test]
    fn rician_mean_power_also_unit() {
        let p = process(6.7, 6.0, 2);
        let mut acc = 0.0;
        let n = 4000;
        for i in 0..n {
            acc += p.wideband_gain_at(SimTime::from_micros(i * 500));
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.12, "mean power = {mean}");
    }

    #[test]
    fn doppler_scales_with_speed() {
        let slow = process(2.2, 6.0, 3); // 5 mph
        let fast = process(15.6, 6.0, 3); // 35 mph
        assert!(fast.doppler_hz() > 6.0 * slow.doppler_hz() / 1.01);
        // Coherence time at 15 mph ≈ few ms (paper: 2–3 ms at 2.4 GHz).
        let p15 = process(6.7, 6.0, 3);
        let tc_ms = p15.coherence_time_s() * 1e3;
        assert!((1.0..10.0).contains(&tc_ms), "Tc = {tc_ms} ms");
    }

    #[test]
    fn channel_decorrelates_beyond_coherence_time() {
        let p = process(6.7, f64::NEG_INFINITY, 4);
        // Correlation of wideband gain at lag 0.1·Tc should far exceed the
        // correlation at lag 20·Tc.
        let series = |lag: SimDuration| -> f64 {
            let mut num = 0.0;
            let mut d0 = 0.0;
            let mut d1 = 0.0;
            let n = 600;
            for i in 0..n {
                let t0 = SimTime::from_millis(10 * i);
                let a = p.wideband_gain_at(t0) - 1.0;
                let b = p.wideband_gain_at(t0 + lag) - 1.0;
                num += a * b;
                d0 += a * a;
                d1 += b * b;
            }
            num / (d0.sqrt() * d1.sqrt())
        };
        let near = series(SimDuration::from_secs_f64(p.coherence_time_s() * 0.1));
        let far = series(SimDuration::from_secs_f64(p.coherence_time_s() * 20.0));
        assert!(near > 0.7, "near-lag correlation = {near}");
        assert!(far.abs() < 0.35, "far-lag correlation = {far}");
    }

    #[test]
    fn static_client_channel_still_breathes_slowly() {
        let p = process(0.0, 6.0, 5);
        assert!((p.doppler_hz() - 1.0).abs() < 1e-9);
        // Over 10 ms the channel should be essentially frozen.
        let g0 = p.wideband_gain_at(SimTime::ZERO);
        let g1 = p.wideband_gain_at(SimTime::from_millis(10));
        assert!((g0 - g1).abs() / g0 < 0.05);
    }

    #[test]
    fn frequency_selectivity_present() {
        // With multiple taps the per-subcarrier powers must differ — this
        // is the frequency selectivity that motivates ESNR over plain RSSI.
        let p = process(6.7, f64::NEG_INFINITY, 6);
        let csi = p.csi_at(SimTime::from_millis(3));
        let powers = csi.powers();
        let max = powers.iter().cloned().fold(f64::MIN, f64::max);
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min.max(1e-12) > 2.0,
            "expected ≥3 dB spread across subcarriers, got {max}/{min}"
        );
    }

    #[test]
    fn deterministic_given_stream() {
        let a = process(6.7, 6.0, 7);
        let b = process(6.7, 6.0, 7);
        let t = SimTime::from_micros(12_345);
        assert_eq!(a.wideband_gain_at(t), b.wideband_gain_at(t));
    }

    #[test]
    fn different_links_are_independent() {
        let root = RngStream::root(8);
        let a = FadingProcess::new(root.derive_indexed("link", 0), 6.7, 6.0);
        let b = FadingProcess::new(root.derive_indexed("link", 1), 6.7, 6.0);
        let t = SimTime::from_millis(1);
        assert_ne!(a.wideband_gain_at(t), b.wideband_gain_at(t));
    }

    #[test]
    fn rayleigh_power_is_exponential() {
        // For pure Rayleigh taps the narrowband power |h|² is Exp(1):
        // check the CDF at a few quantiles (P[X ≤ x] = 1 − e^{−x}).
        let p = process(6.7, f64::NEG_INFINITY, 11);
        let n = 6000u64;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                // Sample far apart (≥ 5 Tc) so draws are ~independent; use
                // one subcarrier (narrowband) rather than the wideband mean.
                let t = SimTime::from_millis(i * 40);
                p.csi_at(t).h[0].norm_sq()
            })
            .collect();
        for (x, expected) in [(0.5f64, 0.3935), (1.0, 0.6321), (2.0, 0.8647)] {
            let got = samples.iter().filter(|&&v| v <= x).count() as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.04,
                "P[|h|² ≤ {x}] = {got}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn rician_has_shallower_fades_than_rayleigh() {
        // Count deep (< −10 dB) fades over the same horizon: Rayleigh should
        // see strictly more of them than Rician K=9 dB.
        let ray = process(6.7, f64::NEG_INFINITY, 9);
        let ric = process(6.7, 9.0, 9);
        let deep = |p: &FadingProcess| {
            (0..8000)
                .filter(|&i| p.wideband_gain_at(SimTime::from_micros(i * 250)) < 0.1)
                .count()
        };
        let dr = deep(&ray);
        let dc = deep(&ric);
        assert!(dr > dc, "rayleigh deep fades {dr} vs rician {dc}");
    }

    #[test]
    fn simd_path_tracks_scalar_oracle() {
        // Spot check of the epsilon contract; the exhaustive random suite
        // lives in tests/prop_simd.rs.
        for (seed, k_db) in [(1u64, 9.0), (2, f64::NEG_INFINITY), (3, 6.0)] {
            let stream = RngStream::root(seed).derive("test-link");
            let simd = FadingProcess::new(stream, 6.7, k_db);
            let oracle = reference::FadingProcess::new(stream, 6.7, k_db);
            for us in [0u64, 137, 5_000, 1_234_567] {
                let t = SimTime::from_micros(us);
                let (a, b) = (simd.csi_at(t), oracle.csi_at(t));
                for k in 0..NUM_SUBCARRIERS {
                    assert!((a.h[k].re - b.h[k].re).abs() < 1e-11);
                    assert!((a.h[k].im - b.h[k].im).abs() < 1e-11);
                }
                let (wa, wb) = (simd.wideband_gain_at(t), oracle.wideband_gain_at(t));
                assert!((wa - wb).abs() < 1e-11, "wideband {wa} vs {wb}");
            }
        }
    }

    #[test]
    fn simd_path_bit_identical_across_backends() {
        let p = process(6.7, 6.0, 12);
        for us in [0u64, 991, 77_777] {
            let t = SimTime::from_micros(us);
            let base = p.csi_at_with(Backend::Scalar, t);
            let pw_base = p.powers_at_with(Backend::Scalar, t);
            for b in [Backend::Avx2, Backend::Avx512] {
                let c = p.csi_at_with(b, t);
                for k in 0..NUM_SUBCARRIERS {
                    assert_eq!(base.h[k].re.to_bits(), c.h[k].re.to_bits());
                    assert_eq!(base.h[k].im.to_bits(), c.h[k].im.to_bits());
                }
                let pw = p.powers_at_with(b, t);
                for k in 0..NUM_SUBCARRIERS {
                    assert_eq!(pw_base[k].to_bits(), pw[k].to_bits());
                }
            }
        }
    }

    #[test]
    fn powers_at_matches_csi_powers() {
        let p = process(6.7, 6.0, 13);
        for us in [3u64, 1_000, 250_000] {
            let t = SimTime::from_micros(us);
            let direct = p.powers_at(t);
            let via_csi = p.csi_at(t).powers();
            for k in 0..NUM_SUBCARRIERS {
                assert_eq!(direct[k].to_bits(), via_csi[k].to_bits());
            }
        }
    }
}
