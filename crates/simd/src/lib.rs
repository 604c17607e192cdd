//! Vendored portable-SIMD shim.
//!
//! The build environment has no route to a crates registry, so — like the
//! `proptest` shim — the subset of portable-SIMD this workspace needs is
//! implemented locally:
//!
//! * [`F64s`]: a const-generic `f64 × N` lane pack whose operations are
//!   plain element loops. Compiled under an AVX2/AVX-512 `target_feature`
//!   context they autovectorize to 256/512-bit vector code; on the
//!   aarch64 baseline (NEON is mandatory) the plain build already
//!   vectorizes; everywhere else they are the scalar fallback.
//! * [`multiversion!`]: wraps a kernel in runtime-dispatched
//!   `core::arch` feature clones (the macro emits one clone per
//!   [`Backend`] plus an explicit-backend entry point for differential
//!   tests).
//! * [`math`]: faithful branchless vector `sin`/`cos`/`exp` — the only
//!   libm calls on the PHY hot path that a lane kernel cannot express as
//!   exact IEEE arithmetic.
//!
//! ## Bit-determinism contract
//!
//! Every operation here is **element-wise IEEE-754 double arithmetic in a
//! fixed order**: no FMA contraction (Rust never licenses it), no
//! cross-lane shuffles, no reductions. A kernel built from these pieces
//! therefore produces *identical bits* on every backend and at every lane
//! width — `Scalar` vs `Avx2` vs `Avx512`, `F64s<2>` vs `F64s<8>` — which
//! is what lets `crates/radio/tests/prop_simd.rs` pin backend and lane
//! choices down to `to_bits` equality while only the (faithful, <1 ulp
//! different from libm) transcendentals carry an epsilon vs the scalar
//! oracle.
//!
//! Backend selection: highest supported of AVX-512F → AVX2 → scalar,
//! overridable with `WGTT_SIMD_BACKEND=scalar|avx2|avx512` (requests above
//! hardware support clamp down; CI uses this to pin the scalar fallback).

use std::sync::atomic::{AtomicU8, Ordering};

pub mod math;

/// Instruction-set backend a [`multiversion!`] kernel dispatches to.
///
/// Ordered by preference: `Scalar < Avx2 < Avx512`. On non-x86_64 targets
/// only `Scalar` is ever active (on aarch64 that *is* the NEON path — the
/// baseline compiler already vectorizes the plain lane loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Backend {
    /// Plain build of the lane loops (also the NEON path on aarch64).
    Scalar = 0,
    /// 256-bit AVX2 `target_feature` clone.
    Avx2 = 1,
    /// 512-bit AVX-512F `target_feature` clone.
    Avx512 = 2,
}

/// `u8::MAX` = not yet resolved; else a `Backend` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(u8::MAX);

impl Backend {
    fn from_u8(v: u8) -> Backend {
        match v {
            1 => Backend::Avx2,
            2 => Backend::Avx512,
            _ => Backend::Scalar,
        }
    }

    /// Best backend the running CPU supports.
    pub fn detect_hw() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Backend::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Backend::Avx2;
            }
        }
        Backend::Scalar
    }

    /// Hardware detection combined with the `WGTT_SIMD_BACKEND`
    /// environment override (unknown values are ignored; requests above
    /// hardware support clamp down to what the CPU can run).
    pub fn detect() -> Backend {
        let hw = Self::detect_hw();
        let requested = match std::env::var("WGTT_SIMD_BACKEND").as_deref() {
            Ok("scalar") => Some(Backend::Scalar),
            Ok("avx2") => Some(Backend::Avx2),
            Ok("avx512") => Some(Backend::Avx512),
            _ => None,
        };
        requested.map_or(hw, |r| r.min(hw))
    }

    /// The backend [`multiversion!`] kernels dispatch to, resolved once
    /// per process (one relaxed atomic load afterwards).
    #[inline]
    pub fn active() -> Backend {
        let v = ACTIVE.load(Ordering::Relaxed);
        if v != u8::MAX {
            return Backend::from_u8(v);
        }
        let b = Self::detect();
        ACTIVE.store(b as u8, Ordering::Relaxed);
        b
    }

    /// Force the process-wide active backend (clamped to hardware
    /// support). Test hook — kernels are bit-identical across backends,
    /// so flipping this mid-run can reorder nothing observable, but
    /// production code should rely on `WGTT_SIMD_BACKEND` instead.
    pub fn force(b: Backend) {
        ACTIVE.store(b.min(Self::detect_hw()) as u8, Ordering::Relaxed);
    }

    /// Human-readable name (bench/CI labels).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }
}

/// A pack of `N` lanes of `f64` with element-wise arithmetic.
///
/// All operations are plain per-lane loops in source order; under a
/// `target_feature` context (see [`multiversion!`]) LLVM turns them into
/// vector instructions. `N` is a correctness-neutral tuning knob: results
/// are bit-identical for every lane width because no operation crosses
/// lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct F64s<const N: usize>(pub [f64; N]);

impl<const N: usize> F64s<N> {
    /// All lanes zero.
    pub const ZERO: Self = F64s([0.0; N]);

    /// All lanes `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64s([v; N])
    }

    /// Load `N` lanes from the front of `s`.
    #[inline(always)]
    pub fn from_slice(s: &[f64]) -> Self {
        let mut out = [0.0; N];
        out.copy_from_slice(&s[..N]);
        F64s(out)
    }

    /// Store the lanes to the front of `out`.
    #[inline(always)]
    pub fn write_to_slice(self, out: &mut [f64]) {
        out[..N].copy_from_slice(&self.0);
    }

    /// Lane-wise square root (correctly rounded — `vsqrtpd` is exact).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = v.sqrt();
        }
        F64s(out)
    }

    /// Lane-wise maximum with `other` (NaN handling per `f64::max`).
    #[inline(always)]
    pub fn max(self, other: Self) -> Self {
        let mut out = self.0;
        for (v, o) in out.iter_mut().zip(other.0.iter()) {
            *v = v.max(*o);
        }
        F64s(out)
    }

    /// Lane-wise minimum with `other`.
    #[inline(always)]
    pub fn min(self, other: Self) -> Self {
        let mut out = self.0;
        for (v, o) in out.iter_mut().zip(other.0.iter()) {
            *v = v.min(*o);
        }
        F64s(out)
    }

    /// Lane-wise faithful `(sin, cos)` (see [`math::sincos_e`]).
    #[inline(always)]
    pub fn sincos(self) -> (Self, Self) {
        let mut sn = [0.0; N];
        let mut cs = [0.0; N];
        for i in 0..N {
            let (s, c) = math::sincos_e(self.0[i]);
            sn[i] = s;
            cs[i] = c;
        }
        (F64s(sn), F64s(cs))
    }

    /// Lane-wise faithful `exp` (see [`math::exp_e`]).
    #[inline(always)]
    pub fn exp(self) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = math::exp_e(*v);
        }
        F64s(out)
    }
}

macro_rules! lanewise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const N: usize> std::ops::$trait for F64s<N> {
            type Output = F64s<N>;
            #[inline(always)]
            #[allow(clippy::assign_op_pattern)] // `a = a ⊕ b` keeps the lane loop shape uniform
            fn $method(self, rhs: F64s<N>) -> F64s<N> {
                let mut out = self.0;
                for (v, r) in out.iter_mut().zip(rhs.0.iter()) {
                    *v = *v $op *r;
                }
                F64s(out)
            }
        }
    };
}

lanewise_binop!(Add, add, +);
lanewise_binop!(Sub, sub, -);
lanewise_binop!(Mul, mul, *);
lanewise_binop!(Div, div, /);

impl<const N: usize> std::ops::Neg for F64s<N> {
    type Output = F64s<N>;
    #[inline(always)]
    fn neg(self) -> F64s<N> {
        let mut out = self.0;
        for v in &mut out {
            *v = -*v;
        }
        F64s(out)
    }
}

/// Wrap a kernel in runtime-dispatched `target_feature` clones.
///
/// ```ignore
/// wgtt_simd::multiversion! {
///     /// Docs for the kernel.
///     pub fn my_kernel, my_kernel_with(xs: &[f64], out: &mut [f64]) {
///         // plain lane loops / F64s code — autovectorized per backend
///     }
/// }
/// ```
///
/// emits `my_kernel(..)` (dispatching on [`Backend::active`]) and
/// `my_kernel_with(backend, ..)` (explicit backend — what differential
/// tests use to prove bit-identity across backends without touching
/// process-global state). The body is compiled once per backend: a plain
/// build and, on x86_64, AVX2 and AVX-512F `target_feature` clones. A
/// backend the CPU cannot run is never dispatched to ([`Backend::active`]
/// detects; `_with` clamps via [`Backend::force`]-style min against
/// [`Backend::detect_hw`]).
#[macro_export]
macro_rules! multiversion {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident, $name_with:ident ( $($arg:ident : $ty:ty),* $(,)? ) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        #[inline]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            $name_with($crate::Backend::active(), $($arg),*)
        }

        /// Explicit-backend entry point of the kernel above (requests
        /// above hardware support clamp down to what the CPU can run).
        $vis fn $name_with(backend: $crate::Backend, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn plain_impl($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2_impl($($arg: $ty),*) $(-> $ret)? {
                    plain_impl($($arg),*)
                }
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512_impl($($arg: $ty),*) $(-> $ret)? {
                    plain_impl($($arg),*)
                }
                match backend.min($crate::Backend::detect_hw()) {
                    // SAFETY: clamped to `detect_hw`, so the running CPU
                    // supports the clone's target features.
                    $crate::Backend::Avx512 => return unsafe { avx512_impl($($arg),*) },
                    $crate::Backend::Avx2 => return unsafe { avx2_impl($($arg),*) },
                    $crate::Backend::Scalar => {}
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = backend;
            plain_impl($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_ordering_and_detection() {
        assert!(Backend::Scalar < Backend::Avx2 && Backend::Avx2 < Backend::Avx512);
        // detect() never exceeds hardware support.
        assert!(Backend::detect() <= Backend::detect_hw());
        assert!(Backend::active() <= Backend::detect_hw());
        assert_eq!(Backend::Scalar.name(), "scalar");
    }

    #[test]
    fn lane_ops_are_elementwise() {
        let a = F64s::<4>([1.0, 2.0, 3.0, 4.0]);
        let b = F64s::<4>::splat(2.0);
        assert_eq!((a + b).0, [3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a - b).0, [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!((a * b).0, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a / b).0, [0.5, 1.0, 1.5, 2.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(a.max(b).0, [2.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.min(b).0, [1.0, 2.0, 2.0, 2.0]);
        assert_eq!(
            F64s::<4>([4.0, 9.0, 16.0, 25.0]).sqrt().0,
            [2.0, 3.0, 4.0, 5.0]
        );
    }
}
