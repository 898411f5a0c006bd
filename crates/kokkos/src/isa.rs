//! One kernel source, instantiated per instruction set.
//!
//! The release profile sets no `target-cpu`, so every kernel is baseline
//! (SSE2 on x86-64) code. A kernel whose loop pays for wider lanes is
//! written once as an `#[inline(always)]` function and run through
//! [`Isa::call`], which inlines that one source into a second copy
//! compiled under `#[target_feature(enable = "avx2")]` and picks between
//! the copies from what the CPU reports ([`active`], read once per
//! launch). Nothing selects between them but the hardware: no option,
//! environment variable or cargo feature.
//!
//! **Bits do not depend on the choice.** Only `avx2` is enabled:
//! 256-bit `add`/`sub`/`mul`/compare over independent lanes round
//! exactly as their scalar and 128-bit forms do. Enabling `fma` would
//! not move a bit either: rustc never contracts `a * b + c` into a fused
//! multiply-add, and `f64::mul_add` is correctly rounded on every
//! machine, with or without the instruction. Every kernel routed through
//! here carries a test that its instantiations agree bit for bit, run on
//! a host that has FMA.
//!
//! **This file is the only place that selects an instruction set.**
//! Elsewhere a `#[target_feature]` function cannot be called without
//! `unsafe` (E0133), which every other crate forbids; feature detection
//! is a `disallowed-macros` entry in `clippy.toml`, waived once below;
//! and CI greps the sources for `cfg(target_feature = …)`, the one form
//! neither the compiler nor clippy sees.
//!
//! Instantiate at the granularity of one work item (one atom's row),
//! not one inner-loop trip: the call into the AVX2 copy is a real call.

use std::sync::atomic::{AtomicBool, Ordering};

/// An instruction set this CPU can run. Only [`Isa::baseline`] and
/// [`active`] construct one, so holding an `Isa` is proof of support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

static FORCE_BASELINE: AtomicBool = AtomicBool::new(false);

/// Make [`active`] report the baseline whatever the CPU supports: the
/// measurement hook behind the `*_baseline_isa` bench rows (process-wide,
/// like `set_force_sequential`; nothing reads it from the environment).
pub fn set_force_baseline(on: bool) {
    FORCE_BASELINE.store(on, Ordering::Relaxed);
}

/// The widest instantiation this CPU supports.
pub fn active() -> Isa {
    let avx2 = !FORCE_BASELINE.load(Ordering::Relaxed) && cpu_has_avx2();
    Isa { avx2 }
}

/// Does the CPU report AVX2?
#[cfg(target_arch = "x86_64")]
#[expect(
    clippy::disallowed_macros,
    reason = "the ISA seam is where instruction sets are selected"
)]
fn cpu_has_avx2() -> bool {
    std::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx2() -> bool {
    false
}

impl Isa {
    /// What the crate is compiled for; every CPU that runs it has this.
    pub fn baseline() -> Isa {
        Isa { avx2: false }
    }

    pub fn name(self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "baseline"
        }
    }

    /// `kernel(args)`, from the copy of `kernel` compiled for this
    /// instruction set. `kernel` must be an `#[inline(always)]` function
    /// item: that attribute is what carries its body into the
    /// `target_feature` copy (a closure's body is inlined only at the
    /// optimiser's discretion and would silently stay baseline code).
    #[inline(always)]
    pub fn call<A, R>(self, kernel: impl Fn(A) -> R, args: A) -> R {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is set by `active` alone, after the CPU
            // reported AVX2.
            return unsafe { call_avx2(kernel, args) };
        }
        kernel(args)
    }
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn call_avx2<A, R>(kernel: impl Fn(A) -> R, args: A) -> R {
    kernel(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[inline(always)]
    fn hits((xs, cut): (&[f64], f64)) -> u64 {
        let mut mask = 0u64;
        for (k, &x) in xs.iter().enumerate() {
            mask |= u64::from(x * x < cut) << k;
        }
        mask
    }

    #[test]
    fn every_instantiation_computes_the_same_value() {
        let xs: Vec<f64> = (0..64).map(|k| (k as f64 * 0.37).sin() * 3.0).collect();
        let want = hits((&xs, 2.0));
        assert_ne!(want, 0);
        assert_eq!(Isa::baseline().call(hits, (&xs, 2.0)), want);
        assert_eq!(active().call(hits, (&xs, 2.0)), want);
    }

    #[test]
    fn forcing_the_baseline_overrides_detection_and_matches_the_cpu_otherwise() {
        // The one test that touches the process-wide switch.
        set_force_baseline(true);
        assert_eq!(active(), Isa::baseline());
        assert_eq!(active().name(), "baseline");
        set_force_baseline(false);
        assert_eq!(active().name() == "avx2", cpu_has_avx2());
    }
}
