//! The workspace-wide runtime SIMD dispatch gate.
//!
//! Every vectorised kernel in the workspace — the `fmore_ml` matmul family, the
//! `fmore_auction` batch-scoring kernels — follows the same discipline: an
//! `#[inline(always)]` scalar core, an `#[target_feature(enable = "avx")]` wrapper that
//! compiles the *same* core with AVX code generation, and a runtime switch between them.
//! Because the wrapper only widens the auto-vectorised lanes across **independent** outputs
//! (no per-element reassociation), the AVX and scalar paths produce identical bits and
//! results stay reproducible across machines with and without AVX.
//!
//! This module is the single home of that runtime switch. [`avx_enabled`] answers "may a
//! kernel take its AVX path?" from two inputs, cached per process:
//!
//! * the CPU: `is_x86_feature_detected!("avx")` on x86-64, `false` elsewhere;
//! * the `FORCE_SCALAR_ENV` environment variable (`FMORE_FORCE_SCALAR=1`), which forces
//!   the scalar cores even on AVX hardware — how CI's scalar-only job runs the parity and
//!   golden suites through the exact code paths a non-AVX machine would take.

use std::sync::OnceLock;

/// Environment variable forcing every kernel onto its scalar core (`1` to force; `0` or
/// unset leaves the runtime CPU detection in charge).
pub(crate) const FORCE_SCALAR_ENV: &str = "FMORE_FORCE_SCALAR";

/// Whether kernels may take their AVX-compiled path: the CPU supports AVX and
/// `FORCE_SCALAR_ENV` has not forced the scalar cores. Evaluated once per process.
pub fn avx_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| v != *"0") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::is_x86_feature_detected!("avx")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether kernels may take their AVX-512-compiled path: the CPU supports the F/DQ/VL
/// subsets (64-bit lane multiplies and `u64 → f64` conversions, the ops the fused bid
/// derivation vectorises over) and `FORCE_SCALAR_ENV` has not forced the scalar cores.
/// Evaluated once per process. Implies nothing about [`avx_enabled`] — each kernel checks
/// the gate matching its widest instruction set and falls through tier by tier.
pub fn avx512_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| v != *"0") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::is_x86_feature_detected!("avx512f")
                && std::is_x86_feature_detected!("avx512dq")
                && std::is_x86_feature_detected!("avx512vl")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_is_stable_within_a_process() {
        // The OnceLock makes the answer a process constant; dispatching twice must agree
        // (kernels rely on this to stay on one path for a whole run).
        assert_eq!(avx_enabled(), avx_enabled());
        assert_eq!(avx512_enabled(), avx512_enabled());
    }

    #[test]
    fn avx512_gate_never_claims_unsupported_hardware() {
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!avx512_enabled());
        #[cfg(target_arch = "x86_64")]
        if !std::is_x86_feature_detected!("avx512dq") {
            assert!(!avx512_enabled());
        }
    }

    #[test]
    fn gate_never_claims_avx_off_x86() {
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!avx_enabled());
        #[cfg(target_arch = "x86_64")]
        if !std::is_x86_feature_detected!("avx") {
            assert!(!avx_enabled());
        }
    }
}
