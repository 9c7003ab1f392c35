//! Process-wide default kernel selection.
//!
//! A lattice with no explicit [`KernelKind`](apr_kernels::KernelKind)
//! choice resolves through [`default_kernel`], in priority order:
//!
//! 1. the kernel pinned by an installed
//!    [`RuntimeConfig`](apr_kernels::RuntimeConfig) (including an explicit
//!    `auto`, which falls through to step 3),
//! 2. otherwise a lenient `APR_KERNEL` read
//!    ([`apr_kernels::runtime::env_kernel`]; garbage values panic — a
//!    silently ignored typo would invalidate a benchmark run),
//! 3. otherwise, when the probe is enabled
//!    ([`apr_kernels::runtime::probe_enabled`]), a one-shot startup
//!    micro-probe that times both backends on a small periodic box and
//!    memoizes the faster; with the probe disabled the default is
//!    [`KernelKind::FusedSwap`].
//!
//! The probe runs once per process (under a `OnceLock`), costs a few
//! milliseconds, and is deliberately tiny — 12³ nodes — so it measures
//! kernel overhead structure (passes, barriers, table lookups) rather
//! than cache capacity.

use crate::solver::Lattice;
use apr_kernels::{runtime, KernelKind};
use std::sync::OnceLock;
use std::time::Instant;

static PROBED: OnceLock<KernelKind> = OnceLock::new();

/// The process-default kernel: the installed
/// [`RuntimeConfig`](apr_kernels::RuntimeConfig) override if pinned, else
/// `APR_KERNEL`, else the (memoized) micro-probe winner — or
/// [`KernelKind::FusedSwap`] when probing is disabled.
pub fn default_kernel() -> KernelKind {
    if runtime::kernel_pinned() {
        if let Some(kind) = runtime::kernel_override() {
            return kind;
        }
    } else {
        match runtime::env_kernel() {
            Ok(Some(kind)) => return kind,
            Ok(None) => {}
            Err(e) => panic!("{e}"),
        }
    }
    if !runtime::probe_enabled() {
        return KernelKind::FusedSwap;
    }
    *PROBED.get_or_init(probe)
}

/// Time both backends on a small periodic forced box and return the
/// faster. A tie goes to [`KernelKind::FusedSwap`], which carries no
/// second distribution array.
fn probe() -> KernelKind {
    let reference = probe_one(KernelKind::Reference);
    if probe_one(KernelKind::FusedSwap) <= reference {
        KernelKind::FusedSwap
    } else {
        KernelKind::Reference
    }
}

fn probe_one(kind: KernelKind) -> std::time::Duration {
    const N: usize = 12;
    let mut lat = Lattice::new(N, N, N, 0.8);
    lat.periodic = [true; 3];
    lat.body_force = [1e-6, 0.0, 0.0];
    // Explicit choice: the probe must not recurse into default_kernel().
    lat.set_kernel(Some(kind));
    lat.step(); // warmup: builds the backend outside the timed region
                // Best of three rounds: the minimum is the least noise-contaminated
                // estimate of a deterministic kernel's cost.
    (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..4 {
                lat.step();
            }
            start.elapsed()
        })
        .min()
        .expect("non-empty rounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use apr_kernels::RuntimeConfig;
    use std::sync::Mutex;

    /// Serializes the tests that read or install the process defaults.
    static DEFAULTS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn default_kernel_is_stable_across_calls() {
        let _guard = DEFAULTS_LOCK.lock().unwrap();
        let first = default_kernel();
        for _ in 0..3 {
            assert_eq!(default_kernel(), first);
        }
    }

    #[test]
    fn probe_picks_one_of_the_probed_kernels() {
        let k = *PROBED.get_or_init(probe);
        assert!(matches!(k, KernelKind::Reference | KernelKind::FusedSwap));
    }

    #[test]
    fn probe_off_defaults_to_fused_swap() {
        let _guard = DEFAULTS_LOCK.lock().unwrap();
        // The effective defaults right now, reinstalled afterwards.
        let before = RuntimeConfig {
            kernel: runtime::env_kernel().unwrap_or(None),
            threads: apr_exec::current_threads(),
            chunking: runtime::default_chunking(),
            probe: runtime::probe_enabled(),
        };
        RuntimeConfig {
            kernel: None,
            probe: false,
            ..before
        }
        .install();
        assert_eq!(default_kernel(), KernelKind::FusedSwap);
        before.install();
    }
}
