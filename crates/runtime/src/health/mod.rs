//! Numerical health guardrails: stage-boundary probes, structured
//! health events, and (feature-gated) deterministic fault injection.
//!
//! The FSI pipeline caps the cluster size `c` *statically* because chain
//! conditioning grows like `κ(B)^c` (paper §II-C), but a long Monte Carlo
//! run also needs *runtime* defenses: a singular pivot, a NaN escaping an
//! exponential, or a corrupted cache entry must surface as a structured
//! [`HealthEvent`] a driver can react to — never as a panic that aborts a
//! multi-hour sweep, and never as silent corruption of measurements.
//!
//! The module is deliberately placed at the bottom of the workspace
//! dependency graph: it knows nothing about matrices, only about `f64`
//! buffers and stage labels, so every crate (dense, selinv, dqmc, bench)
//! can raise and interpret the same events.
//!
//! Probe sites (each `O(N²)` or cheaper — negligible next to the `O(N³)`
//! kernels they guard):
//!
//! | stage     | probe                                                      |
//! |-----------|------------------------------------------------------------|
//! | `cls`     | non-finite / magnitude scan of recomputed cluster products |
//! | `cache`   | checksum verification of *reused* cluster products         |
//! | `bsofi`   | `R`-diagonal pivot magnitude + ratio, output block scan    |
//! | `wrap`    | non-finite / magnitude scan of each wrapped `Ĝ`            |
//! | `green`   | final scan of the assembled equal-time Green's function    |
//!
//! Probes are gated by a global [`set_probes_enabled`] switch (on by
//! default) so harnesses can measure their clean-path overhead.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "fault-inject")]
pub mod inject;

/// Pipeline stage a health event or error is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Clustering / block cyclic reduction (Alg. 1 step 2).
    Cls,
    /// Reuse of cached cluster products (incremental CLS).
    Cache,
    /// Structured orthogonal inversion of the reduced matrix.
    Bsofi,
    /// Wrapping recurrences / similarity wraps.
    Wrap,
    /// Equal-time Green's-function assembly.
    Green,
    /// The Metropolis sweep driver itself.
    Sweep,
}

impl Stage {
    /// Stable lowercase label, matching the trace-span vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Cls => "cls",
            Stage::Cache => "cache",
            Stage::Bsofi => "bsofi",
            Stage::Wrap => "wrap",
            Stage::Green => "green",
            Stage::Sweep => "sweep",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured numerical-health event raised by a stage-boundary probe.
///
/// Events carry enough context (stage + block / column / magnitude) for a
/// recovery policy to decide how hard to escalate, and each is mirrored
/// as a `health.*` trace span so the observability layer shows what
/// tripped without a side channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthEvent {
    /// A NaN or ±Inf appeared in the given block of the given stage.
    NonFinite {
        /// Stage whose output scan tripped.
        stage: Stage,
        /// Block (or slice) index within the stage.
        block: usize,
    },
    /// An exactly zero pivot: the factored matrix is singular to working
    /// precision.
    SingularPivot {
        /// Stage whose factorization tripped.
        stage: Stage,
        /// Global column index of the zero pivot.
        column: usize,
    },
    /// Conditioning beyond the usable range — either a pivot-magnitude
    /// ratio past [`KAPPA_MAX`] or entries past [`MAGNITUDE_MAX`]
    /// (an overflow-bound proxy for `κ(B)^c` blowup, paper §II-C).
    IllConditioned {
        /// Stage whose probe tripped.
        stage: Stage,
        /// The offending condition proxy (pivot ratio or max magnitude).
        kappa: f64,
    },
    /// A cached entry no longer matches the checksum recorded when it was
    /// stored: the cache was corrupted between refreshes.
    CacheInconsistent {
        /// Stage that attempted the reuse.
        stage: Stage,
        /// Index of the corrupted cached entry.
        block: usize,
    },
}

impl HealthEvent {
    /// The stage this event is attributed to.
    pub fn stage(&self) -> Stage {
        match self {
            HealthEvent::NonFinite { stage, .. }
            | HealthEvent::SingularPivot { stage, .. }
            | HealthEvent::IllConditioned { stage, .. }
            | HealthEvent::CacheInconsistent { stage, .. } => *stage,
        }
    }

    /// Stable `health.*` label for this event kind, matching the
    /// trace-span and metrics vocabulary.
    pub fn label(&self) -> &'static str {
        match self {
            HealthEvent::NonFinite { .. } => "health.non_finite",
            HealthEvent::SingularPivot { .. } => "health.singular_pivot",
            HealthEvent::IllConditioned { .. } => "health.ill_conditioned",
            HealthEvent::CacheInconsistent { .. } => "health.cache_inconsistent",
        }
    }

    /// Mirrors the event into every observability surface: a
    /// zero-duration `health.*` trace span (NDJSON exporter and
    /// [`crate::RunReport`] counters), a `health.*` metrics counter, and
    /// a flight-recorder entry — which triggers an incident dump, so
    /// every health event ships its own post-mortem context.
    pub fn record(&self) {
        let name = self.label();
        crate::metrics::counter(name).inc();
        crate::metrics::flight::note_health(name, self.stage().name());
        crate::trace::span(name).finish();
    }
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthEvent::NonFinite { stage, block } => {
                write!(f, "non-finite value in {stage} block {block}")
            }
            HealthEvent::SingularPivot { stage, column } => {
                write!(f, "singular pivot in {stage} at column {column}")
            }
            HealthEvent::IllConditioned { stage, kappa } => {
                write!(f, "ill-conditioned {stage} stage (κ ≈ {kappa:.3e})")
            }
            HealthEvent::CacheInconsistent { stage, block } => {
                write!(f, "cache entry {block} inconsistent at {stage} reuse")
            }
        }
    }
}

/// Error type of the fallible FSI / DQMC public APIs.
///
/// Extends the dense layer's data-dependent failures with the
/// health-probe events; dimension mismatches stay XERBLA-style panics
/// (programming errors, not data).
#[derive(Debug, Clone, PartialEq)]
pub enum FsiError {
    /// A stage-boundary probe raised a health event.
    Health(HealthEvent),
    /// An iterative routine hit its iteration cap without converging.
    NoConvergence {
        /// Stage the routine ran in.
        stage: Stage,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// An input block the stage starts from was not supplied — e.g. a
    /// wrap seed missing from a selected reduced inverse.
    MissingBlock {
        /// Stage that needed the block.
        stage: Stage,
        /// Block row index.
        row: usize,
        /// Block column index.
        col: usize,
    },
}

impl FsiError {
    /// The stage the failure is attributed to.
    pub fn stage(&self) -> Stage {
        match self {
            FsiError::Health(e) => e.stage(),
            FsiError::NoConvergence { stage, .. } | FsiError::MissingBlock { stage, .. } => *stage,
        }
    }

    /// The underlying health event, if this error wraps one.
    pub fn health_event(&self) -> Option<&HealthEvent> {
        match self {
            FsiError::Health(e) => Some(e),
            FsiError::NoConvergence { .. } | FsiError::MissingBlock { .. } => None,
        }
    }
}

impl From<HealthEvent> for FsiError {
    fn from(e: HealthEvent) -> Self {
        FsiError::Health(e)
    }
}

impl fmt::Display for FsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsiError::Health(e) => e.fmt(f),
            FsiError::NoConvergence { stage, iterations } => {
                write!(f, "{stage}: no convergence after {iterations} iterations")
            }
            FsiError::MissingBlock { stage, row, col } => {
                write!(f, "{stage}: input block ({row},{col}) missing")
            }
        }
    }
}

impl std::error::Error for FsiError {}

/// Result alias for the fallible FSI / DQMC APIs.
pub type FsiResult<T> = std::result::Result<T, FsiError>;

/// Pivot-magnitude ratio above which a factorization is declared
/// unusable: `max|R_ii| / min|R_ii| > KAPPA_MAX` leaves no significant
/// bits in double precision.
pub const KAPPA_MAX: f64 = 1e14;

/// Entry magnitude above which a block is declared overflow-bound.
/// Healthy Green's-function and propagator blocks live many orders of
/// magnitude below this; crossing it means the chain conditioning has
/// blown up even if no Inf has been produced yet.
pub const MAGNITUDE_MAX: f64 = 1e100;

static PROBES: AtomicBool = AtomicBool::new(true);

/// Whether the stage-boundary probes are active (default: yes).
pub fn probes_enabled() -> bool {
    PROBES.load(Ordering::Relaxed)
}

/// Globally enables/disables the stage-boundary probes. Intended for
/// harnesses measuring clean-path probe overhead; leave on in production.
pub fn set_probes_enabled(on: bool) {
    PROBES.store(on, Ordering::Relaxed);
}

/// Scans a stage-output buffer: raises [`HealthEvent::NonFinite`] on the
/// first NaN/Inf and [`HealthEvent::IllConditioned`] when the magnitude
/// exceeds [`MAGNITUDE_MAX`]. No-op while probes are disabled.
pub fn check_block(stage: Stage, block: usize, data: &[f64]) -> Result<(), HealthEvent> {
    if !probes_enabled() {
        return Ok(());
    }
    // Branchless unrolled scan that lowers to packed mul/add/max: the
    // poison lanes accumulate `x * 0.0` (±0.0 for finite `x`, NaN for
    // NaN/Inf, and NaN survives the sum); the magnitude lanes use select
    // semantics instead of `f64::max` so they compile to a plain `maxpd`
    // — their NaN behaviour is irrelevant because the poison sum flags
    // every non-finite entry first.
    const W: usize = 8;
    let mut poison = [0.0f64; W];
    let mut mx = [0.0f64; W];
    let mut chunks = data.chunks_exact(W);
    for ch in &mut chunks {
        for i in 0..W {
            poison[i] += ch[i] * 0.0;
            let a = ch[i].abs();
            mx[i] = if a > mx[i] { a } else { mx[i] };
        }
    }
    let mut p = 0.0f64;
    let mut max_abs = 0.0f64;
    for i in 0..W {
        p += poison[i];
        max_abs = max_abs.max(mx[i]);
    }
    for &x in chunks.remainder() {
        p += x * 0.0;
        max_abs = max_abs.max(x.abs());
    }
    if p != 0.0 {
        let event = HealthEvent::NonFinite { stage, block };
        event.record();
        return Err(event);
    }
    if max_abs > MAGNITUDE_MAX {
        let event = HealthEvent::IllConditioned {
            stage,
            kappa: max_abs,
        };
        event.record();
        return Err(event);
    }
    Ok(())
}

/// Checks the diagonal of a triangular factor: an exactly zero entry is a
/// [`HealthEvent::SingularPivot`], and a `max/min` magnitude ratio past
/// [`KAPPA_MAX`] is [`HealthEvent::IllConditioned`] (the pivot ratio is a
/// free lower bound on the factor's condition number). `offset` shifts
/// the reported column index so block-local diagonals report global
/// positions. No-op while probes are disabled.
pub fn check_pivots(stage: Stage, offset: usize, diag: &[f64]) -> Result<(), HealthEvent> {
    if !probes_enabled() || diag.is_empty() {
        return Ok(());
    }
    let mut min_abs = f64::INFINITY;
    let mut max_abs = 0.0f64;
    let mut argmin = 0usize;
    for (i, &d) in diag.iter().enumerate() {
        let a = d.abs();
        if !d.is_finite() {
            let event = HealthEvent::NonFinite {
                stage,
                block: offset + i,
            };
            event.record();
            return Err(event);
        }
        if a < min_abs {
            min_abs = a;
            argmin = i;
        }
        max_abs = max_abs.max(a);
    }
    if min_abs == 0.0 {
        let event = HealthEvent::SingularPivot {
            stage,
            column: offset + argmin,
        };
        event.record();
        return Err(event);
    }
    let ratio = max_abs / min_abs;
    if ratio > KAPPA_MAX {
        let event = HealthEvent::IllConditioned {
            stage,
            kappa: ratio,
        };
        event.record();
        return Err(event);
    }
    Ok(())
}

/// FNV-1a checksum over the raw bit patterns of a buffer. Any corruption
/// of a cached entry — including quiet finite bit-flips no magnitude scan
/// can see — changes the checksum. Always computed (not probe-gated): it
/// is the *verification* that is gated, at the call sites.
pub fn checksum(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in data {
        let bits = x.to_bits();
        for shift in [0u32, 16, 32, 48] {
            h ^= (bits >> shift) & 0xffff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read or toggle the global probe switch.
    fn probe_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn clean_buffer_passes_all_probes() {
        let data = [1.0, -2.5, 1e10, 0.0];
        assert!(check_block(Stage::Cls, 0, &data).is_ok());
        assert!(check_pivots(Stage::Bsofi, 0, &[1.0, -3.0, 0.5]).is_ok());
    }

    #[test]
    fn nan_and_inf_raise_non_finite() {
        let _g = probe_guard();
        let got = check_block(Stage::Green, 3, &[1.0, f64::NAN]).unwrap_err();
        assert_eq!(
            got,
            HealthEvent::NonFinite {
                stage: Stage::Green,
                block: 3
            }
        );
        assert!(check_block(Stage::Wrap, 0, &[f64::INFINITY]).is_err());
    }

    #[test]
    fn huge_magnitude_raises_ill_conditioned() {
        let _g = probe_guard();
        let err = check_block(Stage::Cls, 1, &[1.0, 1e200]).unwrap_err();
        match err {
            HealthEvent::IllConditioned { stage, kappa } => {
                assert_eq!(stage, Stage::Cls);
                assert!(kappa >= 1e200);
            }
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn pivot_probe_flags_zero_and_graded_diagonals() {
        let _g = probe_guard();
        let err = check_pivots(Stage::Bsofi, 4, &[1.0, 0.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            HealthEvent::SingularPivot {
                stage: Stage::Bsofi,
                column: 5
            }
        );
        let err = check_pivots(Stage::Bsofi, 0, &[1.0, 1e-20]).unwrap_err();
        assert!(matches!(err, HealthEvent::IllConditioned { .. }));
    }

    #[test]
    fn disabling_probes_short_circuits() {
        let _g = probe_guard();
        set_probes_enabled(false);
        assert!(check_block(Stage::Cls, 0, &[f64::NAN]).is_ok());
        assert!(check_pivots(Stage::Bsofi, 0, &[0.0]).is_ok());
        set_probes_enabled(true);
        assert!(check_block(Stage::Cls, 0, &[f64::NAN]).is_err());
    }

    #[test]
    fn checksum_sees_any_bit_flip() {
        let a = vec![1.0, 2.0, 3.0, -4.0];
        let mut b = a.clone();
        let base = checksum(&a);
        assert_eq!(base, checksum(&b), "deterministic");
        b[2] = f64::from_bits(b[2].to_bits() ^ 0x1);
        assert_ne!(base, checksum(&b), "single low-mantissa flip detected");
    }

    #[test]
    fn error_formatting_and_accessors() {
        let e: FsiError = HealthEvent::IllConditioned {
            stage: Stage::Cls,
            kappa: 1e15,
        }
        .into();
        assert_eq!(e.stage(), Stage::Cls);
        assert!(e.to_string().contains("ill-conditioned"));
        assert!(e.health_event().is_some());
        let e = FsiError::NoConvergence {
            stage: Stage::Green,
            iterations: 8,
        };
        assert_eq!(e.stage(), Stage::Green);
        assert!(e.to_string().contains("8 iterations"));
        assert!(e.health_event().is_none());
        let e = FsiError::MissingBlock {
            stage: Stage::Wrap,
            row: 1,
            col: 2,
        };
        assert_eq!(e.stage(), Stage::Wrap);
        assert!(e.to_string().contains("(1,2) missing"));
        assert!(e.health_event().is_none());
    }
}
