//! Independent reference checks, run outside every timed region.
//!
//! The dense-LU reference costs minutes at the paper shape, so each
//! workload is checked against something cheaper that does not share the
//! code path under test:
//!
//! * Green's-function blocks: diagonal blocks against the explicit-product
//!   inverse `(I + B_k…B_{k+1})⁻¹` ([`fsi_dqmc::equal_time_green_naive`]);
//!   blocks below the diagonal against the interior adjacency relation
//!   `G(k, ℓ) = B_k·G(k−1, ℓ)` (`k > ℓ`, 0-based blocks) walked from that
//!   diagonal reference.
//! * DQMC: at half filling on a bipartite lattice, particle–hole symmetry
//!   pins every measured density to exactly 1 and every sign to +1.
//! * Service jobs: the service promises bins bit-identical to a direct
//!   [`MatrixTask::run`] replay; the replay's diagonal blocks are also held
//!   to the explicit-product reference.

use std::sync::{Arc, Mutex};

use fsi_dense::{rel_error, Matrix};
use fsi_dqmc::meas::Accumulator;
use fsi_pcyclic::{
    hubbard_pcyclic, BlockBuilder, BlockPCyclic, HubbardParams, Spin, SquareLattice,
};
use fsi_runtime::Par;
use fsi_selinv::{generate_fields, trace_measure, MatrixTask, Parallelism, SelectedInverse};
use fsi_service::JobSpec;

/// Relative (Frobenius) error above which a Green's-function block fails;
/// the paper's validation threshold.
pub const BLOCK_TOL: f64 = 1e-10;

/// Largest `|n − 1|` or `|sign − 1|` accepted as round-off.
pub const SYMMETRY_TOL: f64 = 1e-11;

/// Outcome of checking one or more ops.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Check {
    /// Worst deviation seen (relative block error or absolute density
    /// deviation, per workload).
    pub max_err: f64,
    /// Every deviation checked, one per block or measurement.
    pub errors: Vec<f64>,
    /// Human-readable reasons; empty when everything passed.
    pub failures: Vec<String>,
}

impl Check {
    /// Whether everything checked passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds another check's deviations and failures into this one.
    pub fn absorb(&mut self, other: Check) {
        self.max_err = self.max_err.max(other.max_err);
        self.errors.extend(other.errors);
        self.failures.extend(other.failures);
    }

    fn observe(&mut self, what: impl FnOnce() -> String, err: f64, tol: f64) {
        // NaN compares false everywhere; treat it as the worst error.
        let err = if err.is_nan() { f64::INFINITY } else { err };
        self.max_err = self.max_err.max(err);
        self.errors.push(err);
        if err > tol {
            self.failures
                .push(format!("{}: error {err:.3e} > {tol:.0e}", what()));
        }
    }
}

/// `G(k, ℓ)` for `k ≥ ℓ` from the diagonal reference `G(ℓ, ℓ)` by the
/// interior adjacency relation.
pub fn below_diagonal_reference(pc: &BlockPCyclic, g_ll: &Matrix, k: usize, l: usize) -> Matrix {
    assert!(k >= l && k < pc.l(), "interior walk needs ℓ ≤ k < L");
    let mut g = g_ll.clone();
    for step in l + 1..=k {
        g = fsi_dense::mul(pc.block(step), &g);
    }
    g
}

/// A block of a computed Green's function, kept for checking: `(k, ℓ)`
/// and its value.
pub type Sample = ((usize, usize), Matrix);

/// Copies the blocks at `coords` out of a selected inverse; a missing
/// block is recorded as a failure of `check`.
pub fn sample_blocks(
    got: &SelectedInverse,
    coords: &[(usize, usize)],
    check: &mut Check,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(coords.len());
    for &(k, l) in coords {
        match got.get(k, l) {
            Some(b) => out.push(((k, l), b.clone())),
            None => check.failures.push(format!("block ({k},{l}) missing")),
        }
    }
    out
}

/// Checks sampled blocks of a Green's function of `pc`: diagonal blocks
/// against the explicit-product inverse, blocks with `k > ℓ` against the
/// adjacency walk from `G(ℓ, ℓ)`. A block above the diagonal is a caller
/// error.
pub fn check_blocks(pc: &BlockPCyclic, samples: &[Sample], check: &mut Check) {
    for ((k, l), block) in samples {
        let (k, l) = (*k, *l);
        assert!(
            k >= l,
            "only blocks on or below the diagonal have a reference"
        );
        let g_ll = fsi_dqmc::equal_time_green_naive(Par::Seq, pc, l);
        let want = below_diagonal_reference(pc, &g_ll, k, l);
        check.observe(
            || format!("block ({k},{l})"),
            rel_error(block, &want),
            BLOCK_TOL,
        );
    }
}

/// Particle–hole check of one DQMC run: every density measurement equals 1
/// and every sign equals +1 up to round-off.
///
/// The run reports accumulators, not samples, so the bound is taken from
/// them: `max_i |x_i − 1| ≤ |mean − 1| + √M₂`, where
/// `M₂ = Σ(x_i − mean)² = stderr² · n · (n − 1)`.
/// One deviation is recorded per run: the larger of the two bounds.
pub fn check_half_filling(density: &Accumulator, sign: &Accumulator, expected: u64) -> Check {
    let mut check = Check::default();
    let bound = |acc: &Accumulator| {
        let n = acc.count() as f64;
        let m2 = acc.stderr().powi(2) * n * (n - 1.0);
        (acc.mean() - 1.0).abs() + m2.sqrt()
    };
    for (name, acc) in [("density", density), ("sign", sign)] {
        if acc.count() != expected {
            check.failures.push(format!(
                "{name}: {} measurements, expected {expected}",
                acc.count()
            ));
        }
    }
    if check.passed() {
        let (d, s) = (bound(density), bound(sign));
        check.observe(
            || format!("density {d:.3e}, sign {s:.3e}"),
            d.max(s),
            SYMMETRY_TOL,
        );
    }
    check
}

/// Replays every sweep of a finished service job with [`MatrixTask::run`]
/// on one thread, requires bit-identical bins, and holds the replay's
/// diagonal blocks to the explicit-product reference.
pub fn replay_job(spec: &JobSpec, bins: &[(usize, Vec<f64>)]) -> Check {
    let mut check = Check::default();
    if bins.len() != spec.sweeps {
        check.failures.push(format!(
            "job has {} bins, spec asks for {}",
            bins.len(),
            spec.sweeps
        ));
        return check;
    }
    let builder = BlockBuilder::new(
        SquareLattice::square(spec.side),
        HubbardParams::paper_validation(spec.l),
    );
    let fields = generate_fields(spec.l, spec.n_sites(), spec.sweeps, spec.seed);
    for (sweep, bin) in bins {
        // The measurement hook must be `'static`: it owns its matrix and
        // shares its verdict through an `Arc`.
        let pc = hubbard_pcyclic(&builder, &fields[*sweep], Spin::Up);
        let block_err = Arc::new(Mutex::new(Check::default()));
        let verdict = Arc::clone(&block_err);
        let measure = move |s: &SelectedInverse| {
            let mut diags: Vec<(usize, usize)> =
                s.iter().map(|(&c, _)| c).filter(|c| c.0 == c.1).collect();
            diags.sort_unstable();
            let mut c = Check::default();
            let samples = sample_blocks(s, &diags, &mut c);
            check_blocks(&pc, &samples, &mut c);
            *verdict.lock().unwrap() = c;
            trace_measure(s)
        };
        let mut task = MatrixTask::new(
            *sweep,
            fields[*sweep].clone(),
            spec.c,
            spec.pattern,
            spec.seed,
        );
        if let Err(e) = task.run(Parallelism::Serial, &builder, &measure) {
            check
                .failures
                .push(format!("sweep {sweep}: replay failed: {e:?}"));
            continue;
        }
        let replayed = task.quantities().unwrap_or_default();
        let same = replayed.len() == bin.len()
            && replayed
                .iter()
                .zip(bin)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            check.failures.push(format!(
                "sweep {sweep}: service bin {bin:?} != replay {replayed:?}"
            ));
        }
        let mut blocks = std::mem::take(&mut *block_err.lock().unwrap());
        for f in &mut blocks.failures {
            *f = format!("sweep {sweep}: {f}");
        }
        check.absorb(blocks);
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_pcyclic::HsField;
    use fsi_selinv::fsi::fsi_measurement_set;
    use rand::SeedableRng;

    fn tiny_pc() -> BlockPCyclic {
        let builder = BlockBuilder::new(
            SquareLattice::square(2),
            HubbardParams::paper_validation(16),
        );
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let field = HsField::random(16, 4, &mut rng);
        hubbard_pcyclic(&builder, &field, Spin::Down)
    }

    #[test]
    fn adjacency_walk_matches_the_dense_reference() {
        let pc = tiny_pc();
        let g = pc.reference_green(Par::Seq);
        for (k, l) in [(0, 0), (5, 2), (15, 0), (15, 14)] {
            let g_ll = pc.dense_block(&g, l, l);
            let walked = below_diagonal_reference(&pc, &g_ll, k, l);
            assert!(rel_error(&walked, &pc.dense_block(&g, k, l)) < 1e-12);
        }
    }

    #[test]
    fn measurement_set_passes_and_a_perturbed_block_fails() {
        let pc = tiny_pc();
        let (mut merged, _) = fsi_measurement_set(Parallelism::Serial, &pc, 4, 1).unwrap();
        // Offset o = c − 1 − q = 2: rows/cols {2, 6, 10, 14}.
        let coords = [(3, 3), (11, 11), (10, 4), (9, 6)];
        let mut ok = Check::default();
        let mut samples = sample_blocks(&merged, &coords, &mut ok);
        check_blocks(&pc, &samples, &mut ok);
        assert!(ok.passed(), "{:?}", ok.failures);
        assert!(ok.max_err > 0.0 && ok.max_err < 1e-12, "{}", ok.max_err);

        samples[2].1[(1, 2)] *= 1.0 + 1e-6;
        let mut fail = Check::default();
        check_blocks(&pc, &samples, &mut fail);
        assert_eq!(fail.failures.len(), 1, "{:?}", fail.failures);
        assert!(fail.max_err > BLOCK_TOL);

        merged.remove(3, 3);
        let mut missing = Check::default();
        assert_eq!(sample_blocks(&merged, &coords, &mut missing).len(), 3);
        assert_eq!(missing.failures.len(), 1);
    }

    #[test]
    fn half_filling_check_passes_round_off_and_fails_a_shift() {
        let acc = |xs: &[f64]| {
            let mut a = Accumulator::new();
            xs.iter().for_each(|&x| a.push(x));
            a
        };
        let ones = acc(&[1.0, 1.0, 1.0]);
        let near = acc(&[1.0, 1.0 + 4.0 * f64::EPSILON, 1.0 - f64::EPSILON]);
        let c = check_half_filling(&near, &ones, 3);
        assert!(c.passed(), "{:?}", c.failures);
        assert!(c.max_err > 0.0 && c.max_err < 1e-14);
        // One sample off by 1e-8 must be caught even though the mean moves
        // by only a third of that.
        assert!(!check_half_filling(&acc(&[1.0, 1.0 + 1e-8, 1.0]), &ones, 3).passed());
        assert!(!check_half_filling(&near, &acc(&[1.0, -1.0, 1.0]), 3).passed());
        assert!(!check_half_filling(&near, &ones, 4).passed());
    }

    #[test]
    fn half_filling_bound_covers_every_measurement() {
        let xs = [1.0, 1.0 + 3e-12, 1.0 - 2e-12, 1.0 + 7e-12, 1.0 - 1e-12];
        let mut density = Accumulator::new();
        xs.iter().for_each(|&x| density.push(x));
        let mut sign = Accumulator::new();
        xs.iter().for_each(|_| sign.push(1.0));
        let c = check_half_filling(&density, &sign, 5);
        let worst = xs.iter().map(|x| (x - 1.0f64).abs()).fold(0.0, f64::max);
        assert_eq!(c.errors.len(), 1);
        assert!(
            c.max_err >= worst && c.max_err < 3.0 * worst,
            "{}",
            c.max_err
        );
    }

    #[test]
    fn service_bins_replay_bitwise_and_a_flipped_bit_fails() {
        let service = fsi_service::Service::start(fsi_service::ServiceConfig {
            state_dir: None,
            ..fsi_service::ServiceConfig::small(2)
        });
        let mut rows = JobSpec::new("t", 3, 8, 4, 2, 99);
        rows.pattern = fsi_selinv::Pattern::Rows;
        for spec in [JobSpec::new("t", 2, 8, 4, 3, 5), rows] {
            let outcome = service.handle().submit(spec.clone()).unwrap().wait();
            let ok = replay_job(&spec, &outcome.bins);
            assert!(ok.passed(), "{:?}", ok.failures);
            assert!(ok.max_err > 0.0 && ok.max_err < 1e-12);

            let mut bins = outcome.bins.clone();
            bins[1].1[0] = f64::from_bits(bins[1].1[0].to_bits() ^ 1);
            assert_eq!(replay_job(&spec, &bins).failures.len(), 1);
            assert!(!replay_job(&spec, &bins[..1]).passed());
        }
        service.shutdown();
    }
}
