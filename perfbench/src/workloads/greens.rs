//! `greens_paper`: one caller in a closed loop over
//! `fsi_measurement_set` at the paper's validation point — a 10×10
//! lattice (N = 100), L = 64, c = 8, (t, β, U) = (1, 1, 2) — on a pool of
//! two threads. One op is one call for one spin; consecutive ops take the
//! two spins of one seed-generated field, and the shift `q` cycles through
//! `0..c` from field to field.

use fsi_pcyclic::{
    hubbard_pcyclic, BlockBuilder, BlockPCyclic, HsField, HubbardParams, Spin, SquareLattice,
};
use fsi_runtime::ThreadPool;
use fsi_selinv::fsi::fsi_measurement_set;
use fsi_selinv::{Parallelism, Pattern, Selection};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{LayerInputs, Phase, Workload};
use crate::host::Stamp;
use crate::layers;
use crate::ledger::Node;
use crate::reference::{check_blocks, sample_blocks, Check, Sample};
use crate::report::Metrics;
use crate::stats::derive_seed;

/// Lattice side (N = SIDE²).
pub const SIDE: usize = 10;
/// Imaginary-time slices.
pub const L: usize = 64;
/// Cluster size.
pub const C: usize = 8;
/// Pool threads.
pub const THREADS: usize = 2;

/// One planned op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// Which seed-generated field the op's matrix comes from.
    pub field: u64,
    /// Which spin of that field.
    pub spin: Spin,
    /// Wrapping shift.
    pub q: usize,
    /// Blocks checked against the reference: two diagonal blocks, one from
    /// a selected block row below the diagonal, one from a selected block
    /// column below the diagonal.
    pub coords: [(usize, usize); 4],
}

/// Op `i` of a workload seeded `seed` (a pure function, so op sequences
/// repeat exactly for a fixed seed).
pub fn plan(seed: u64, i: u64, l: usize, c: usize) -> Op {
    let field = i / 2;
    let spin = if i.is_multiple_of(2) {
        Spin::Up
    } else {
        Spin::Down
    };
    let q = (field % c as u64) as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 1 << 40 | i));
    let idx = Selection::new(Pattern::Rows, c, q).index_set(l);
    let rows: Vec<usize> = idx.iter().copied().filter(|&r| r >= 1).collect();
    let cols: Vec<usize> = idx.iter().copied().filter(|&k| k + 1 < l).collect();
    let row = rows[rng.gen_range(0..rows.len())];
    let col = cols[rng.gen_range(0..cols.len())];
    let d0 = rng.gen_range(0..l);
    let d1 = rng.gen_range(0..l);
    Op {
        field,
        spin,
        q,
        coords: [
            (d0, d0),
            (row, rng.gen_range(0..row)),
            (rng.gen_range(col + 1..l), col),
            (d1, d1),
        ],
    }
}

/// Built inputs of the workload.
pub struct Greens {
    seed: u64,
    builder: BlockBuilder,
    pool: ThreadPool,
    next_op: u64,
    /// Pool busy/idle seconds when the last phase started.
    pool_mark: (f64, f64),
    /// Sampled blocks of traced ops, awaiting the check.
    kept: Vec<(Op, Vec<Sample>, Check)>,
    /// The serial pass of the traced run.
    serial: Option<Phase>,
}

impl Greens {
    /// Builds the lattice, the block builder and the pool.
    pub fn setup(seed: u64) -> Self {
        let builder = BlockBuilder::new(
            SquareLattice::square(SIDE),
            HubbardParams::paper_validation(L),
        );
        Greens {
            seed,
            builder,
            pool: ThreadPool::new(THREADS),
            next_op: 0,
            pool_mark: (0.0, 0.0),
            kept: Vec::new(),
            serial: None,
        }
    }

    /// The p-cyclic matrix of an op, generated from the workload seed.
    fn matrix(&self, op: &Op) -> BlockPCyclic {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(self.seed, op.field));
        let field = HsField::random(L, SIDE * SIDE, &mut rng);
        hubbard_pcyclic(&self.builder, &field, op.spin)
    }

    fn phase(&mut self, budget_s: f64, par_serial: bool) -> Phase {
        self.pool_mark = pool_busy_idle(&self.pool);
        let mut phase = Phase::default();
        while phase.busy_s < budget_s {
            let op = plan(self.seed, self.next_op, L, C);
            self.next_op += 1;
            let pc = self.matrix(&op);
            let par = if par_serial {
                Parallelism::Serial
            } else {
                Parallelism::OpenMp(&self.pool)
            };
            let t0 = Stamp::now();
            let span = fsi_runtime::trace::span("bench.greens.call");
            let out = fsi_measurement_set(par, &pc, C, op.q);
            drop(span);
            let t1 = Stamp::now();
            let dt = t0.until(&t1);
            phase.attempted += 1;
            phase.busy_s += (t1.at - t0.at).as_secs_f64();
            phase.latencies.push(dt);
            match out {
                Ok((merged, _)) => {
                    phase.rates.push(1.0 / dt);
                    let mut check = Check::default();
                    let samples = sample_blocks(&merged, &op.coords, &mut check);
                    drop(merged);
                    if fsi_runtime::trace::enabled() {
                        // Checking now would trace the reference's kernels.
                        self.kept.push((op, samples, check));
                    } else {
                        // Checking right away keeps memory flat however
                        // many ops the run completes.
                        settle(&mut phase, &pc, &samples, check);
                    }
                }
                Err(e) => {
                    phase.failed += 1;
                    phase
                        .check
                        .failures
                        .push(format!("op {}: {e:?}", self.next_op - 1));
                }
            }
        }
        phase
    }
}

impl Workload for Greens {
    fn pool_threads(&self) -> usize {
        THREADS
    }

    fn warm_up(&mut self) {
        let pc = self.matrix(&plan(self.seed, 0, L, C));
        let _ = fsi_measurement_set(Parallelism::OpenMp(&self.pool), &pc, C, 0);
    }

    fn run(&mut self, budget_s: f64) -> Phase {
        self.phase(budget_s, false)
    }

    fn check(&mut self, phase: &mut Phase) {
        for (op, samples, check) in std::mem::take(&mut self.kept) {
            settle(phase, &self.matrix(&op), &samples, check);
        }
    }

    fn layers(&mut self, input: &LayerInputs<'_>, m: &mut Metrics, ledger: &mut Vec<Node>) {
        let spans = input.spans;
        layers::dense(spans, input.ceiling_gflops, m);
        layers::selinv(
            spans,
            &["bench.greens.call"],
            THREADS,
            input.ceiling_gflops,
            Some((SIDE * SIDE, L, C)),
            m,
            ledger,
        );
        // The caches belong to the sweep, and an op's matrix is built
        // before the op starts.
        m.na("selinv.cluster_cache.hit_ratio", "ratio");
        m.na("pcyclic.block_cache.reuse_ratio", "ratio");
        m.na("pcyclic.build.calls", "count");
        m.na("pcyclic.build.self_s", "s");

        let (busy, idle) = pool_busy_idle(&self.pool);
        let (busy, idle) = (busy - self.pool_mark.0, idle - self.pool_mark.1);
        m.set("runtime.pool.utilization", busy / (busy + idle), "ratio");
        layers::workspace(input.delta, m);

        // Serial pass, compared with the untraced parallel phase (tracing
        // off on both sides). Its ops are checked like any other.
        let kept = std::mem::take(&mut self.kept);
        let level = fsi_runtime::trace::level();
        fsi_runtime::trace::set_level(fsi_runtime::trace::TraceLevel::Off);
        let mut serial = self.phase(0.5 * input.untraced.busy_s, true);
        self.check(&mut serial);
        fsi_runtime::trace::set_level(level);
        self.kept = kept;
        m.set(
            "selinv.parallel_eff",
            input.untraced.ops_per_s() / (THREADS as f64 * serial.ops_per_s()),
            "ratio",
        );
        self.serial = Some(serial);

        ledger.push(layers::node(
            spans,
            "workload.greens_paper.call",
            &["bench.greens.call"],
            &[
                ("selinv.fsi", &["fsi"]),
                ("selinv.wrap.unspanned", &layers::KERNELS),
            ],
        ));
    }

    fn serial_phase(&self) -> Option<&Phase> {
        self.serial.as_ref()
    }
}

/// Checks an op's sampled blocks and books the outcome: one failed op
/// however many of its blocks failed.
fn settle(phase: &mut Phase, pc: &BlockPCyclic, samples: &[Sample], mut check: Check) {
    check_blocks(pc, samples, &mut check);
    if !check.passed() {
        phase.failed += 1;
    }
    phase.check.absorb(check);
}

/// Busy and idle seconds summed over a pool's background workers.
pub fn pool_busy_idle(pool: &ThreadPool) -> (f64, f64) {
    pool.stats().workers.iter().fold((0.0, 0.0), |(b, i), w| {
        (b + w.busy.as_secs_f64(), i + w.idle.as_secs_f64())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_flops_of_an_op_repeat_exactly() {
        use fsi_runtime::trace::{self, TraceLevel};
        let _guard = trace::test_lock();
        let builder = BlockBuilder::new(
            SquareLattice::square(2),
            HubbardParams::paper_validation(16),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let pc = hubbard_pcyclic(&builder, &HsField::random(16, 4, &mut rng), Spin::Up);
        let op_flops = || {
            trace::set_level(TraceLevel::Kernels);
            let span = trace::span("test.greens.op");
            fsi_measurement_set(Parallelism::Serial, &pc, 4, 2).unwrap();
            let flops = span.finish().flops;
            trace::set_level(TraceLevel::Off);
            flops
        };
        let first = op_flops();
        assert!(first > 0);
        assert_eq!(first, op_flops());
    }

    #[test]
    fn plan_repeats_for_a_seed_and_stays_below_the_diagonal() {
        for i in 0..200 {
            let a = plan(5, i, L, C);
            assert_eq!(a, plan(5, i, L, C));
            assert!(a.q < C);
            assert_eq!(a.coords[0].0, a.coords[0].1);
            assert_eq!(a.coords[3].0, a.coords[3].1);
            let idx = Selection::new(Pattern::Rows, C, a.q).index_set(L);
            let (r, l) = a.coords[1];
            assert!(idx.contains(&r) && l < r);
            let (k, col) = a.coords[2];
            assert!(idx.contains(&col) && k > col && k < L);
        }
        // Both spins of a field in turn; every shift over c fields.
        let a: Vec<Op> = (0..2 * C as u64).map(|i| plan(5, i, L, C)).collect();
        assert_eq!((a[0].field, a[0].spin), (0, Spin::Up));
        assert_eq!((a[1].field, a[1].spin), (0, Spin::Down));
        let shifts: std::collections::BTreeSet<usize> = a.iter().map(|op| op.q).collect();
        assert_eq!(shifts.len(), C);
        let b: Vec<Op> = (0..2 * C as u64).map(|i| plan(6, i, L, C)).collect();
        assert_ne!(a, b);
    }
}
