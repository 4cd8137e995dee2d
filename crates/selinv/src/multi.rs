//! Parallel application of FSI to many Green's functions (paper Alg. 3)
//! and the node-memory model behind Fig. 9.
//!
//! DQMC needs selected inversions of *tens of thousands* of independent
//! p-cyclic matrices. Alg. 3 distributes them over MPI ranks: the root
//! generates the Hubbard–Stratonovich field parameters `h` (cheap to ship,
//! unlike the matrices), each rank builds its matrices locally and runs
//! the OpenMP FSI per matrix, and local measurement quantities are
//! combined with `MPI_Reduce`. [`run_multi`] reproduces that loop in one
//! process: each rank is a worker thread with its own thread pool (the
//! OpenMP level). The workers' deques ([`fsi_runtime::StealQueues`]) are
//! seeded with Alg. 3's block distribution — `matrices / ranks`
//! consecutive matrices each — and an idle worker steals half of the
//! fullest backlog, so uneven per-matrix cost cannot strand a worker idle.
//! The `fsi-service` crate builds its multi-tenant job queue on the same
//! shape. The per-matrix stage loop is a resumable [`MatrixTask`] state
//! machine ([`JobStep`]) that schedulers can interleave.
//!
//! Results are **bitwise-identical** for any rank count and steal order
//! given the same `(seed, matrices, c, pattern)`: fields come from one
//! root RNG stream in matrix order, each matrix's shift `q` is derived
//! from `(seed, index)` alone (never from the worker that happens to run
//! it), and measurement vectors are summed in matrix-index order.
//!
//! The memory model captures why the paper's Fig. 9 favors the hybrid
//! configuration: a rank must hold its matrix, the reduced inverse `Ḡ`,
//! and the selected blocks simultaneously; with 12 ranks per socket the
//! per-rank budget (≈2.5 GB on Edison) is exceeded already at `N = 576`,
//! so pure MPI configurations are infeasible exactly where the paper's
//! OOM-killer anecdote places them.
//!
//! Each matrix's clustering stage is the batched small-GEMM hot shape: in
//! the `Serial` and `OpenMp` rank configurations (`par_gemm` sequential)
//! the per-matrix CLS rides [`fsi_dense::gemm_batched`]'s lockstep path,
//! so a multi-matrix run issues one batched dispatch per chain position
//! per matrix instead of `b·(c−1)` individual small products. The
//! `selinv.multi.matrices` counter tracks driver progress in the metrics
//! registry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, BlockPCyclic, HsField, Spin};
use fsi_runtime::ckpt::{CkptError, Reader as CkptReader, Writer as CkptWriter};
use fsi_runtime::health::{FsiError, FsiResult};
use fsi_runtime::{trace, StealQueues, Stopwatch, ThreadPool};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::fsi::{FsiOutput, Parallelism};
use crate::patterns::{Pattern, SelectedInverse, Selection};

/// Configuration of a multi-matrix FSI run.
#[derive(Clone, Debug)]
pub struct MultiConfig {
    /// Number of ranks (Alg. 3's MPI processes): worker threads whose
    /// deques are seeded with the block distribution of the matrices.
    pub ranks: usize,
    /// OpenMP-style threads per rank.
    pub threads_per_rank: usize,
    /// Number of independent Green's functions (matrices).
    pub matrices: usize,
    /// Cluster size `c`.
    pub c: usize,
    /// Selection pattern computed per matrix.
    pub pattern: Pattern,
    /// RNG seed for field generation and the per-matrix shift `q`.
    pub seed: u64,
}

/// Result of a multi-matrix run.
#[derive(Clone, Debug)]
pub struct MultiResult {
    /// Globally reduced measurement quantities (sum over matrices).
    pub global_measurements: Vec<f64>,
    /// Wall-clock seconds of the parallel region.
    pub seconds: f64,
    /// Total matrices processed.
    pub matrices: usize,
}

/// The per-matrix measurement hook: reduces a selected inversion to a
/// vector of quantities, which are summed across matrices and ranks (the
/// paper's `local_measurement_quantities` → `MPI_Reduce`).
pub type MeasureFn = dyn Fn(&SelectedInverse) -> Vec<f64> + Sync;

/// Where a [`MatrixTask`] stands in its stage pipeline.
///
/// The steps mirror the per-matrix body of Alg. 3: build the p-cyclic
/// matrix from the scattered field, run the selected inversion (Alg. 1),
/// measure. A scheduler may park a task between any two steps and resume
/// it on a different worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStep {
    /// Assemble the block p-cyclic matrix from the HS field.
    Build,
    /// Run FSI (CLS → BSOFI → wrap) on the built matrix.
    Invert,
    /// Reduce the selected inversion to measurement quantities.
    Measure,
    /// All stages complete; [`MatrixTask::quantities`] is available.
    Done,
}

/// One matrix's resumable unit of work.
///
/// Owns the HS field and all intermediate state, so a scheduler can
/// advance it step by step ([`MatrixTask::step`]) or to completion
/// ([`MatrixTask::run`]) on whichever worker holds it. The shift `q` is
/// derived from `(seed, index, c)` alone, so results are independent of
/// which worker executes the task and in what order.
///
/// [`MatrixTask::degrade`] implements the per-job rung of the §II-C
/// recovery ladder: it halves the cluster size and rewinds the task to
/// [`JobStep::Build`], so one sick job retries smaller without touching
/// its neighbors.
pub struct MatrixTask {
    index: usize,
    field: HsField,
    c: usize,
    pattern: Pattern,
    seed: u64,
    step: JobStep,
    pc: Option<BlockPCyclic>,
    out: Option<FsiOutput>,
    quantities: Option<Vec<f64>>,
    degradations: u32,
}

impl MatrixTask {
    /// Creates a task for matrix `index` with the given field and
    /// selection parameters. `seed` is the *run* seed; the per-matrix
    /// shift is derived from it and `index` (see [`shift_for`]).
    pub fn new(index: usize, field: HsField, c: usize, pattern: Pattern, seed: u64) -> Self {
        assert!(c > 0, "cluster size must be positive");
        MatrixTask {
            index,
            field,
            c,
            pattern,
            seed,
            step: JobStep::Build,
            pc: None,
            out: None,
            quantities: None,
            degradations: 0,
        }
    }

    /// The matrix index this task computes.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The cluster size the task currently runs with (shrinks on
    /// [`MatrixTask::degrade`]).
    pub fn c(&self) -> usize {
        self.c
    }

    /// How many times [`MatrixTask::degrade`] has fired.
    pub fn degradations(&self) -> u32 {
        self.degradations
    }

    /// The current pipeline position.
    pub fn step_now(&self) -> JobStep {
        self.step
    }

    /// Whether the task has completed all stages.
    pub fn is_done(&self) -> bool {
        self.step == JobStep::Done
    }

    /// The measurement quantities, once [`JobStep::Done`].
    pub fn quantities(&self) -> Option<&[f64]> {
        self.quantities.as_deref()
    }

    /// Consumes the task, returning `(index, quantities)`.
    ///
    /// # Panics
    /// If the task is not [`JobStep::Done`].
    pub fn into_quantities(self) -> (usize, Vec<f64>) {
        (
            self.index,
            self.quantities.expect("task must be Done before harvest"),
        )
    }

    /// Advances the pipeline by exactly one step and returns the *new*
    /// position. A no-op at [`JobStep::Done`].
    ///
    /// # Errors
    /// Propagates health-probe failures from the inversion; the task
    /// stays at its current step so the caller may [`MatrixTask::degrade`]
    /// and retry.
    pub fn step(
        &mut self,
        par: Parallelism<'_>,
        builder: &BlockBuilder,
        measure: &MeasureFn,
    ) -> FsiResult<JobStep> {
        static MATRICES: fsi_runtime::metrics::LazyCounter =
            fsi_runtime::metrics::LazyCounter::new("selinv.multi.matrices");
        match self.step {
            JobStep::Build => {
                self.pc = Some(hubbard_pcyclic(builder, &self.field, Spin::Up));
                self.step = JobStep::Invert;
            }
            JobStep::Invert => {
                let pc = self.pc.as_ref().expect("Build ran before Invert");
                let q = shift_for(self.seed, self.index, self.c);
                let selection = Selection::new(self.pattern, self.c, q);
                self.out = Some(crate::fsi::fsi_with_q(par, pc, &selection)?);
                self.step = JobStep::Measure;
            }
            JobStep::Measure => {
                let out = self.out.as_ref().expect("Invert ran before Measure");
                self.quantities = Some(measure(&out.selected));
                MATRICES.inc();
                self.step = JobStep::Done;
            }
            JobStep::Done => {}
        }
        Ok(self.step)
    }

    /// Runs the remaining steps to completion.
    ///
    /// # Errors
    /// First health-probe failure; see [`MatrixTask::step`].
    pub fn run(
        &mut self,
        par: Parallelism<'_>,
        builder: &BlockBuilder,
        measure: &MeasureFn,
    ) -> FsiResult<()> {
        while self.step(par, builder, measure)? != JobStep::Done {}
        Ok(())
    }

    /// Shrinks the cluster size (the §II-C "shrink `c`" rung scoped to
    /// this one task) and rewinds the pipeline to [`JobStep::Build`].
    ///
    /// An even `c` halves (`c | L` and `2 | c` imply `c/2 | L`, so the
    /// clustering stays legal); an odd `c > 1` drops to 1 (plain block
    /// LU, no clustering). Returns `false` — without changing anything —
    /// once `c == 1`, the ladder's floor.
    pub fn degrade(&mut self) -> bool {
        if self.c == 1 {
            return false;
        }
        self.c = if self.c.is_multiple_of(2) {
            self.c / 2
        } else {
            1
        };
        self.degradations += 1;
        self.step = JobStep::Build;
        self.pc = None;
        self.out = None;
        self.quantities = None;
        true
    }
}

impl JobStep {
    /// Stable one-byte encoding for checkpoints.
    pub fn as_u8(self) -> u8 {
        match self {
            JobStep::Build => 0,
            JobStep::Invert => 1,
            JobStep::Measure => 2,
            JobStep::Done => 3,
        }
    }

    /// Decodes [`JobStep::as_u8`].
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on an unknown discriminant.
    pub fn from_u8(v: u8) -> Result<Self, CkptError> {
        Ok(match v {
            0 => JobStep::Build,
            1 => JobStep::Invert,
            2 => JobStep::Measure,
            3 => JobStep::Done,
            _ => return Err(CkptError::Malformed("unknown JobStep discriminant")),
        })
    }
}

/// The checkpointable state of a [`MatrixTask`].
///
/// The built matrix and the inversion output are *not* carried: they are
/// pure deterministic functions of `(field, c, pattern, seed, index)`,
/// so a task parked at [`JobStep::Invert`] or [`JobStep::Measure`]
/// snapshots as [`JobStep::Build`] and recomputes the intermediates on
/// resume — bitwise identically, by the same argument that makes results
/// independent of the rank count. Only a [`JobStep::Done`] task
/// carries its measurement vector, so a resumed scheduler never re-runs
/// finished work.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSnapshot {
    /// The matrix index ([`MatrixTask::index`]).
    pub index: usize,
    /// The cluster size in force (after any degradations).
    pub c: usize,
    /// Recovery-ladder rungs the task has descended.
    pub degradations: u32,
    /// The (coarsened) pipeline position: `Build` or `Done`.
    pub step: JobStep,
    /// The measurement vector, present exactly when `step == Done`.
    pub quantities: Option<Vec<f64>>,
}

impl TaskSnapshot {
    /// Serializes into `w` (the task's share of a larger checkpoint).
    pub fn encode(&self, w: &mut CkptWriter) {
        w.put_u64(self.index as u64);
        w.put_u64(self.c as u64);
        w.put_u32(self.degradations);
        w.put_u32(self.step.as_u8() as u32);
        match &self.quantities {
            Some(q) => {
                w.put_u32(1);
                w.put_f64s(q);
            }
            None => w.put_u32(0),
        }
    }

    /// Deserializes what [`TaskSnapshot::encode`] wrote.
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on truncation or structural nonsense
    /// (a `Done` step without quantities, and vice versa).
    pub fn decode(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let index = r.take_u64()? as usize;
        let c = r.take_u64()? as usize;
        if c == 0 {
            return Err(CkptError::Malformed("cluster size zero"));
        }
        let degradations = r.take_u32()?;
        let step = JobStep::from_u8(r.take_u32()? as u8)?;
        let quantities = match r.take_u32()? {
            0 => None,
            1 => Some(r.take_f64s()?),
            _ => return Err(CkptError::Malformed("bad quantities tag")),
        };
        if (step == JobStep::Done) != quantities.is_some() {
            return Err(CkptError::Malformed("step/quantities mismatch"));
        }
        Ok(TaskSnapshot {
            index,
            c,
            degradations,
            step,
            quantities,
        })
    }
}

impl MatrixTask {
    /// Captures the checkpointable state (see [`TaskSnapshot`] for what
    /// is coarsened and why).
    pub fn snapshot(&self) -> TaskSnapshot {
        TaskSnapshot {
            index: self.index,
            c: self.c,
            degradations: self.degradations,
            step: if self.step == JobStep::Done {
                JobStep::Done
            } else {
                JobStep::Build
            },
            quantities: self.quantities.clone(),
        }
    }

    /// Rebuilds a task from a snapshot plus the externally-regenerated
    /// field (fields come from the run's root RNG stream, so the
    /// checkpoint owner regenerates them rather than storing each copy).
    pub fn restore(snap: TaskSnapshot, field: HsField, pattern: Pattern, seed: u64) -> Self {
        MatrixTask {
            index: snap.index,
            field,
            c: snap.c,
            pattern,
            seed,
            step: snap.step,
            pc: None,
            out: None,
            quantities: snap.quantities,
            degradations: snap.degradations,
        }
    }
}

/// The deterministic per-matrix shift `q ∈ [0, c)` (paper: "select `q`
/// randomly").
///
/// Derived from `(seed, index, c)` only — *not* from the rank or worker
/// executing the matrix — so every rank count and steal order produces
/// bitwise-identical selected inversions.
pub fn shift_for(seed: u64, index: usize, c: usize) -> usize {
    let mix = seed ^ 0x9E37 ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ChaCha8Rng::seed_from_u64(mix).gen_range(0..c)
}

/// Generates the HS fields for a run: one [`ChaCha8Rng`] stream seeded by
/// `seed`, drawn in matrix order — the root-side generation of Alg. 3,
/// shared by [`run_multi`] and the `fsi-service` job runner.
pub fn generate_fields(l: usize, n: usize, matrices: usize, seed: u64) -> Vec<HsField> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..matrices)
        .map(|_| HsField::random(l, n, &mut rng))
        .collect()
}

/// Sums per-matrix measurement vectors in matrix-index order, so the
/// global reduction is bitwise-reproducible across rank counts and steal
/// orders (float addition is not associative; fixing the order fixes the
/// sum).
fn ordered_sum(mut pairs: Vec<(usize, Vec<f64>)>) -> Vec<f64> {
    pairs.sort_by_key(|(i, _)| *i);
    let mut acc: Vec<f64> = Vec::new();
    for (_, q) in pairs {
        if acc.is_empty() {
            acc = q;
        } else {
            assert_eq!(acc.len(), q.len(), "measure length varies");
            for (a, v) in acc.iter_mut().zip(q) {
                *a += v;
            }
        }
    }
    acc
}

/// Runs Alg. 3: seed each rank's deque with its block of matrices, run
/// FSI per matrix (idle ranks steal), reduce measurement vectors in
/// matrix order.
///
/// The spin is fixed to [`Spin::Up`]; DQMC proper (both spins, Metropolis
/// dynamics) lives in the `fsi-dqmc` crate — this driver is the
/// performance harness of the paper's §V-B. Every rank count gives the
/// same bits for the same seed (see the module docs). The ranks run under
/// the caller's trace span, so its flop total covers every matrix.
///
/// ```
/// use fsi_selinv::{run_multi, trace_measure, MultiConfig, Pattern};
/// use fsi_pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
///
/// let builder = BlockBuilder::new(
///     SquareLattice::square(2),
///     HubbardParams::paper_validation(8),
/// );
/// let cfg = MultiConfig {
///     ranks: 2,
///     threads_per_rank: 1,
///     matrices: 3,
///     c: 4,
///     pattern: Pattern::Diagonal,
///     seed: 1,
/// };
/// let result = run_multi(&builder, &cfg, &trace_measure).unwrap();
/// // One diagonal selection per cluster: 3 matrices × (L/c = 2) blocks.
/// assert_eq!(result.global_measurements[1], 6.0);
/// ```
///
/// # Errors
/// Any worker whose FSI invocation trips a health probe aborts the run;
/// remaining queued matrices are drained unprocessed and the failure with
/// the lowest matrix index is surfaced.
pub fn run_multi(
    builder: &BlockBuilder,
    cfg: &MultiConfig,
    measure: &MeasureFn,
) -> FsiResult<MultiResult> {
    assert!(cfg.ranks > 0 && cfg.threads_per_rank > 0 && cfg.matrices > 0);
    let sw = Stopwatch::start();
    let l = builder.params().l;
    let n = builder.lattice().n_sites();
    let mut fields = generate_fields(l, n, cfg.matrices, cfg.seed).into_iter();
    let queues = StealQueues::new(cfg.ranks);
    for w in 0..cfg.ranks {
        for (m, field) in block_range(cfg.matrices, cfg.ranks, w).zip(&mut fields) {
            queues.push(w, MatrixTask::new(m, field, cfg.c, cfg.pattern, cfg.seed));
        }
    }
    queues.close(); // batch run: drain and exit

    let ctx = trace::current_context();
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, FsiError)>> = Mutex::new(None);
    let done: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..cfg.ranks {
            let ctx = ctx.clone();
            let queues = &queues;
            let abort = &abort;
            let failure = &failure;
            let done = &done;
            s.spawn(move || {
                trace::with_context(ctx, || {
                    let pool = ThreadPool::new(cfg.threads_per_rank);
                    let par = if cfg.threads_per_rank == 1 {
                        Parallelism::Serial
                    } else {
                        Parallelism::OpenMp(&pool)
                    };
                    while let Some(mut task) = queues.acquire(w) {
                        if abort.load(Ordering::Acquire) {
                            continue; // drain without processing
                        }
                        match task.run(par, builder, measure) {
                            Ok(()) => done.lock().unwrap().push(task.into_quantities()),
                            Err(e) => {
                                let mut slot = failure.lock().unwrap();
                                // Keep the lowest-index failure for
                                // deterministic error surfacing.
                                if slot.as_ref().is_none_or(|(i, _)| task.index() < *i) {
                                    *slot = Some((task.index(), e));
                                }
                                abort.store(true, Ordering::Release);
                            }
                        }
                    }
                })
            });
        }
    });
    if let Some((_, e)) = failure.into_inner().unwrap() {
        return Err(e);
    }
    Ok(MultiResult {
        global_measurements: ordered_sum(done.into_inner().unwrap()),
        seconds: sw.seconds(),
        matrices: cfg.matrices,
    })
}

/// Splits `n` matrices across `ranks` as evenly as possible and returns
/// the half-open range owned by `rank` — the block distribution the paper
/// uses for `m_per_MPI = m / num_MPI_process`.
fn block_range(n: usize, ranks: usize, rank: usize) -> std::ops::Range<usize> {
    let base = n / ranks;
    let extra = n % ranks;
    let lo = rank * base + rank.min(extra);
    lo..lo + base + usize::from(rank < extra)
}

/// A simple default measurement: `[Σ tr G(k,k), #blocks]` over the
/// selection — enough to validate reductions end to end.
///
/// The diagonal traces are summed in ascending block order: the selected
/// inverse stores blocks in a hash map, and a measurement hook that sums
/// in map-iteration order would produce run-dependent last bits.
pub fn trace_measure(s: &SelectedInverse) -> Vec<f64> {
    let mut diags: Vec<(usize, f64)> = s
        .iter()
        .filter(|(coord, _)| coord.0 == coord.1)
        .map(|(coord, blk)| {
            let mut t = 0.0;
            for i in 0..blk.rows() {
                t += blk[(i, i)];
            }
            (coord.0, t)
        })
        .collect();
    diags.sort_by_key(|(k, _)| *k);
    let trace = diags.iter().map(|(_, t)| t).sum();
    vec![trace, s.len() as f64]
}

/// Per-rank memory requirement of one FSI invocation, in bytes
/// (paper §V-B: input blocks + reduced inverse + selected blocks +
/// workspace).
pub fn per_rank_bytes(n: usize, l: usize, c: usize, pattern: Pattern) -> u64 {
    let n = n as u64;
    let l = l as u64;
    let b = l / c as u64;
    let f = 8u64; // sizeof f64
    let input = l * n * n * f;
    let reduced_blocks = b * n * n * f;
    let g_reduced = (b * n) * (b * n) * f;
    let selected = pattern.n_blocks(l as usize, c) as u64 * n * n * f;
    // Wrapping-stage intermediates (budgeted at a quarter of the input)
    // plus per-thread scratch. Service admission sizes jobs with this
    // formula, so it stays as calibrated.
    let workspace = l * n * n * f / 4 + 16 * n * n * f;
    input + reduced_blocks + g_reduced + selected + workspace
}

/// The Edison-node memory model of Fig. 9.
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    /// Physical memory per node in bytes (Edison: 64 GB).
    pub node_bytes: u64,
    /// Memory consumed by OS/kernel/filesystem/MPI buffers per node
    /// (paper: ≈2.5 GB usable per core of 2.67 GB raw → ≈4 GB overhead).
    pub reserved_bytes: u64,
    /// Cores per node (Edison: 24).
    pub cores_per_node: usize,
}

impl MemoryModel {
    /// Edison Cray XC30 node parameters from the paper's §V.
    pub fn edison() -> Self {
        MemoryModel {
            node_bytes: 64 * (1 << 30),
            reserved_bytes: 4 * (1 << 30),
            cores_per_node: 24,
        }
    }

    /// Whether a `(ranks_per_node × threads_per_rank)` configuration fits.
    ///
    /// Each rank needs `per_rank` bytes simultaneously; exceeding the
    /// usable node memory is what triggered Edison's OOM killer for the
    /// pure-MPI configurations at `N ≥ 576`.
    pub fn feasible(&self, ranks_per_node: usize, per_rank: u64) -> bool {
        ranks_per_node as u64 * per_rank <= self.node_bytes - self.reserved_bytes
    }

    /// The rank×thread configurations of Fig. 9 for this node
    /// (`ranks_per_node × threads = cores_per_node`).
    pub fn configurations(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for threads in 1..=self.cores_per_node {
            if self.cores_per_node.is_multiple_of(threads) {
                out.push((self.cores_per_node / threads, threads));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_pcyclic::{HubbardParams, SquareLattice};
    use proptest::prelude::*;

    fn small_builder() -> BlockBuilder {
        BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8))
    }

    fn base_cfg() -> MultiConfig {
        MultiConfig {
            ranks: 3,
            threads_per_rank: 1,
            matrices: 7,
            c: 4,
            pattern: Pattern::Diagonal,
            seed: 42,
        }
    }

    #[test]
    fn multi_run_reduces_across_ranks() {
        let builder = small_builder();
        let result = run_multi(&builder, &base_cfg(), &trace_measure).expect("healthy");
        assert_eq!(result.matrices, 7);
        // Block-count channel: 7 matrices × b=2 diagonal blocks.
        assert_eq!(result.global_measurements[1], 14.0);
        assert!(result.global_measurements[0].is_finite());
    }

    #[test]
    fn rank_count_does_not_change_the_bits() {
        // The same seed and matrix count must give *bitwise* identical
        // reductions regardless of how many ranks share the work — the
        // ordered reduction guarantees it.
        let builder = small_builder();
        let base = MultiConfig {
            ranks: 1,
            matrices: 5,
            seed: 7,
            ..base_cfg()
        };
        let r1 = run_multi(&builder, &base, &trace_measure).expect("healthy");
        for ranks in [2usize, 5] {
            let cfg = MultiConfig {
                ranks,
                ..base.clone()
            };
            let r = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
            assert_eq!(
                r1.global_measurements, r.global_measurements,
                "ranks={ranks}"
            );
        }
    }

    #[test]
    fn hybrid_threads_match_pure_mpi_results() {
        let builder = small_builder();
        let cfg1 = MultiConfig {
            ranks: 2,
            threads_per_rank: 1,
            matrices: 4,
            c: 4,
            pattern: Pattern::Columns,
            seed: 9,
        };
        let cfg2 = MultiConfig {
            threads_per_rank: 2,
            ranks: 1,
            ..cfg1.clone()
        };
        let r1 = run_multi(&builder, &cfg1, &trace_measure).expect("healthy");
        let r2 = run_multi(&builder, &cfg2, &trace_measure).expect("healthy");
        for (a, b) in r1.global_measurements.iter().zip(&r2.global_measurements) {
            assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
        }
    }

    #[test]
    fn task_steps_advance_in_order() {
        let builder = small_builder();
        let l = builder.params().l;
        let n = builder.lattice().n_sites();
        let field = generate_fields(l, n, 1, 3).remove(0);
        let mut task = MatrixTask::new(0, field, 4, Pattern::Diagonal, 3);
        assert_eq!(task.step_now(), JobStep::Build);
        let seq: Vec<JobStep> = (0..3)
            .map(|_| {
                task.step(Parallelism::Serial, &builder, &trace_measure)
                    .expect("healthy")
            })
            .collect();
        assert_eq!(seq, [JobStep::Invert, JobStep::Measure, JobStep::Done]);
        assert!(task.is_done());
        assert_eq!(task.quantities().unwrap().len(), 2);
    }

    #[test]
    fn degrade_halves_c_down_to_the_floor() {
        let builder = small_builder();
        let l = builder.params().l;
        let n = builder.lattice().n_sites();
        let field = generate_fields(l, n, 1, 5).remove(0);
        let mut task = MatrixTask::new(0, field, 4, Pattern::Diagonal, 5);
        task.run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy");
        assert!(task.degrade());
        assert_eq!(task.c(), 2);
        assert_eq!(task.step_now(), JobStep::Build);
        assert!(task.quantities().is_none());
        // The degraded task still completes (c=2 divides L=8).
        task.run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy after degrade");
        assert!(task.degrade());
        assert_eq!(task.c(), 1);
        assert!(!task.degrade(), "c=1 is the floor");
        assert_eq!(task.degradations(), 2);
    }

    #[test]
    fn snapshot_restores_done_and_mid_pipeline_tasks_bitwise() {
        let builder = small_builder();
        let l = builder.params().l;
        let n = builder.lattice().n_sites();
        let fields = generate_fields(l, n, 2, 21);

        // Done task: quantities survive the snapshot verbatim.
        let mut done = MatrixTask::new(0, fields[0].clone(), 4, Pattern::Diagonal, 21);
        done.run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy");
        let snap = done.snapshot();
        assert_eq!(snap.step, JobStep::Done);
        let mut w = CkptWriter::new();
        snap.encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = TaskSnapshot::decode(&mut CkptReader::new(&bytes)).expect("decodes");
        assert_eq!(decoded, snap);
        let restored = MatrixTask::restore(decoded, fields[0].clone(), Pattern::Diagonal, 21);
        assert_eq!(restored.quantities(), done.quantities());

        // Mid-pipeline (degraded, parked at Invert): coarsens to Build,
        // and the resumed task reproduces the original result bitwise.
        let mut mid = MatrixTask::new(1, fields[1].clone(), 4, Pattern::Diagonal, 21);
        mid.degrade();
        mid.step(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy build");
        assert_eq!(mid.step_now(), JobStep::Invert);
        let snap = mid.snapshot();
        assert_eq!(
            (snap.step, snap.c, snap.degradations),
            (JobStep::Build, 2, 1)
        );
        let mut resumed = MatrixTask::restore(snap, fields[1].clone(), Pattern::Diagonal, 21);
        resumed
            .run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy resume");
        mid.run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy original");
        assert_eq!(resumed.quantities(), mid.quantities());
    }

    #[test]
    fn shift_is_schedule_independent_and_in_range() {
        for seed in [0u64, 42, u64::MAX] {
            for index in [0usize, 1, 999] {
                for c in [1usize, 4, 10] {
                    let q = shift_for(seed, index, c);
                    assert!(q < c);
                    assert_eq!(q, shift_for(seed, index, c), "deterministic");
                }
            }
        }
        // Different matrices get different shift streams (not all equal).
        let qs: Vec<usize> = (0..32).map(|m| shift_for(11, m, 10)).collect();
        assert!(qs.iter().any(|&q| q != qs[0]));
    }

    #[test]
    fn memory_model_reproduces_paper_thresholds() {
        let model = MemoryModel::edison();
        // N = 576, (L, c) = (100, 10), columns: paper quotes ≈2.65 GB per
        // selected inversion; our model adds the working set on top.
        let per_rank = per_rank_bytes(576, 100, 10, Pattern::Columns);
        assert!(
            per_rank > 2 * (1 << 30) as u64,
            "selected inversion alone > 2 GB"
        );
        // Pure MPI (12 ranks/socket ⇒ 24 ranks/node) does NOT fit at
        // N = 576 — the paper's OOM case.
        assert!(
            !model.feasible(24, per_rank),
            "24 ranks x {per_rank} B must OOM"
        );
        // The hybrid 4 ranks × 6 threads fits.
        assert!(model.feasible(4, per_rank));
        // N = 400 fits even for pure MPI (the paper's only feasible pure
        // MPI point).
        let per_rank_400 = per_rank_bytes(400, 100, 10, Pattern::Columns);
        assert!(model.feasible(24, per_rank_400), "N=400 pure MPI fits");
    }

    #[test]
    fn configurations_cover_fig9_grid() {
        let model = MemoryModel::edison();
        let configs = model.configurations();
        // Fig. 9's x-axis per node: 24×1, 12×2, 8×3, 4×6, 2×12, 1×24 ...
        assert!(configs.contains(&(24, 1)));
        assert!(configs.contains(&(12, 2)));
        assert!(configs.contains(&(8, 3)));
        assert!(configs.contains(&(4, 6)));
        assert!(configs.contains(&(2, 12)));
        assert!(configs.contains(&(1, 24)));
        for (r, t) in configs {
            assert_eq!(r * t, 24);
        }
    }

    #[test]
    fn run_multi_charges_flops_to_the_calling_span() {
        // The rank threads inherit the caller's span, so the span's flop
        // total covers every matrix whichever rank ran it.
        use fsi_runtime::TraceLevel;
        let _lock = trace::test_lock();
        let builder = small_builder();
        trace::set_level(TraceLevel::Stages);
        let flops: Vec<u64> = [1usize, 3]
            .into_iter()
            .map(|ranks| {
                let span = trace::span("multi.flop_probe");
                let cfg = MultiConfig {
                    ranks,
                    ..base_cfg()
                };
                run_multi(&builder, &cfg, &trace_measure).expect("healthy");
                span.finish().flops
            })
            .collect();
        trace::set_level(TraceLevel::Off);
        trace::clear();
        assert!(flops.iter().all(|&f| f > 0), "ranks 1, 3 charged {flops:?}");
        assert_eq!(flops[0], flops[1], "ranks=3 must charge what ranks=1 does");
    }

    proptest! {
        /// The block distribution partitions `0..n` exactly and
        /// contiguously, with sizes differing by at most one.
        #[test]
        fn block_range_partitions(n in 0usize..1000, ranks in 1usize..17) {
            let ranges: Vec<_> = (0..ranks).map(|r| block_range(n, ranks, r)).collect();
            let mut next = 0;
            for range in &ranges {
                prop_assert_eq!(range.start, next);
                next = range.end;
            }
            prop_assert_eq!(next, n);
            let max = ranges.iter().map(|r| r.len()).max().unwrap();
            let min = ranges.iter().map(|r| r.len()).min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
