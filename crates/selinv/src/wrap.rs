//! WRP — the wrapping stage of FSI (paper Alg. 2 and relations (4)–(7)).
//!
//! Adjacent blocks of the Green's function satisfy one-step recurrences:
//! knowing `G(k, ℓ)`, its four neighbours cost one `N × N` product each.
//! In 0-based torus indices the paper's nine boundary cases collapse to a
//! uniform rule per direction:
//!
//! ```text
//! down : G(k+1, ℓ) = s·b[k+1]·G(k, ℓ) + [k+1 = ℓ]·I      s = −1 iff k+1 wraps to 0
//! up   : G(k−1, ℓ) = s·b[k]⁻¹·(G(k, ℓ) − [k = ℓ]·I)      s = −1 iff k = 0 (wraps)
//! right: G(k, ℓ+1) = s·(G(k, ℓ) − [k = ℓ]·I)·b[ℓ+1]⁻¹    s = −1 iff ℓ+1 wraps to 0
//! left : G(k, ℓ−1) = s·G(k, ℓ)·b[ℓ] + [k = ℓ−1]·I        s = −1 iff ℓ = 0 (wraps)
//! ```
//!
//! (Each is derived from the explicit expression Eq. (3) via the
//! similarity `b[r]·W(r−1)⁻¹ = W(r)⁻¹·b[r]`; the identity corrections
//! appear exactly when the step crosses the block diagonal, the sign flips
//! exactly when the step crosses the torus seam. All four rules and all
//! their boundary cases are property-tested against the dense inverse.)
//!
//! Algorithm 2 then grows a selected inversion from the `b²` seeds that
//! BSOFI provides: each seed walks `⌈(c−1)/2⌉` rows up and `⌊(c−1)/2⌋`
//! rows down (columns pattern; left/right for the rows pattern). Splitting
//! the walk halves the length of the recurrence chains, halving the
//! accumulated floating-point error — the `ablation_wrap_split` bench
//! quantifies this against a one-directional walk. Seeds are independent;
//! the stage runs under `parallel_for`.
//!
//! Every step is one `N × N` GEMM, as in the paper's statement of the
//! relations with `B⁻¹`: each wrap call first builds the inverses
//! `b[k]⁻¹` its up- and right-steps apply ([`BlockInverses`], in
//! parallel over blocks), then the walks multiply by them. A Hubbard
//! matrix supplies `b[k]⁻¹ = diag(e^{−σνh})·e^{−tΔτK}` analytically in
//! `O(N²)`; a generic matrix pays one `getrf` + `getri` per block it
//! touches (see [`BlockPCyclic::block_inverse`]). The rows/columns wrap
//! therefore costs exactly [`wrap_gemm_flops`] `= 2(bL − b²)N³`, against
//! the paper's `3(bL − b²)N³` model ([`wrap_flops`]).

use fsi_dense::{gemm, Matrix};
use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::health::{self, FsiError, FsiResult, HealthEvent, Stage};
use fsi_runtime::metrics::Meter;
use fsi_runtime::{Par, Schedule};

use crate::cls::Clustered;
use crate::patterns::{Pattern, SelectedInverse, Selection};

/// Always-on meter of the wrapping stage: calls, GEMM flops and busy time
/// of every wrap entry point.
static METER: Meter = Meter::new("selinv.wrap");

/// The block inverses `b[k]⁻¹` one wrap call's up- and right-steps apply,
/// built once per call, in parallel over blocks.
pub struct BlockInverses {
    inv: Vec<Option<Matrix>>,
}

impl BlockInverses {
    /// Builds `b[k]⁻¹` for every `k` in `blocks` (each distinct block
    /// once), from [`BlockPCyclic::block_inverse`].
    ///
    /// # Errors
    /// [`HealthEvent::SingularPivot`] at [`Stage::Wrap`] if a block
    /// without analytic factors is exactly singular.
    pub fn new(
        par: Par<'_>,
        pc: &BlockPCyclic,
        blocks: impl IntoIterator<Item = usize>,
    ) -> FsiResult<Self> {
        let mut inv: Vec<Option<Matrix>> = (0..pc.l()).map(|_| None).collect();
        let mut wanted = vec![false; pc.l()];
        for k in blocks {
            wanted[k] = true;
        }
        let list: Vec<usize> = (0..pc.l()).filter(|&k| wanted[k]).collect();
        let built = fsi_runtime::parallel_map(par, list.len(), Schedule::Dynamic(1), |i| {
            pc.block_inverse(list[i])
        });
        for (k, m) in list.into_iter().zip(built) {
            inv[k] = Some(m.map_err(|e| e.at(Stage::Wrap))?);
        }
        Ok(BlockInverses { inv })
    }

    /// `b[k]⁻¹`.
    ///
    /// # Panics
    /// Panics if block `k` was not in the set this table was built for.
    pub fn get(&self, k: usize) -> &Matrix {
        self.inv[k]
            .as_ref()
            .unwrap_or_else(|| panic!("inverse of block {k} was not built"))
    }
}

/// `s·X·Y` into a fresh block: the one GEMM of a wrap step.
fn product(s: f64, x: &Matrix, y: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), y.cols());
    gemm(Par::Seq, s, x.as_ref(), y.as_ref(), 0.0, out.as_mut());
    out
}

/// `G − I`.
fn minus_identity(g: &Matrix) -> Matrix {
    let mut shifted = g.clone();
    shifted.add_diag(-1.0);
    shifted
}

/// One step down: from `G(k, ℓ)` to `G(k+1, ℓ)` (relation (5) with all
/// boundary cases).
pub fn step_down(pc: &BlockPCyclic, g: &Matrix, k: usize, l: usize) -> Matrix {
    let r = pc.down(k);
    let mut out = fsi_dense::mul(pc.block(r), g);
    if r == 0 {
        out.scale(-1.0);
    }
    if r == l {
        out.add_diag(1.0);
    }
    out
}

/// One step up: from `G(k, ℓ)` to `G(k−1, ℓ)` (relation (4)):
/// `s·b[k]⁻¹·(G − δI)`, one GEMM. `inv` must hold `b[k]⁻¹`.
pub fn step_up(inv: &BlockInverses, g: &Matrix, k: usize, l: usize) -> Matrix {
    let s = if k == 0 { -1.0 } else { 1.0 };
    if k == l {
        product(s, inv.get(k), &minus_identity(g))
    } else {
        product(s, inv.get(k), g)
    }
}

/// One step right: from `G(k, ℓ)` to `G(k, ℓ+1)` (relation (7)):
/// `s·(G − δI)·b[ℓ+1]⁻¹`, one GEMM. `inv` must hold `b[ℓ+1]⁻¹`.
pub fn step_right(
    pc: &BlockPCyclic,
    inv: &BlockInverses,
    g: &Matrix,
    k: usize,
    l: usize,
) -> Matrix {
    let cnew = pc.down(l);
    let s = if cnew == 0 { -1.0 } else { 1.0 };
    if k == l {
        product(s, &minus_identity(g), inv.get(cnew))
    } else {
        product(s, g, inv.get(cnew))
    }
}

/// One step left: from `G(k, ℓ)` to `G(k, ℓ−1)` (relation (6)).
pub fn step_left(pc: &BlockPCyclic, g: &Matrix, k: usize, l: usize) -> Matrix {
    let mut out = fsi_dense::mul(g, pc.block(l));
    if l == 0 {
        out.scale(-1.0);
    }
    if k == pc.up(l) {
        out.add_diag(1.0);
    }
    out
}

/// The wrapping process (paper Alg. 2, extended to all four patterns):
/// expands the BSOFI seed blocks `Ḡ(k₀, ℓ₀) = G(c·k₀+o, c·ℓ₀+o)` into the
/// requested selection.
///
/// `g_reduced` is the dense `bN × bN` output of BSOFI on the clustered
/// matrix. `par` parallelizes the inverse table over blocks and the walks
/// over seeds (each seed's walk is a serial chain; seeds are independent).
///
/// # Errors
/// A singular block ([`BlockInverses::new`]) or a bad wrapped block
/// ([`Stage::Wrap`] health probe).
pub fn wrap(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    g_reduced: &Matrix,
    selection: &Selection,
) -> FsiResult<SelectedInverse> {
    let seed = |k0: usize, l0: usize| Ok(clustered.reduced.dense_block(g_reduced, k0, l0));
    wrap_with(par, pc, clustered, &seed, selection)
}

/// [`wrap`] fed from a sparse [`SelectedInverse`] of seed blocks (the
/// output of [`crate::bsofi_selected`]) instead of the dense `Ḡ` — the
/// S1/S2 fast path, which never materializes the `bN × bN` inverse.
///
/// # Errors
/// As [`wrap`], plus [`FsiError::MissingBlock`] if a seed block the
/// pattern's walks start from is missing (diagonal seeds `Ḡ(k₀,k₀)` for
/// S1/S2; all `b²` blocks for S3/S4).
pub fn wrap_selected(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    seeds: &SelectedInverse,
    selection: &Selection,
) -> FsiResult<SelectedInverse> {
    let seed = |k0: usize, l0: usize| selected_seed(seeds, k0, l0);
    wrap_with(par, pc, clustered, &seed, selection)
}

/// Seed `Ḡ(k₀, ℓ₀)` from a sparse reduced inverse.
fn selected_seed(seeds: &SelectedInverse, k0: usize, l0: usize) -> FsiResult<Matrix> {
    seeds.get(k0, l0).cloned().ok_or(FsiError::MissingBlock {
        stage: Stage::Wrap,
        row: k0,
        col: l0,
    })
}

/// Wrap-stage boundary probe (plus injection hook under `fault-inject`),
/// fused into block production so it runs while the freshly wrapped block
/// is still cache-hot instead of as a cold post-pass over the selection.
#[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
fn probe_wrapped(k: usize, mut blk: Matrix) -> Result<Matrix, HealthEvent> {
    #[cfg(feature = "fault-inject")]
    health::inject::poison(Stage::Wrap, k, blk.as_mut_slice());
    health::check_block(Stage::Wrap, k, blk.as_slice())?;
    Ok(blk)
}

/// A produced block and its coordinates `(k, ℓ)`.
type Produced = (usize, usize, Matrix);

/// Walks `steps` steps from `seed` at `from`, pushing each produced block
/// onto `produced` after its health probe. Each step reads the block the
/// previous step wrote, so no block is copied.
fn walk(
    produced: &mut Vec<Produced>,
    seed: &Matrix,
    from: (usize, usize),
    steps: usize,
    mut step: impl FnMut(&Matrix, (usize, usize)) -> ((usize, usize), Matrix),
) -> Result<(), HealthEvent> {
    let mut at = from;
    for i in 0..steps {
        let prev = match produced.last() {
            Some(last) if i > 0 => &last.2,
            _ => seed,
        };
        let (next, blk) = step(prev, at);
        produced.push((next.0, next.1, probe_wrapped(next.0, blk)?));
        at = next;
    }
    Ok(())
}

/// The torus indices `k, k±1, k±2, …` (`+` for `forward`).
fn orbit(pc: &BlockPCyclic, k: usize, forward: bool) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(Some(k), move |&x| {
        Some(if forward { pc.down(x) } else { pc.up(x) })
    })
}

/// The seed source of the shared wrap engine: dense `Ḡ` or sparse
/// selected assembly.
type SeedFn<'a> = dyn Fn(usize, usize) -> FsiResult<Matrix> + Sync + 'a;

fn wrap_with(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    seed: &SeedFn<'_>,
    selection: &Selection,
) -> FsiResult<SelectedInverse> {
    assert_eq!(
        selection.c, clustered.c,
        "selection and clustering disagree on c"
    );
    assert_eq!(
        selection.q, clustered.q,
        "selection and clustering disagree on q"
    );
    let b = clustered.b();
    let c = clustered.c;
    // b² seeds walk (c−1) steps split between the two directions to
    // minimize chain length.
    let up_steps = c / 2; // ⌈(c−1)/2⌉ for the "before" direction
    let down_steps = (c - 1) - up_steps;
    let steps = match selection.pattern {
        Pattern::Diagonal => 0,
        Pattern::SubDiagonal => b,
        Pattern::Columns | Pattern::Rows => b * b * (c - 1),
    };
    let _meter =
        METER.start(steps as u64 * fsi_runtime::flops::counts::gemm(pc.n(), pc.n(), pc.n()));
    let seeds = || (0..b).map(|k0| clustered.to_original(k0));
    // The blocks whose inverses the up- and right-steps apply.
    let touched: Vec<usize> = match selection.pattern {
        Pattern::Diagonal => Vec::new(),
        Pattern::SubDiagonal => seeds().map(|k| pc.down(k)).collect(),
        Pattern::Rows => seeds()
            .flat_map(|l| orbit(pc, l, true).skip(1).take(down_steps))
            .collect(),
        Pattern::Columns => seeds()
            .flat_map(|k| orbit(pc, k, false).take(up_steps))
            .collect(),
    };
    let inv = BlockInverses::new(par, pc, touched)?;

    let mut out = SelectedInverse::new();
    match selection.pattern {
        Pattern::Diagonal => {
            // S1: the diagonal seeds ARE the selection — no wrapping.
            for k0 in 0..b {
                let k = clustered.to_original(k0);
                out.insert(k, k, probe_wrapped(k, seed(k0, k0)?)?);
            }
        }
        Pattern::SubDiagonal => {
            // S2: one right-step from each diagonal seed.
            let results = fsi_runtime::parallel_map(
                par,
                b,
                Schedule::Dynamic(1),
                |k0| -> FsiResult<Produced> {
                    let k = clustered.to_original(k0);
                    let gkk = seed(k0, k0)?;
                    let gk_next = probe_wrapped(k, step_right(pc, &inv, &gkk, k, k))?;
                    Ok((k, pc.down(k), gk_next))
                },
            );
            for r in results {
                let (k, l, blk) = r?;
                out.insert(k, l, blk);
            }
        }
        Pattern::Columns | Pattern::Rows => {
            let rows_pattern = selection.pattern == Pattern::Rows;
            let results = fsi_runtime::parallel_map(
                par,
                b * b,
                Schedule::Dynamic(1),
                |s| -> FsiResult<Vec<Produced>> {
                    let (k0, l0) = (s / b, s % b);
                    let k = clustered.to_original(k0);
                    let l = clustered.to_original(l0);
                    let mut produced = Vec::with_capacity(c);
                    let g_seed = seed(k0, l0)?;
                    if rows_pattern {
                        // Walk left then right along block row k.
                        walk(&mut produced, &g_seed, (k, l), up_steps, |g, (k, col)| {
                            ((k, pc.up(col)), step_left(pc, g, k, col))
                        })?;
                        walk(&mut produced, &g_seed, (k, l), down_steps, |g, (k, col)| {
                            ((k, pc.down(col)), step_right(pc, &inv, g, k, col))
                        })?;
                    } else {
                        // Walk up then down along block column ℓ.
                        walk(&mut produced, &g_seed, (k, l), up_steps, |g, (row, l)| {
                            ((pc.up(row), l), step_up(&inv, g, row, l))
                        })?;
                        walk(&mut produced, &g_seed, (k, l), down_steps, |g, (row, l)| {
                            ((pc.down(row), l), step_down(pc, g, row, l))
                        })?;
                    }
                    produced.push((k, l, probe_wrapped(k, g_seed)?));
                    Ok(produced)
                },
            );
            for chunk in results {
                for (k, l, blk) in chunk? {
                    out.insert(k, l, blk);
                }
            }
        }
    }
    Ok(out)
}

/// Wraps the diagonal seeds into *all* `L` diagonal blocks of `G` — the
/// equal-time Green's functions DQMC measurements need (paper §V-C
/// computes "all diagonal blocks, b block rows and b block columns").
///
/// Each seed walks the diagonal with composed down+right steps
/// (`G(k,k) → G(k+1,k) → G(k+1,k+1)`, both proven relations), producing
/// `c−1` new diagonal blocks per seed at two GEMMs (`4N³` flops) each.
///
/// # Errors
/// As [`wrap`].
pub fn wrap_all_diagonals(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    g_reduced: &Matrix,
) -> FsiResult<SelectedInverse> {
    let seed = |k0: usize, _: usize| Ok(clustered.reduced.dense_block(g_reduced, k0, k0));
    wrap_all_diagonals_with(par, pc, clustered, &seed)
}

/// [`wrap_all_diagonals`] fed from sparse diagonal seeds (the output of
/// [`crate::bsofi_selected`] with [`crate::SelectedPattern::Diagonals`]).
///
/// # Errors
/// As [`wrap`], plus [`FsiError::MissingBlock`] if a diagonal seed
/// `Ḡ(k₀,k₀)` is missing.
pub fn wrap_all_diagonals_selected(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    seeds: &SelectedInverse,
) -> FsiResult<SelectedInverse> {
    let seed = |k0: usize, l0: usize| selected_seed(seeds, k0, l0);
    wrap_all_diagonals_with(par, pc, clustered, &seed)
}

fn wrap_all_diagonals_with(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    seed: &SeedFn<'_>,
) -> FsiResult<SelectedInverse> {
    let b = clustered.b();
    let c = clustered.c;
    let gemms = 2 * b * (c - 1);
    let _meter =
        METER.start(gemms as u64 * fsi_runtime::flops::counts::gemm(pc.n(), pc.n(), pc.n()));
    let inv = BlockInverses::new(
        par,
        pc,
        (0..b).flat_map(|k0| {
            orbit(pc, clustered.to_original(k0), true)
                .skip(1)
                .take(c - 1)
        }),
    )?;
    let results = fsi_runtime::parallel_map(
        par,
        b,
        Schedule::Dynamic(1),
        |k0| -> FsiResult<Vec<Produced>> {
            let k = clustered.to_original(k0);
            let g_seed = probe_wrapped(k, seed(k0, k0)?)?;
            let mut produced = Vec::with_capacity(c);
            walk(&mut produced, &g_seed, (k, k), c - 1, |g, (row, _)| {
                let below = step_down(pc, g, row, row);
                let next = pc.down(row);
                ((next, next), step_right(pc, &inv, &below, next, row))
            })?;
            produced.push((k, k, g_seed));
            Ok(produced)
        },
    );
    let mut out = SelectedInverse::new();
    for chunk in results {
        for (k, l, blk) in chunk? {
            out.insert(k, l, blk);
        }
    }
    Ok(out)
}

/// Closed-form flop count of the wrapping stage for the columns/rows
/// patterns (paper §II-C): `3(bL − b²)N³`.
pub fn wrap_flops(n: usize, l: usize, c: usize) -> u64 {
    let b = (l / c) as u64;
    3 * (b * l as u64 - b * b) * (n as u64).pow(3)
}

/// Exact flop count of the columns/rows wrap as implemented:
/// `2(bL − b²)N³` — `b²` seeds × `(c−1)` steps × one `N × N` GEMM. The
/// paper's [`wrap_flops`] is 3/2 of it because it prices each step at
/// `3N³`, a product plus `N³` for applying `B⁻¹`; with the analytic
/// `B⁻¹` that application is the product itself.
pub fn wrap_gemm_flops(n: usize, l: usize, c: usize) -> u64 {
    let b = (l / c) as u64;
    2 * (b * l as u64 - b * b) * (n as u64).pow(3)
}

/// Exercises every relation against a dense reference — used by tests and
/// the validation binary. Returns the maximum relative error over all
/// steps from all `(k, ℓ)` source blocks.
///
/// # Panics
/// Panics if a block of `pc` is exactly singular.
pub fn max_relation_error(pc: &BlockPCyclic, g_dense: &Matrix) -> f64 {
    let l = pc.l();
    let inv = BlockInverses::new(Par::Seq, pc, 0..l).expect("nonsingular blocks");
    let mut worst = 0.0f64;
    for k in 0..l {
        for j in 0..l {
            let g = pc.dense_block(g_dense, k, j);
            let checks = [
                (pc.down(k), j, step_down(pc, &g, k, j)),
                (pc.up(k), j, step_up(&inv, &g, k, j)),
                (k, pc.down(j), step_right(pc, &inv, &g, k, j)),
                (k, pc.up(j), step_left(pc, &g, k, j)),
            ];
            for (kk, jj, got) in checks {
                let want = pc.dense_block(g_dense, kk, jj);
                worst = worst.max(fsi_dense::rel_error(&got, &want));
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cls::cls;
    use fsi_dense::rel_error;
    use fsi_pcyclic::random_pcyclic;
    use fsi_runtime::ThreadPool;

    #[test]
    fn all_four_relations_hold_everywhere() {
        // Exhaustive over every (k, ℓ) and direction, covering all nine
        // boundary cases of the paper (diagonal, sub-diagonal, first/last
        // row, first/last column, corners).
        let pc = random_pcyclic(3, 6, 21);
        let g = pc.reference_green(Par::Seq);
        let worst = max_relation_error(&pc, &g);
        assert!(worst < 1e-9, "worst relation error: {worst}");
    }

    #[test]
    fn relations_hold_for_hubbard_blocks() {
        use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, SquareLattice};
        use rand::SeedableRng;
        let builder =
            BlockBuilder::new(SquareLattice::new(2, 2), HubbardParams::paper_validation(5));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let field = HsField::random(5, 4, &mut rng);
        let pc = hubbard_pcyclic(&builder, &field, fsi_pcyclic::Spin::Down);
        let g = pc.reference_green(Par::Seq);
        assert!(max_relation_error(&pc, &g) < 1e-8);
    }

    fn check_selection(pattern: Pattern, n: usize, l: usize, c: usize, q: usize, tol: f64) {
        let pc = random_pcyclic(n, l, (l * 100 + c * 10 + q) as u64);
        let sel = Selection::new(pattern, c, q);
        let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let result = wrap(Par::Seq, &pc, &clustered, &g_red, &sel).expect("healthy");
        let want_coords = sel.coordinates(l);
        assert_eq!(result.len(), want_coords.len(), "{pattern:?} block count");
        let g_ref = pc.reference_green(Par::Seq);
        for (k, j) in want_coords {
            let got = result
                .get(k, j)
                .unwrap_or_else(|| panic!("missing ({k},{j})"));
            let want = pc.dense_block(&g_ref, k, j);
            let err = rel_error(got, &want);
            assert!(err < tol, "{pattern:?} block ({k},{j}) err {err}");
        }
    }

    #[test]
    fn diagonal_selection_matches_reference() {
        check_selection(Pattern::Diagonal, 3, 8, 4, 1, 1e-8);
        check_selection(Pattern::Diagonal, 2, 9, 3, 0, 1e-8);
    }

    #[test]
    fn subdiagonal_selection_matches_reference() {
        check_selection(Pattern::SubDiagonal, 3, 8, 4, 3, 1e-8);
        check_selection(Pattern::SubDiagonal, 2, 6, 2, 1, 1e-8);
    }

    #[test]
    fn column_selection_matches_reference() {
        check_selection(Pattern::Columns, 2, 8, 4, 0, 1e-7);
        check_selection(Pattern::Columns, 3, 6, 3, 2, 1e-7);
        check_selection(Pattern::Columns, 2, 12, 4, 2, 1e-7);
    }

    #[test]
    fn row_selection_matches_reference() {
        check_selection(Pattern::Rows, 2, 8, 4, 1, 1e-7);
        check_selection(Pattern::Rows, 3, 9, 3, 1, 1e-7);
    }

    #[test]
    fn all_shifts_work() {
        for q in 0..4 {
            check_selection(Pattern::Columns, 2, 8, 4, q, 1e-7);
        }
    }

    #[test]
    fn parallel_wrap_matches_sequential() {
        let pool = ThreadPool::new(4);
        let pc = random_pcyclic(3, 8, 30);
        let sel = Selection::new(Pattern::Columns, 4, 1);
        let clustered = cls(Par::Seq, Par::Seq, &pc, 4, 1);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let seq = wrap(Par::Seq, &pc, &clustered, &g_red, &sel).expect("healthy");
        let par = wrap(Par::Pool(&pool), &pc, &clustered, &g_red, &sel).expect("healthy");
        assert_eq!(seq.len(), par.len());
        // Each seed's walk is a fixed serial chain of the same GEMMs, so
        // the thread count cannot change a single bit.
        for (coord, blk) in seq.iter() {
            let other = par.get(coord.0, coord.1).expect("same coords");
            assert_eq!(blk.as_slice(), other.as_slice(), "{coord:?}");
        }
    }

    #[test]
    fn all_diagonals_match_reference() {
        for (l, c, q) in [(8usize, 4usize, 1usize), (9, 3, 0), (6, 6, 2)] {
            let pc = random_pcyclic(3, l, (l * 7 + c) as u64);
            let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
            let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
            let diags = wrap_all_diagonals(Par::Seq, &pc, &clustered, &g_red).expect("healthy");
            assert_eq!(diags.len(), l);
            let g_ref = pc.reference_green(Par::Seq);
            for k in 0..l {
                let got = diags.get(k, k).expect("diag block");
                let want = pc.dense_block(&g_ref, k, k);
                let err = rel_error(got, &want);
                assert!(err < 1e-7, "L={l} c={c} q={q} k={k}: {err}");
            }
        }
    }

    #[test]
    fn selected_seeds_match_dense_seeds() {
        use crate::patterns::SelectedPattern;
        let pc = random_pcyclic(3, 8, 31);
        let clustered = cls(Par::Seq, Par::Seq, &pc, 4, 1);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let seeds = crate::bsofi::bsofi_selected(
            Par::Seq,
            Par::Seq,
            &clustered.reduced,
            &SelectedPattern::Diagonals,
        )
        .expect("healthy");
        for pattern in [Pattern::Diagonal, Pattern::SubDiagonal] {
            let sel = Selection::new(pattern, 4, 1);
            let dense = wrap(Par::Seq, &pc, &clustered, &g_red, &sel).expect("healthy");
            let sparse = wrap_selected(Par::Seq, &pc, &clustered, &seeds, &sel).expect("healthy");
            assert_eq!(dense.len(), sparse.len(), "{pattern:?}");
            for (coord, blk) in dense.iter() {
                let other = sparse.get(coord.0, coord.1).expect("same coords");
                assert!(rel_error(blk, other) < 1e-12, "{pattern:?} {coord:?}");
            }
        }
        let dense_d = wrap_all_diagonals(Par::Seq, &pc, &clustered, &g_red).expect("healthy");
        let sparse_d =
            wrap_all_diagonals_selected(Par::Seq, &pc, &clustered, &seeds).expect("healthy");
        assert_eq!(dense_d.len(), sparse_d.len());
        for (coord, blk) in dense_d.iter() {
            let other = sparse_d.get(coord.0, coord.1).expect("same coords");
            assert!(rel_error(blk, other) < 1e-12, "diag {coord:?}");
        }
    }

    #[test]
    fn selected_wrap_reports_a_missing_seed() {
        let pc = random_pcyclic(2, 8, 32);
        let clustered = cls(Par::Seq, Par::Seq, &pc, 4, 0);
        let empty = SelectedInverse::new();
        let missing = FsiError::MissingBlock {
            stage: Stage::Wrap,
            row: 0,
            col: 0,
        };
        for pattern in Pattern::ALL {
            let sel = Selection::new(pattern, 4, 0);
            let err = wrap_selected(Par::Seq, &pc, &clustered, &empty, &sel).unwrap_err();
            assert_eq!(err, missing, "{pattern:?}");
        }
        let err = wrap_all_diagonals_selected(Par::Seq, &pc, &clustered, &empty).unwrap_err();
        assert_eq!(err, missing);
    }

    #[test]
    fn singular_block_is_a_wrap_health_error() {
        let (l, c, q) = (8, 4, 1);
        let pc = random_pcyclic(3, l, 33);
        let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        // The rows walks right-step from each seed column ℓ through
        // b[ℓ+1]⁻¹: zero the first column of one of those blocks.
        let hit = pc.down(clustered.to_original(0));
        let mut blocks = pc.blocks().to_vec();
        blocks[hit].view_mut(0, 0, 3, 1).fill(0.0);
        let singular = BlockPCyclic::new(blocks);
        let sel = Selection::new(Pattern::Rows, c, q);
        let err = wrap(Par::Seq, &singular, &clustered, &g_red, &sel).unwrap_err();
        assert_eq!(
            err,
            FsiError::Health(HealthEvent::SingularPivot {
                stage: Stage::Wrap,
                column: 0
            })
        );
    }

    /// Hubbard matrices from both kinetic backends: the wraps through the
    /// analytic `B⁻¹` match the same blocks rebuilt without their inverse
    /// factors (the `getri` source) to 1e-12, and the dense reference at
    /// the tolerances of the generic tests above.
    #[test]
    fn analytic_and_getri_inverses_agree() {
        use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, SquareLattice};
        use rand::SeedableRng;
        let (l, c, q) = (12, 4, 1);
        let lat = SquareLattice::new(3, 2);
        let params = HubbardParams::paper_validation(l);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(34);
        let field = HsField::random(l, 6, &mut rng);
        for builder in [
            BlockBuilder::new(lat.clone(), params.clone()),
            BlockBuilder::with_checkerboard(lat.clone(), params.clone()),
        ] {
            let analytic = hubbard_pcyclic(&builder, &field, fsi_pcyclic::Spin::Up);
            let getri = BlockPCyclic::new(analytic.blocks().to_vec());
            let g_ref = analytic.reference_green(Par::Seq);
            let clustered = cls(Par::Seq, Par::Seq, &analytic, c, q);
            let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
            let mut runs: Vec<(String, f64, SelectedInverse, SelectedInverse)> = Pattern::ALL
                .iter()
                .map(|&pattern| {
                    let sel = Selection::new(pattern, c, q);
                    let tol = match pattern {
                        Pattern::Diagonal | Pattern::SubDiagonal => 1e-8,
                        Pattern::Columns | Pattern::Rows => 1e-7,
                    };
                    let run = |pc| wrap(Par::Seq, pc, &clustered, &g_red, &sel).expect("healthy");
                    (format!("{pattern:?}"), tol, run(&analytic), run(&getri))
                })
                .collect();
            let run = |pc| wrap_all_diagonals(Par::Seq, pc, &clustered, &g_red).expect("healthy");
            runs.push(("all diagonals".into(), 1e-7, run(&analytic), run(&getri)));
            for (name, tol, fast, slow) in runs {
                assert_eq!(fast.len(), slow.len(), "{name}");
                for (&(k, j), blk) in fast.iter() {
                    let other = slow.get(k, j).expect("same coords");
                    let err = rel_error(blk, other);
                    assert!(err < 1e-12, "{name} ({k},{j}) analytic vs getri {err}");
                    let err = rel_error(blk, &analytic.dense_block(&g_ref, k, j));
                    assert!(err < tol, "{name} ({k},{j}) vs reference {err}");
                }
            }
        }
    }

    #[test]
    fn hubbard_rows_wrap_runs_on_gemm_alone() {
        use fsi_runtime::trace::{self, RunReport};
        use fsi_runtime::TraceLevel;
        let _lock = trace::test_lock();
        let (n, l, c, q) = (4, 16, 4, 2);
        let pc = fsi_pcyclic::hubbard_pcyclic(
            &fsi_pcyclic::BlockBuilder::new(
                fsi_pcyclic::SquareLattice::square(2),
                fsi_pcyclic::HubbardParams::paper_validation(l),
            ),
            &fsi_pcyclic::HsField::ones(l, n),
            fsi_pcyclic::Spin::Up,
        );
        let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let sel = Selection::new(Pattern::Rows, c, q);
        trace::set_level(TraceLevel::Kernels);
        trace::clear();
        let span = trace::span("wrap.kernel_probe");
        wrap(Par::Seq, &pc, &clustered, &g_red, &sel).expect("healthy");
        drop(span);
        let report = RunReport::capture("wrap-kernels");
        trace::set_level(TraceLevel::Off);
        trace::clear();
        // Concurrent tests may trace their own kernels: look only at the
        // children of this test's span.
        let probe = report
            .spans
            .iter()
            .find(|r| r.name == "wrap.kernel_probe")
            .expect("probe span recorded");
        let kernels: Vec<&str> = report
            .spans
            .iter()
            .filter(|r| r.parent == Some(probe.id))
            .map(|r| r.name.as_str())
            .collect();
        let b = l / c;
        assert_eq!(kernels, vec!["gemm"; b * b * (c - 1)]);
        assert_eq!(probe.flops, wrap_gemm_flops(n, l, c));
    }

    #[test]
    fn every_entry_point_charges_the_wrap_meter() {
        use crate::patterns::SelectedPattern;
        let (n, l, c, q) = (3, 8, 4, 1);
        let pc = random_pcyclic(n, l, 35);
        let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let seeds = crate::bsofi::bsofi_selected(
            Par::Seq,
            Par::Seq,
            &clustered.reduced,
            &SelectedPattern::Diagonals,
        )
        .expect("healthy");
        let before = fsi_runtime::metrics::snapshot();
        let rows = Selection::new(Pattern::Rows, c, q);
        let sub = Selection::new(Pattern::SubDiagonal, c, q);
        wrap(Par::Seq, &pc, &clustered, &g_red, &rows).expect("healthy");
        wrap_selected(Par::Seq, &pc, &clustered, &seeds, &sub).expect("healthy");
        wrap_all_diagonals(Par::Seq, &pc, &clustered, &g_red).expect("healthy");
        wrap_all_diagonals_selected(Par::Seq, &pc, &clustered, &seeds).expect("healthy");
        let delta = fsi_runtime::metrics::snapshot().delta_since(&before);
        // Other tests may wrap concurrently, so these are lower bounds.
        let b = (l / c) as u64;
        let gemm = fsi_runtime::flops::counts::gemm(n, n, n);
        let want = wrap_gemm_flops(n, l, c) + b * gemm + 2 * 2 * b * (c as u64 - 1) * gemm;
        assert!(delta.counter("selinv.wrap.calls") >= 4);
        assert!(delta.counter("selinv.wrap.flops") >= want);
    }

    #[test]
    fn wrap_flop_formula() {
        // 3(bL − b²)N³ for (N, L, c) = (10, 100, 10): b = 10.
        assert_eq!(wrap_flops(10, 100, 10), 3 * (1000 - 100) * 1000);
        assert_eq!(
            2 * wrap_flops(10, 100, 10),
            3 * wrap_gemm_flops(10, 100, 10)
        );
    }
}
