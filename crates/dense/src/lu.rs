//! LU factorization with partial pivoting (GETRF), solves (GETRS), and
//! explicit inversion (GETRI).
//!
//! The factorization is the right-looking blocked algorithm: factor an
//! `m × NB` panel with the unblocked kernel, apply its row interchanges to
//! the rest of the matrix, triangular-solve the block row, and GEMM-update
//! the trailing submatrix — so the bulk of the flops flow through the
//! level-3 kernel, as in LAPACK.
//!
//! In the reproduction these routines play two roles: they are the
//! "Intel MKL DGETRF/DGETRI" stand-in for the *full inversion baseline* the
//! paper validates against (§V-A), and they form the explicit `B_k⁻¹` of a
//! generic (non-Hubbard) block that the wrapping stage's relations (4) and
//! (7) multiply by — Hubbard blocks have an analytic inverse and never
//! reach this module there.

use crate::error::{DenseError, Result};
use crate::gemm::gemm;
use crate::matrix::{MatMut, Matrix};
use crate::tri;
use fsi_runtime::{flops, Par};

/// Panel width of the blocked factorization.
const NB: usize = 64;

/// An LU factorization `P·A = L·U` with partial pivoting.
///
/// `lu` packs the unit-lower `L` (below the diagonal) and `U` (upper
/// triangle); `piv[k]` is the row swapped with row `k` at step `k`
/// (0-based LAPACK `ipiv` convention).
#[derive(Debug)]
pub struct LuFactor {
    lu: Matrix,
    piv: Vec<usize>,
    /// Sign of the permutation (+1 or −1), tracked during pivoting.
    perm_sign: f64,
}

/// Factors a square matrix, consuming it.
///
/// Returns [`DenseError::Singular`] if an exactly zero pivot is found; the
/// factorization up to that column is still mathematically valid but the
/// factor object is not returned, because every downstream use in this
/// workspace requires a nonsingular matrix.
pub fn getrf(a: Matrix) -> Result<LuFactor> {
    getrf_par(Par::Seq, a)
}

/// Factors a square matrix using the given parallelism for the trailing
/// GEMM updates.
pub fn getrf_par(par: Par<'_>, mut a: Matrix) -> Result<LuFactor> {
    assert!(a.is_square(), "getrf expects a square matrix");
    let _kernel = fsi_runtime::trace::kernel_span("getrf");
    let n = a.rows();
    let mut piv = vec![0usize; n];
    let mut perm_sign = 1.0;
    // Flops of the panel work are counted by the leaf kernels below via the
    // analytic total; GEMM/TRSM count themselves. To keep totals equal to
    // the textbook 2n³/3 we count the panel part here as the difference.
    let mut j = 0;
    while j < n {
        let nb = NB.min(n - j);
        // Factor the panel A[j.., j..j+nb] (unblocked, with pivot search
        // over the full remaining column height).
        factor_panel(&mut a, j, nb, &mut piv[j..j + nb], &mut perm_sign)?;
        // Apply the panel's interchanges to the columns outside the panel.
        for (k, &p) in (j..j + nb).zip(piv[j..j + nb].iter()) {
            if p != k {
                swap_rows_outside(&mut a, k, p, j, nb);
            }
        }
        if j + nb < n {
            // Block row: U[j..j+nb, j+nb..] := L[panel]⁻¹ · A[j..j+nb, j+nb..]
            let (left, right) = a.as_mut().split_at_col(j + nb);
            let lpanel = left.as_ref().submatrix(j, j, nb, nb);
            let (_, mut urow) = right.split_at_row(j);
            let (mut urow, trailing_rows) = urow.rb_mut().split_at_row(nb);
            tri::solve_unit_lower(lpanel, urow.rb_mut());
            // Trailing update: A[j+nb.., j+nb..] −= L[j+nb.., j..j+nb]·U_row
            let l21 = left.as_ref().submatrix(j + nb, j, n - j - nb, nb);
            gemm(par, -1.0, l21, urow.as_ref(), 1.0, trailing_rows);
        }
        j += nb;
    }
    Ok(LuFactor {
        lu: a,
        piv,
        perm_sign,
    })
}

/// Unblocked panel factorization of `A[j.., j..j+nb]` with partial
/// pivoting; pivot rows are swapped across the *panel* columns only (the
/// caller swaps the rest).
fn factor_panel(
    a: &mut Matrix,
    j: usize,
    nb: usize,
    piv: &mut [usize],
    perm_sign: &mut f64,
) -> Result<()> {
    let n = a.rows();
    for k in 0..nb {
        let col = j + k;
        // Pivot search in A[col.., col].
        let mut p = col;
        let mut pmax = a[(col, col)].abs();
        for i in col + 1..n {
            let v = a[(i, col)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        piv[k] = p;
        if pmax == 0.0 {
            return Err(DenseError::Singular { column: col });
        }
        if p != col {
            *perm_sign = -*perm_sign;
            // Swap rows col and p inside the panel columns.
            for c in j..j + nb {
                let tmp = a[(col, c)];
                a[(col, c)] = a[(p, c)];
                a[(p, c)] = tmp;
            }
        }
        // Scale multipliers and rank-1 update of the remaining panel.
        let pivot = a[(col, col)];
        let inv = 1.0 / pivot;
        for i in col + 1..n {
            a[(i, col)] *= inv;
        }
        let remaining = (n - col - 1) as u64;
        let width = (j + nb - col - 1) as u64;
        flops::add_flops(remaining + 2 * remaining * width);
        for c in col + 1..j + nb {
            let u = a[(col, c)];
            if u != 0.0 {
                for i in col + 1..n {
                    let l = a[(i, col)];
                    a[(i, c)] -= l * u;
                }
            }
        }
    }
    Ok(())
}

/// Swaps rows `k` and `p` in all columns except the panel `[j, j+nb)`.
fn swap_rows_outside(a: &mut Matrix, k: usize, p: usize, j: usize, nb: usize) {
    let n = a.cols();
    for c in (0..j).chain(j + nb..n) {
        let tmp = a[(k, c)];
        a[(k, c)] = a[(p, c)];
        a[(p, c)] = tmp;
    }
}

impl LuFactor {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// The packed LU factors (for inspection/testing).
    pub fn packed(&self) -> &Matrix {
        &self.lu
    }

    /// The pivot vector (`piv[k]` = row swapped with `k` at step `k`).
    pub fn pivots(&self) -> &[usize] {
        &self.piv
    }

    /// Applies the factorization to solve `A·X = B` in place.
    pub fn solve_in_place(&self, mut b: MatMut<'_>) {
        assert_eq!(b.rows(), self.n(), "solve: rhs row count mismatch");
        // x = U⁻¹ L⁻¹ P b
        for k in 0..self.n() {
            let p = self.piv[k];
            if p != k {
                for c in 0..b.cols() {
                    let col = b.col_mut(c);
                    col.swap(k, p);
                }
            }
        }
        tri::solve_unit_lower(self.lu.as_ref(), b.rb_mut());
        tri::solve_upper(self.lu.as_ref(), b);
    }

    /// Solves `A·X = B`, returning `X`.
    pub fn solve(&self, b: &Matrix) -> Matrix {
        let mut x = b.clone();
        self.solve_in_place(x.as_mut());
        x
    }

    /// Applies the factorization to solve `Aᵀ·X = B` in place.
    ///
    /// With `P·A = L·U`: `Aᵀ x = b  ⇔  Uᵀ z = b, Lᵀ w = z, x = Pᵀ w`.
    pub fn solve_transpose_in_place(&self, mut b: MatMut<'_>) {
        assert_eq!(b.rows(), self.n(), "solve_t: rhs row count mismatch");
        tri::solve_upper_trans(self.lu.as_ref(), b.rb_mut());
        tri::solve_unit_lower_trans(self.lu.as_ref(), b.rb_mut());
        for k in (0..self.n()).rev() {
            let p = self.piv[k];
            if p != k {
                for c in 0..b.cols() {
                    let col = b.col_mut(c);
                    col.swap(k, p);
                }
            }
        }
    }

    /// Explicit inverse `A⁻¹` (GETRI-style, via solves against the
    /// identity).
    pub fn inverse(&self) -> Matrix {
        let _kernel = fsi_runtime::trace::kernel_span("getri");
        flops::add_flops(flops::counts::getri(self.n()));
        let mut x = Matrix::identity(self.n());
        self.solve_in_place(x.as_mut());
        x
    }

    /// Determinant from the LU factors.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.n() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// `(sign, log|det|)` — robust for the large matrices in the Metropolis
    /// ratio tests where `det` itself would over/underflow.
    pub fn sign_log_det(&self) -> (f64, f64) {
        let mut sign = self.perm_sign;
        let mut logdet = 0.0;
        for i in 0..self.n() {
            let d = self.lu[(i, i)];
            if d < 0.0 {
                sign = -sign;
            }
            logdet += d.abs().ln();
        }
        (sign, logdet)
    }
}

/// Convenience: solves `A·X = B` for square `A`.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    Ok(getrf(a.clone())?.solve(b))
}

/// Convenience: explicit inverse of a square matrix.
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    Ok(getrf(a.clone())?.inverse())
}

/// Convenience: explicit inverse with parallel trailing updates.
pub fn inverse_par(par: Par<'_>, a: &Matrix) -> Result<Matrix> {
    Ok(getrf_par(par, a.clone())?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{mul, test_matrix};
    use fsi_runtime::ThreadPool;

    /// Random diagonally-dominated matrix (guaranteed nonsingular).
    fn well_conditioned(n: usize, seed: u64) -> Matrix {
        let mut a = test_matrix(n, n, seed);
        a.add_diag(n as f64 * 0.5);
        a
    }

    #[test]
    fn reconstruction_pa_eq_lu() {
        for n in [1usize, 2, 5, 33, 70, 129] {
            let a = well_conditioned(n, n as u64);
            let f = getrf(a.clone()).expect("nonsingular");
            // Build P·A by applying pivots to a copy of A.
            let mut pa = a.clone();
            for k in 0..n {
                let p = f.pivots()[k];
                if p != k {
                    for c in 0..n {
                        let tmp = pa[(k, c)];
                        pa[(k, c)] = pa[(p, c)];
                        pa[(p, c)] = tmp;
                    }
                }
            }
            let lu = f.packed();
            let l = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    1.0
                } else if i > j {
                    lu[(i, j)]
                } else {
                    0.0
                }
            });
            let u = Matrix::from_fn(n, n, |i, j| if i <= j { lu[(i, j)] } else { 0.0 });
            let mut resid = mul(&l, &u);
            resid.sub_assign(&pa);
            assert!(
                resid.max_abs() < 1e-11 * (n as f64),
                "n={n}: |LU − PA| = {}",
                resid.max_abs()
            );
        }
    }

    #[test]
    fn solve_gives_small_residual() {
        let n = 80;
        let a = well_conditioned(n, 3);
        let b = test_matrix(n, 7, 4);
        let x = solve(&a, &b).unwrap();
        let mut r = mul(&a, &x);
        r.sub_assign(&b);
        assert!(r.max_abs() < 1e-10);
    }

    #[test]
    fn transpose_solve_gives_small_residual() {
        let n = 40;
        let a = well_conditioned(n, 5);
        let b = test_matrix(n, 3, 6);
        let f = getrf(a.clone()).unwrap();
        let mut x = b.clone();
        f.solve_transpose_in_place(x.as_mut());
        let mut r = mul(&a.transpose(), &x);
        r.sub_assign(&b);
        assert!(r.max_abs() < 1e-10);
    }

    #[test]
    fn inverse_roundtrip() {
        let n = 50;
        let a = well_conditioned(n, 9);
        let ainv = inverse(&a).unwrap();
        let mut prod = mul(&a, &ainv);
        prod.add_diag(-1.0);
        assert!(prod.max_abs() < 1e-10, "|A·A⁻¹ − I| = {}", prod.max_abs());
    }

    #[test]
    fn parallel_factorization_matches_sequential() {
        let pool = ThreadPool::new(4);
        let n = 160;
        let a = well_conditioned(n, 10);
        let f_seq = getrf(a.clone()).unwrap();
        let f_par = getrf_par(Par::Pool(&pool), a).unwrap();
        let mut d = f_seq.packed().clone();
        d.sub_assign(f_par.packed());
        assert_eq!(f_seq.pivots(), f_par.pivots());
        assert!(d.max_abs() < 1e-12);
    }

    #[test]
    fn determinant_matches_known_cases() {
        // 2×2 with known determinant.
        let a = Matrix::from_col_major(2, 2, vec![3.0, 1.0, 2.0, 4.0]); // [[3,2],[1,4]]
        let f = getrf(a).unwrap();
        assert!((f.det() - 10.0).abs() < 1e-12);
        let (sign, logdet) = f.sign_log_det();
        assert_eq!(sign, 1.0);
        assert!((logdet - 10.0f64.ln()).abs() < 1e-12);
        // Identity has det 1 regardless of size.
        let f = getrf(Matrix::identity(17)).unwrap();
        assert!((f.det() - 1.0).abs() < 1e-12);
        // A permutation flips the sign.
        let mut p = Matrix::identity(4);
        p[(0, 0)] = 0.0;
        p[(1, 1)] = 0.0;
        p[(0, 1)] = 1.0;
        p[(1, 0)] = 1.0;
        let f = getrf(p).unwrap();
        assert!((f.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = Matrix::identity(5);
        a[(2, 2)] = 0.0;
        match getrf(a) {
            Err(DenseError::Singular { column }) => assert_eq!(column, 2),
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // [[0, 1], [1, 0]] is perfectly conditioned but needs a pivot swap.
        let a = Matrix::from_col_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = getrf(a.clone()).unwrap();
        let x = f.solve(&Matrix::from_col_major(2, 1, vec![2.0, 3.0]));
        assert!((x[(0, 0)] - 3.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-14);
        assert!((f.det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn flop_accounting_is_close_to_textbook() {
        use fsi_runtime::trace;
        let n = 96;
        let a = well_conditioned(n, 11);
        let _lock = trace::test_lock();
        trace::set_level(fsi_runtime::TraceLevel::Stages);
        let span = trace::span("getrf-test");
        let _ = getrf(a).unwrap();
        let stats = span.finish();
        trace::set_level(fsi_runtime::TraceLevel::Off);
        trace::clear();
        let counted = stats.flops as f64;
        let textbook = flops::counts::getrf(n, n) as f64;
        let ratio = counted / textbook;
        assert!(
            (0.7..1.3).contains(&ratio),
            "counted {counted} vs textbook {textbook} (ratio {ratio})"
        );
    }
}
