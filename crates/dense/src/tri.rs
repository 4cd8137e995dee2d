//! Triangular kernels: solves (TRSM) and triangular inversion (TRTRI).
//!
//! Only the variants the factorizations need are implemented, each as a
//! clearly named function instead of a flag soup:
//!
//! * forward/back substitution against `L` (unit lower) and `U` (upper),
//!   plus their transposed forms — the building blocks of `getrs`;
//! * in-place inversion of an upper triangle — used by BSOFI's structured
//!   `R⁻¹` and by `getri`.
//!
//! All kernels access matrix columns contiguously (column-major layout), so
//! the inner loops are axpy/dot streams.

use crate::blas::{axpy, dot};
use crate::gemm::{gemm_op, gemm_op_uncounted, Op};
use crate::matrix::{MatMut, MatRef};
use fsi_runtime::{flops, workspace, Par};

/// Diagonal-block size of the blocked substitutions: each `TB × TB`
/// triangle is solved with the scalar kernel, and the off-diagonal
/// updates flow through GEMM (level-3).
const TB: usize = 48;

/// Solves `L·X = B` in place (`B := L⁻¹B`) with `L` unit lower triangular.
///
/// # Panics
/// Panics unless `L` is square with side `B.rows()`.
pub fn solve_unit_lower(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = check_square(l, b.rows());
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    let nrhs = b.cols();
    let mut j0 = 0;
    while j0 < n {
        let tb = TB.min(n - j0);
        solve_unit_lower_unblocked(
            l.submatrix(j0, j0, tb, tb),
            b.rb_mut().submatrix(j0, 0, tb, nrhs),
        );
        if j0 + tb < n {
            // B[j0+tb.., :] −= L[j0+tb.., j0..j0+tb] · X[j0..j0+tb, :]
            let lower = l.submatrix(j0 + tb, j0, n - j0 - tb, tb);
            let (top, rest) = b.rb_mut().split_at_row(j0 + tb);
            let solved = top.as_ref().submatrix(j0, 0, tb, nrhs);
            gemm_raw(lower, solved, rest);
        }
        j0 += tb;
    }
}

fn solve_unit_lower_unblocked(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = l.rows();
    flops::add_flops(flops::counts::trsm(n, b.cols()));
    for c in 0..b.cols() {
        let col = b.col_mut(c);
        for j in 0..n {
            let bj = col[j];
            if bj != 0.0 {
                axpy(-bj, &l.col(j)[j + 1..], &mut col[j + 1..]);
            }
        }
    }
}

/// Solves `U·X = B` in place (`B := U⁻¹B`) with `U` upper triangular
/// (non-unit diagonal).
///
/// # Panics
/// Panics on shape mismatch or an exactly zero diagonal entry.
pub fn solve_upper(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = check_square(u, b.rows());
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    let nrhs = b.cols();
    // Walk the diagonal blocks bottom-up.
    let mut j1 = n;
    while j1 > 0 {
        let tb = TB.min(j1);
        let j0 = j1 - tb;
        solve_upper_unblocked(
            u.submatrix(j0, j0, tb, tb),
            b.rb_mut().submatrix(j0, 0, tb, nrhs),
        );
        if j0 > 0 {
            // B[..j0, :] −= U[..j0, j0..j1] · X[j0..j1, :]
            let upper = u.submatrix(0, j0, j0, tb);
            let (rest, bottom) = b.rb_mut().split_at_row(j0);
            let solved = bottom.as_ref().submatrix(0, 0, tb, nrhs);
            gemm_raw(upper, solved, rest);
        }
        j1 = j0;
    }
}

fn solve_upper_unblocked(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = u.rows();
    flops::add_flops(flops::counts::trsm(n, b.cols()));
    for c in 0..b.cols() {
        let col = b.col_mut(c);
        for j in (0..n).rev() {
            let ujj = u.at(j, j);
            assert!(ujj != 0.0, "singular upper triangle at {j}");
            let bj = col[j] / ujj;
            col[j] = bj;
            if bj != 0.0 {
                axpy(-bj, &u.col(j)[..j], &mut col[..j]);
            }
        }
    }
}

/// Solves `Lᵀ·X = B` in place with `L` unit lower triangular.
pub fn solve_unit_lower_trans(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = check_square(l, b.rows());
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    let nrhs = b.cols();
    // Lᵀ is upper triangular: walk the diagonal blocks bottom-up; the
    // off-diagonal update uses (Lᵀ)[..j0, j0..j1] = L[j0..j1, ..j0]ᵀ.
    let mut j1 = n;
    while j1 > 0 {
        let tb = TB.min(j1);
        let j0 = j1 - tb;
        solve_unit_lower_trans_unblocked(
            l.submatrix(j0, j0, tb, tb),
            b.rb_mut().submatrix(j0, 0, tb, nrhs),
        );
        if j0 > 0 {
            let left = l.submatrix(j0, 0, tb, j0);
            let (rest, bottom) = b.rb_mut().split_at_row(j0);
            let solved = bottom.as_ref().submatrix(0, 0, tb, nrhs);
            gemm_op(
                Par::Seq,
                -1.0,
                Op::Trans,
                left,
                Op::NoTrans,
                solved,
                1.0,
                rest,
            );
        }
        j1 = j0;
    }
}

fn solve_unit_lower_trans_unblocked(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = l.rows();
    flops::add_flops(flops::counts::trsm(n, b.cols()));
    for c in 0..b.cols() {
        let col = b.col_mut(c);
        for j in (0..n).rev() {
            col[j] -= dot(&l.col(j)[j + 1..], &col[j + 1..]);
        }
    }
}

/// Solves `Uᵀ·X = B` in place with `U` upper triangular (non-unit).
///
/// # Panics
/// Panics on shape mismatch or an exactly zero diagonal entry.
pub fn solve_upper_trans(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = check_square(u, b.rows());
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    let nrhs = b.cols();
    // Uᵀ is lower triangular: walk top-down; the off-diagonal update uses
    // (Uᵀ)[j1.., j0..j1] = U[j0..j1, j1..]ᵀ.
    let mut j0 = 0;
    while j0 < n {
        let tb = TB.min(n - j0);
        solve_upper_trans_unblocked(
            u.submatrix(j0, j0, tb, tb),
            b.rb_mut().submatrix(j0, 0, tb, nrhs),
        );
        if j0 + tb < n {
            let right = u.submatrix(j0, j0 + tb, tb, n - j0 - tb);
            let (top, rest) = b.rb_mut().split_at_row(j0 + tb);
            let solved = top.as_ref().submatrix(j0, 0, tb, nrhs);
            gemm_op(
                Par::Seq,
                -1.0,
                Op::Trans,
                right,
                Op::NoTrans,
                solved,
                1.0,
                rest,
            );
        }
        j0 += tb;
    }
}

fn solve_upper_trans_unblocked(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = u.rows();
    flops::add_flops(flops::counts::trsm(n, b.cols()));
    for c in 0..b.cols() {
        let col = b.col_mut(c);
        for j in 0..n {
            let ujj = u.at(j, j);
            assert!(ujj != 0.0, "singular upper triangle at {j}");
            col[j] = (col[j] - dot(&u.col(j)[..j], &col[..j])) / ujj;
        }
    }
}

/// Off-diagonal substitution update `C −= A·B` (GEMM accounts for its own
/// flops; together with the per-triangle charges the total matches the
/// textbook n²·nrhs).
fn gemm_raw(a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    crate::gemm::gemm(Par::Seq, -1.0, a, b, 1.0, c);
}

/// In-place inversion of an upper triangle (entries below the diagonal are
/// ignored and left untouched).
///
/// Blocked column-sweep TRTRI: each `TB`-wide column block is computed as
/// `X[0..j0, jb] = −X_lead · U[0..j0, jb] · X_diag`, where `X_lead` is the
/// already-inverted leading triangle and `X_diag` the freshly inverted
/// diagonal block. The leading product is assembled block-row by block-row
/// (small dense trmm per diagonal block plus a GEMM accumulate), so almost
/// all of the O(n³/3) work flows through the packed GEMM engine. Internal
/// products use the uncounted entry point — the analytic `trtri` total is
/// charged once up front, exactly as before.
///
/// # Panics
/// Panics on an exactly zero diagonal entry.
pub fn invert_upper(mut u: MatMut<'_>) {
    let n = u.rows();
    assert_eq!(u.cols(), n, "invert_upper needs a square matrix");
    let _kernel = fsi_runtime::trace::kernel_span("trtri");
    flops::add_flops(flops::counts::trtri(n) * 2);
    if n <= TB {
        invert_upper_unblocked(u);
        return;
    }
    // W holds X_lead · U[0..j0, jb] (≤ n × TB); D is a dense, zero-lower
    // copy of the inverted diagonal block.
    workspace::with_scratch2(n * TB, TB * TB, |wbuf, dbuf| {
        let mut j0 = 0;
        while j0 < n {
            let tb = TB.min(n - j0);
            if j0 == 0 {
                invert_upper_unblocked(u.rb_mut().submatrix(0, 0, tb, tb));
                j0 += tb;
                continue;
            }
            // W[0..j0, :] := X[0..j0, 0..j0] · U[0..j0, jb], built one
            // block row at a time: the diagonal block of X is triangular
            // (trmm), the part right of it is dense (gemm).
            let mut w = MatMut::from_slice(&mut wbuf[..j0 * tb], j0, tb, j0);
            let mut i0 = 0;
            while i0 < j0 {
                let ib = TB.min(j0 - i0);
                trmm_upper_left(
                    u.as_ref().submatrix(i0, i0, ib, ib),
                    u.as_ref().submatrix(i0, j0, ib, tb),
                    w.rb_mut().submatrix(i0, 0, ib, tb),
                );
                if i0 + ib < j0 {
                    gemm_op_uncounted(
                        Par::Seq,
                        1.0,
                        Op::NoTrans,
                        u.as_ref().submatrix(i0, i0 + ib, ib, j0 - i0 - ib),
                        Op::NoTrans,
                        u.as_ref().submatrix(i0 + ib, j0, j0 - i0 - ib, tb),
                        1.0,
                        w.rb_mut().submatrix(i0, 0, ib, tb),
                    );
                }
                i0 += ib;
            }
            invert_upper_unblocked(u.rb_mut().submatrix(j0, j0, tb, tb));
            let mut d = MatMut::from_slice(&mut dbuf[..tb * tb], tb, tb, tb);
            for jj in 0..tb {
                for ii in 0..tb {
                    let v = if ii <= jj {
                        u.at(j0 + ii, j0 + jj)
                    } else {
                        0.0
                    };
                    d.set(ii, jj, v);
                }
            }
            // X[0..j0, jb] := −W · X_diag.
            gemm_op_uncounted(
                Par::Seq,
                -1.0,
                Op::NoTrans,
                w.as_ref(),
                Op::NoTrans,
                d.as_ref(),
                0.0,
                u.rb_mut().submatrix(0, j0, j0, tb),
            );
            j0 += tb;
        }
    });
}

/// Scalar column-oriented TRTRI on a diagonal block (flops are charged by
/// the blocked caller).
fn invert_upper_unblocked(mut u: MatMut<'_>) {
    let n = u.rows();
    // For each column j compute X[0..j, j] from the already-inverted
    // leading triangle.
    for j in 0..n {
        let ujj = u.at(j, j);
        assert!(ujj != 0.0, "singular upper triangle at {j}");
        let xjj = 1.0 / ujj;
        u.set(j, j, xjj);
        if j == 0 {
            continue;
        }
        // v := U[0..j, j] (original column), X[0..j, j] := −X[0..j,0..j]·v·xjj
        let v: Vec<f64> = (0..j).map(|i| u.at(i, j)).collect();
        for i in 0..j {
            // X[i, j] = −xjj · Σ_{p=i..j-1} X[i, p] v[p]
            let mut s = 0.0;
            for (p, vp) in v.iter().enumerate().skip(i) {
                s += u.at(i, p) * vp;
            }
            u.set(i, j, -xjj * s);
        }
    }
}

/// `out := triu(T)·B` for one inverted `≤ TB` diagonal block (dense
/// small-operand trmm; flops are part of the caller's analytic charge).
fn trmm_upper_left(t: MatRef<'_>, b: MatRef<'_>, mut out: MatMut<'_>) {
    let nb = t.rows();
    for c in 0..b.cols() {
        let bcol = b.col(c);
        let ocol = out.col_mut(c);
        for (i, oi) in ocol.iter_mut().enumerate() {
            let mut s = 0.0;
            for p in i..nb {
                s += t.at(i, p) * bcol[p];
            }
            *oi = s;
        }
    }
}

fn check_square(t: MatRef<'_>, rows: usize) -> usize {
    assert_eq!(t.rows(), t.cols(), "triangular factor must be square");
    assert_eq!(t.rows(), rows, "triangular side mismatch");
    t.rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{mul, test_matrix};
    use crate::matrix::Matrix;

    /// A well-conditioned random lower unit triangle.
    fn unit_lower(n: usize, seed: u64) -> Matrix {
        let r = test_matrix(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                0.3 * r[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// A well-conditioned random upper triangle.
    fn upper(n: usize, seed: u64) -> Matrix {
        let r = test_matrix(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.5 + r[(i, j)].abs()
            } else if i < j {
                0.3 * r[(i, j)]
            } else {
                0.0
            }
        })
    }

    fn residual(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
        let mut r = mul(a, x);
        r.sub_assign(b);
        r.max_abs()
    }

    #[test]
    fn unit_lower_solve() {
        let l = unit_lower(20, 1);
        let b = test_matrix(20, 5, 2);
        let mut x = b.clone();
        solve_unit_lower(l.as_ref(), x.as_mut());
        assert!(residual(&l, &x, &b) < 1e-12);
    }

    #[test]
    fn upper_solve() {
        let u = upper(20, 3);
        let b = test_matrix(20, 5, 4);
        let mut x = b.clone();
        solve_upper(u.as_ref(), x.as_mut());
        assert!(residual(&u, &x, &b) < 1e-12);
    }

    #[test]
    fn unit_lower_trans_solve() {
        let l = unit_lower(15, 5);
        let b = test_matrix(15, 3, 6);
        let mut x = b.clone();
        solve_unit_lower_trans(l.as_ref(), x.as_mut());
        assert!(residual(&l.transpose(), &x, &b) < 1e-12);
    }

    #[test]
    fn upper_trans_solve() {
        let u = upper(15, 7);
        let b = test_matrix(15, 3, 8);
        let mut x = b.clone();
        solve_upper_trans(u.as_ref(), x.as_mut());
        assert!(residual(&u.transpose(), &x, &b) < 1e-12);
    }

    #[test]
    fn invert_upper_gives_inverse() {
        // 25 stays on the scalar path; 150 runs the blocked column sweep
        // over several TB-wide panels.
        for (n, seed) in [(25, 9), (150, 10)] {
            let u = upper(n, seed);
            let mut x = u.clone();
            invert_upper(x.as_mut());
            // Zero out the (ignored) strict lower part before multiplying.
            let x = Matrix::from_fn(n, n, |i, j| if i <= j { x[(i, j)] } else { 0.0 });
            let mut prod = mul(&u, &x);
            prod.add_diag(-1.0);
            assert!(
                prod.max_abs() < 1e-12,
                "U·U⁻¹ ≉ I at n={n}: {}",
                prod.max_abs()
            );
        }
    }

    #[test]
    fn invert_upper_leaves_lower_part_untouched() {
        let n = 130;
        let u = upper(n, 13);
        let mut full = test_matrix(n, n, 14);
        for j in 0..n {
            for i in 0..=j {
                full[(i, j)] = u[(i, j)];
            }
        }
        let below = Matrix::from_fn(n, n, |i, j| if i > j { full[(i, j)] } else { 0.0 });
        invert_upper(full.as_mut());
        for j in 0..n {
            for i in j + 1..n {
                assert_eq!(full[(i, j)], below[(i, j)], "lower ({i},{j}) changed");
            }
        }
    }

    #[test]
    fn invert_upper_identity_is_fixed_point() {
        let mut i3 = Matrix::identity(3);
        invert_upper(i3.as_mut());
        assert_eq!(i3, Matrix::identity(3));
    }

    #[test]
    #[should_panic(expected = "singular upper triangle")]
    fn singular_diagonal_panics() {
        let mut u = Matrix::identity(3);
        u[(1, 1)] = 0.0;
        let b = Matrix::zeros(3, 1);
        let mut x = b.clone();
        solve_upper(u.as_ref(), x.as_mut());
    }

    #[test]
    fn solves_on_views_with_ld() {
        // Solve on a sub-block of a larger buffer to exercise ld ≠ rows.
        let l = unit_lower(6, 11);
        let mut big = test_matrix(10, 8, 12);
        let b = big.block(2, 1, 6, 4);
        solve_unit_lower(l.as_ref(), big.view_mut(2, 1, 6, 4));
        let x = big.block(2, 1, 6, 4);
        assert!(residual(&l, &x, &b) < 1e-12);
    }
}
