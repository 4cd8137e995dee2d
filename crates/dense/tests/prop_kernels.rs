//! Property-based tests of the dense kernels: factorization residuals,
//! orthogonality, solve identities, and exponential laws on arbitrary
//! well-conditioned inputs.

use fsi_dense::{expm, gemm_op, geqrf, getrf, mul, rel_error, solve, test_matrix, Matrix, Op};
use fsi_runtime::Par;
use proptest::prelude::*;

/// Random well-conditioned square matrix (diagonally dominated).
fn well_conditioned(n: usize, seed: u64) -> Matrix {
    let mut a = test_matrix(n, n, seed);
    a.add_diag(n as f64 * 0.5 + 1.0);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lu_solve_residual_small(n in 1usize..40, nrhs in 1usize..6, seed in any::<u64>()) {
        let a = well_conditioned(n, seed);
        let b = test_matrix(n, nrhs, seed ^ 1);
        let x = solve(&a, &b).expect("well conditioned");
        let mut r = mul(&a, &x);
        r.sub_assign(&b);
        prop_assert!(r.max_abs() < 1e-9 * (n as f64 + 1.0));
    }

    #[test]
    fn inverse_composes_to_identity(n in 1usize..30, seed in any::<u64>()) {
        let a = well_conditioned(n, seed);
        let inv = fsi_dense::inverse(&a).expect("well conditioned");
        let mut p = mul(&a, &inv);
        p.add_diag(-1.0);
        prop_assert!(p.max_abs() < 1e-9 * (n as f64 + 1.0));
        // And the determinant of A·A⁻¹ is det(A)·det(A⁻¹) ≈ 1.
        let da = getrf(a).unwrap().det();
        let di = getrf(inv).unwrap().det();
        prop_assert!((da * di - 1.0).abs() < 1e-6);
    }

    #[test]
    fn qr_reconstructs_and_q_is_orthogonal(
        m in 1usize..36,
        extra in 0usize..12,
        seed in any::<u64>(),
    ) {
        let rows = m + extra; // rows >= cols
        let a = test_matrix(rows, m, seed);
        let f = geqrf(a.clone());
        let q = f.q();
        // QᵀQ = I.
        let mut qtq = Matrix::zeros(rows, rows);
        gemm_op(Par::Seq, 1.0, Op::Trans, q.as_ref(), Op::NoTrans, q.as_ref(), 0.0, qtq.as_mut());
        qtq.add_diag(-1.0);
        prop_assert!(qtq.max_abs() < 1e-11 * (rows as f64 + 1.0));
        // Q·R = A (R embedded in rows × m).
        let mut r_full = Matrix::zeros(rows, m);
        for i in 0..m {
            for j in i..m {
                r_full[(i, j)] = f.packed()[(i, j)];
            }
        }
        let mut resid = mul(&q, &r_full);
        resid.sub_assign(&a);
        prop_assert!(resid.max_abs() < 1e-11 * (rows as f64 + 1.0));
    }

    #[test]
    fn gemm_is_linear_in_alpha(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in any::<u64>()) {
        let a = test_matrix(m, k, seed);
        let b = test_matrix(k, n, seed ^ 3);
        let ab = mul(&a, &b);
        let mut c2 = Matrix::zeros(m, n);
        fsi_dense::gemm(Par::Seq, 2.0, a.as_ref(), b.as_ref(), 0.0, c2.as_mut());
        let mut want = ab.clone();
        want.scale(2.0);
        prop_assert!(rel_error(&c2, &want) < 1e-13);
    }

    #[test]
    fn packed_gemm_matches_naive_triple_loop(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        a_trans in any::<bool>(),
        b_trans in any::<bool>(),
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        // The packed/register-blocked engine against the textbook triple
        // loop, over all four Op combos, arbitrary alpha/beta, and shapes
        // small enough to hit every MR/NR remainder case.
        let (ar, ac) = if a_trans { (k, m) } else { (m, k) };
        let (br, bc) = if b_trans { (n, k) } else { (k, n) };
        let a = test_matrix(ar, ac, seed);
        let b = test_matrix(br, bc, seed ^ 5);
        let c0 = test_matrix(m, n, seed ^ 6);
        let mut want = c0.clone();
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    let av = if a_trans { a[(p, i)] } else { a[(i, p)] };
                    let bv = if b_trans { b[(j, p)] } else { b[(p, j)] };
                    s += av * bv;
                }
                want[(i, j)] = beta * want[(i, j)] + alpha * s;
            }
        }
        let opa = if a_trans { Op::Trans } else { Op::NoTrans };
        let opb = if b_trans { Op::Trans } else { Op::NoTrans };
        let mut got = c0.clone();
        gemm_op(Par::Seq, alpha, opa, a.as_ref(), opb, b.as_ref(), beta, got.as_mut());
        for j in 0..n {
            for i in 0..m {
                let d = (got[(i, j)] - want[(i, j)]).abs();
                prop_assert!(
                    d < 1e-13 * (1.0 + want[(i, j)].abs() + (k as f64)),
                    "({i},{j}): packed {} vs naive {}",
                    got[(i, j)],
                    want[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gemm_transpose_consistency(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in any::<u64>()) {
        // (A·B)ᵀ = Bᵀ·Aᵀ via the TT path.
        let a = test_matrix(m, k, seed);
        let b = test_matrix(k, n, seed ^ 4);
        let ab_t = mul(&a, &b).transpose();
        let mut tt = Matrix::zeros(n, m);
        gemm_op(Par::Seq, 1.0, Op::Trans, b.as_ref(), Op::Trans, a.as_ref(), 0.0, tt.as_mut());
        prop_assert!(rel_error(&tt, &ab_t) < 1e-12);
    }

    #[test]
    fn expm_additivity_for_commuting(n in 1usize..10, seed in any::<u64>()) {
        // e^{sA}·e^{tA} = e^{(s+t)A}: commuting arguments.
        let mut a = test_matrix(n, n, seed);
        a.scale(0.2);
        let mut a2 = a.clone();
        a2.scale(2.0);
        let e1 = expm(&a).unwrap();
        let e12 = mul(&e1, &e1);
        let e2 = expm(&a2).unwrap();
        prop_assert!(rel_error(&e12, &e2) < 1e-11);
    }

    #[test]
    fn expm_determinant_is_exp_trace(n in 1usize..8, seed in any::<u64>()) {
        // det e^A = e^{tr A}.
        let mut a = test_matrix(n, n, seed);
        a.scale(0.3);
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let e = expm(&a).unwrap();
        let det = getrf(e).unwrap().det();
        prop_assert!((det - trace.exp()).abs() < 1e-9 * trace.exp().max(1.0));
    }

    #[test]
    fn norms_satisfy_standard_inequalities(m in 1usize..10, n in 1usize..10, seed in any::<u64>()) {
        let a = test_matrix(m, n, seed);
        let one = fsi_dense::norm1(&a);
        let inf = fsi_dense::norm_inf(&a);
        let fro = fsi_dense::frobenius(&a);
        let max = a.max_abs();
        prop_assert!(max <= one + 1e-15);
        prop_assert!(max <= inf + 1e-15);
        prop_assert!(fro <= ((m * n) as f64).sqrt() * max + 1e-15);
        prop_assert!(one <= (m as f64) * max + 1e-12);
    }
}
