//! # fsi-dense — dense linear algebra substrate (mini BLAS/LAPACK)
//!
//! The FSI paper builds on Intel MKL's DGEMM / DGETRF / DGETRI / DGEQRF /
//! DORMQR. Rust's BLAS bindings are thin and tie the build to system
//! libraries, so this crate implements the needed kernel set from scratch
//! (the substitution is documented in DESIGN.md):
//!
//! * [`matrix`] — column-major [`Matrix`] storage plus [`MatRef`]/[`MatMut`]
//!   views with explicit leading dimension, including the disjoint splits
//!   the parallel kernels hand to pool workers;
//! * [`blas`] — level-1/2 kernels (dot, axpy, nrm2, gemv, ger);
//! * [`gemm`](mod@gemm) — cache-blocked, thread-parallel matrix multiply with
//!   transpose variants, the flop workhorse of FSI;
//! * [`kernel`] — the register-tile micro-kernels (AVX-512 16×4, AVX2
//!   8×4, portable scalar) and their runtime tier dispatch
//!   (`FSI_KERNEL` env override, silent degradation);
//! * [`batch`] — [`gemm_batched`], the batched-strided small-matrix
//!   engine for the CLS/multi-driver hot shape (shared operands packed
//!   once, no-pack direct path, store-mode writeback);
//! * [`lu`] — blocked LU with partial pivoting, solves, explicit
//!   inversion and determinants;
//! * [`qr`] — Householder QR with compact-WY blocked application of `Q`,
//!   the engine of BSOFI;
//! * [`tri`] — triangular solves and upper-triangular inversion;
//! * [`expm`](mod@expm) — Padé-13 scaling-and-squaring matrix exponential for the
//!   Hubbard hopping factor `e^{tΔτK}`;
//! * [`norms`] — norms, relative-error metrics and a condition-number probe.
//!
//! Every kernel charges its textbook flop count to
//! [`fsi_runtime::flops`], so harnesses report Gflop/s rates comparable in
//! shape to the paper's MKL numbers.

#![warn(missing_docs)]
// index loops mirror the BLAS/LAPACK algorithms they implement.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod blas;
pub mod cond;
pub mod error;
pub mod expm;
pub mod gemm;
pub mod kernel;
pub mod lu;
pub mod matrix;
pub mod norms;
pub mod qr;
pub mod tri;

pub use batch::{gemm_batched, BatchOperand};
pub use cond::{cond1_estimate, norm1_inv_estimate, norm1_inv_estimate_detailed, Norm1Estimate};
pub use error::{DenseError, Result};
pub use expm::{expm, expm_diag, expm_par, scale_cols_exp, scale_rows_exp};
pub use gemm::{chain_mul, gemm, gemm_op, mul, mul_par, test_matrix, Op};
pub use kernel::{active_tier, available_tiers, set_default_tier, with_tier, Tier};
pub use lu::{getrf, getrf_par, inverse, inverse_par, solve, LuFactor};
pub use matrix::{MatMut, MatRef, Matrix};
pub use norms::{cond1, frobenius, norm1, norm_inf, rel_error};
pub use qr::{geqrf, QrFactor, Side};
