//! # fsi-pcyclic — block p-cyclic matrices and Hubbard-model generation
//!
//! Bridges the physics and the linear algebra of the FSI paper:
//!
//! * [`lattice`] — periodic rectangular lattices (QUEST's default
//!   geometry): adjacency matrix `K`, spatial displacement classes
//!   `D(i, j)`, and the temporal distance map `T(k, ℓ)`;
//! * [`hubbard`] — Hubbard parameters, the HS coupling
//!   `ν = cosh⁻¹ e^{ΔτU/2}`, Hubbard–Stratonovich field configurations,
//!   and the [`hubbard::BlockBuilder`] assembling
//!   `B_ℓ^σ = e^{tΔτK}·e^{σνV_ℓ(h)}` (with exact analytic inverses);
//! * [`pcyclic`] — the [`BlockPCyclic`] normal-form matrix `M` of Eq. (1),
//!   its dense assembly, the LU reference inverse, and per-block inverses
//!   (analytic for Hubbard matrices);
//! * [`green`] — the explicit Green's-function expression of Eq. (3)
//!   (the baseline FSI is compared against, and the test oracle for all
//!   structured algorithms);
//! * [`checkerboard`] — QUEST's sparse bond-split alternative to the
//!   dense hopping exponential, with exact inverse and O(N) application;
//! * [`block_cache`] — dirty-slice-tracking reuse of dense `B_ℓ` blocks
//!   across DQMC stabilizations.

#![warn(missing_docs)]
// index loops mirror the lattice/slice indexing of the paper.
#![allow(clippy::needless_range_loop)]

pub mod block_cache;
pub mod checkerboard;
pub mod green;
pub mod hubbard;
pub mod lattice;
pub mod pcyclic;

pub use block_cache::BlockCache;
pub use checkerboard::Checkerboard;
pub use hubbard::{BlockBuilder, HsField, HubbardParams, Spin};
pub use lattice::{temporal_distance, SquareLattice};
pub use pcyclic::{random_pcyclic, BlockPCyclic};

/// Builds the spin-σ Hubbard matrix `M^σ(h)` for a field configuration —
/// the top-level constructor used throughout the examples and benches.
/// The matrix carries its blocks' analytic inverse factors, so
/// [`BlockPCyclic::block_inverse`] costs `O(N²)`.
pub fn hubbard_pcyclic(builder: &BlockBuilder, field: &HsField, spin: Spin) -> BlockPCyclic {
    BlockPCyclic::with_inverse_factors(
        builder.all_blocks(field, spin),
        builder.inverse_factors(field, spin),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_runtime::Par;
    use rand::SeedableRng;

    /// End-to-end: a small Hubbard matrix has a well-conditioned dense form
    /// whose inverse the explicit expression reproduces.
    #[test]
    fn hubbard_matrix_green_function_consistency() {
        let lat = SquareLattice::square(2);
        let params = HubbardParams::paper_validation(6);
        let builder = BlockBuilder::new(lat, params);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let field = HsField::random(6, 4, &mut rng);
        for spin in Spin::BOTH {
            let pc = hubbard_pcyclic(&builder, &field, spin);
            assert_eq!(pc.l(), 6);
            assert_eq!(pc.n(), 4);
            let g_ref = pc.reference_green(Par::Seq);
            for k in [0usize, 3, 5] {
                let blk = green::green_block_explicit(Par::Seq, &pc, k, 2);
                let want = pc.dense_block(&g_ref, k, 2);
                assert!(
                    fsi_dense::rel_error(&blk, &want) < 1e-9,
                    "({spin:?}, k={k})"
                );
            }
        }
    }

    /// A Hubbard matrix's block inverses are the builder's analytic ones,
    /// bit for bit, for both kinetic backends.
    #[test]
    fn hubbard_block_inverse_is_the_builders_analytic_inverse() {
        let params = HubbardParams::paper_validation(5);
        let lat = SquareLattice::square(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let field = HsField::random(5, 9, &mut rng);
        for builder in [
            BlockBuilder::new(lat.clone(), params.clone()),
            BlockBuilder::with_checkerboard(lat.clone(), params.clone()),
        ] {
            for spin in Spin::BOTH {
                let pc = hubbard_pcyclic(&builder, &field, spin);
                for k in 0..5 {
                    let got = pc.block_inverse(k).expect("analytic");
                    let want = builder.block_inverse(&field, k, spin);
                    assert_eq!(got.as_slice(), want.as_slice(), "({spin:?}, k={k})");
                }
            }
        }
    }
}
