//! Ablation: Alg. 2's split walk (paper: "the inner for loop is separated
//! into two loops … to minimize the accumulated floating point arithmetic
//! error").
//!
//! Compares the production wrapping (each seed walks ⌈(c−1)/2⌉ up and
//! ⌊(c−1)/2⌋ down) against a naive one-directional walk (c−1 steps down
//! from each seed) on an ill-conditioned low-temperature matrix, and
//! reports the worst relative block error of each against the dense LU
//! reference. The split walk halves the recurrence chain length and
//! should carry a visibly smaller error.

#![allow(clippy::needless_range_loop)] // distance-class loops index parallel arrays

use fsi_bench::{banner, Args};
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_runtime::Par;
use fsi_selinv::wrap::{step_down, step_up};
use fsi_selinv::{bsofi, cls, BlockInverses};
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let l = args.get_usize("L", 48);
    let c = args.get_usize("c", 12);
    let beta = args.get_f64("beta", 16.0);
    banner(
        "Ablation: split vs one-directional wrapping walk (paper Alg. 2)",
        args.paper_scale(),
    );
    let lattice = SquareLattice::new(2, 2);
    let n = lattice.n_sites();
    println!("(N, L, c) = ({n}, {l}, {c}), beta = {beta}\n");
    let builder = BlockBuilder::new(
        lattice,
        HubbardParams {
            t: 1.0,
            u: 4.0,
            beta,
            l,
        },
    );
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(55);
    let field = HsField::random(l, n, &mut rng);
    let pc = hubbard_pcyclic(&builder, &field, Spin::Down);

    let q = c / 2;
    let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
    let g_red = bsofi(Par::Seq, Par::Seq, &clustered.reduced);
    let g_ref = pc.reference_green(Par::Seq);
    let inv =
        BlockInverses::new(Par::Seq, &pc, 0..l).expect("Hubbard blocks have analytic inverses");
    let b = clustered.b();

    // For every seed column, walk both ways and record the worst error at
    // each distance from the seed.
    let max_dist = c - 1;
    let mut split_err = vec![0.0f64; max_dist + 1];
    let mut oneway_err = vec![0.0f64; max_dist + 1];
    for k0 in 0..b {
        for l0 in 0..b {
            let k = clustered.to_original(k0);
            let col = clustered.to_original(l0);
            let seed = clustered.reduced.dense_block(&g_red, k0, l0);

            // Split walk: up for ceil((c−1)/2), down for the rest.
            let up_steps = c / 2;
            let down_steps = (c - 1) - up_steps;
            let mut cur = seed.clone();
            let mut row = k;
            for d in 1..=up_steps {
                cur = step_up(&inv, &cur, row, col);
                row = pc.up(row);
                let want = pc.dense_block(&g_ref, row, col);
                split_err[d] = split_err[d].max(fsi_dense::rel_error(&cur, &want));
            }
            let mut cur = seed.clone();
            let mut row = k;
            for d in 1..=down_steps {
                cur = step_down(&pc, &cur, row, col);
                row = pc.down(row);
                let want = pc.dense_block(&g_ref, row, col);
                split_err[d] = split_err[d].max(fsi_dense::rel_error(&cur, &want));
            }

            // One-directional walk: c−1 steps straight down.
            let mut cur = seed.clone();
            let mut row = k;
            for d in 1..=max_dist {
                cur = step_down(&pc, &cur, row, col);
                row = pc.down(row);
                let want = pc.dense_block(&g_ref, row, col);
                oneway_err[d] = oneway_err[d].max(fsi_dense::rel_error(&cur, &want));
            }
        }
    }

    println!(
        "{:>6} {:>16} {:>16}",
        "steps", "split walk err", "one-way walk err"
    );
    for d in 1..=max_dist {
        let s = if split_err[d] > 0.0 {
            format!("{:.3e}", split_err[d])
        } else {
            "-".to_string() // split walk never goes this far
        };
        println!("{d:>6} {s:>16} {:>16.3e}", oneway_err[d]);
    }
    let split_max = split_err.iter().cloned().fold(0.0, f64::max);
    let oneway_max = oneway_err.iter().cloned().fold(0.0, f64::max);
    println!("\nworst error: split {split_max:.3e} vs one-way (down-only) {oneway_max:.3e}");
    println!("\nfinding: the paper motivates the split by halving the chain length, and the");
    println!("split indeed halves the walk distance. In this reproduction, however, the two");
    println!("directions are not symmetric: the DOWN relation (multiply by B) is forward-");
    println!("stable — its relative error stays flat with distance — while the UP relation");
    println!("(multiply by the analytic B^-1) amplifies by cond(B) per step at low");
    println!("temperature. Both steps are one GEMM, so a down-only walk costs the same and");
    println!("is more accurate. The library keeps the paper-faithful split as the default;");
    println!("EXPERIMENTS.md records this deviation.");
}
