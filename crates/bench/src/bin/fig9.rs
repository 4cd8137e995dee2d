//! Fig. 9: hybrid MPI×OpenMP sweep for many Green's functions.
//!
//! The paper computes selected inversions of 2400 Hubbard matrices on
//! 100 Edison nodes (2400 cores), sweeping the split
//! `(#MPI processes) × (#OpenMP threads/process)` ∈
//! {200×12, 400×6, 800×3, 1200×2, 2400×1} for
//! `N ∈ {400, 576, 784, 1024}`. Findings to reproduce in shape:
//!
//! 1. pure MPI (t = 1) is fastest **when it fits** (N = 400 only);
//! 2. for N ≥ 576 the per-rank memory exceeds the node budget → OOM, and
//!    the best feasible configuration is a hybrid split;
//! 3. throughput varies mildly across feasible hybrid splits.
//!
//! Locally we run a scaled-down sweep on worker-thread ranks and print the
//! paper-scale feasibility matrix from the Edison memory model.

use fsi_bench::{banner, init_trace, lattice_side_for, Args};
use fsi_pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
use fsi_selinv::multi::{per_rank_bytes, trace_measure, MultiConfig};
use fsi_selinv::{run_multi, MemoryModel, Pattern};

fn main() {
    let args = Args::parse();
    let export = init_trace("fig9", &args);
    let paper = args.paper_scale();
    let cores = args.get_usize("cores", if paper { 24 } else { 8 });
    let matrices = args.get_usize("matrices", if paper { 96 } else { 16 });
    let n_req = args.get_usize("N", if paper { 400 } else { 16 });
    let l = args.get_usize("L", if paper { 100 } else { 20 });
    let c = args.get_usize("c", if paper { 10 } else { 5 });
    banner("Hybrid ranks x threads sweep (paper Fig. 9)", paper);
    let nx = lattice_side_for(n_req);
    let n = nx * nx;
    println!("{matrices} matrices, (N, L, c) = ({n}, {l}, {c}), budget = {cores} 'cores'\n");

    let builder = BlockBuilder::new(
        SquareLattice::square(nx),
        HubbardParams::paper_validation(l),
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>16}",
        "ranks", "threads", "seconds", "Gflop/s", "sum tr G(k,k)"
    );
    let mut reference: Option<f64> = None;
    let mut splits: Vec<(usize, usize)> = Vec::new();
    for threads in 1..=cores {
        if cores.is_multiple_of(threads) {
            splits.push((cores / threads, threads));
        }
    }
    for (ranks, threads) in splits {
        let cfg = MultiConfig {
            ranks,
            threads_per_rank: threads,
            matrices,
            c,
            pattern: Pattern::Columns,
            seed: 2400,
        };
        // The span context propagates into the rank threads, so the
        // span's flop total covers all ranks of this split.
        let span = fsi_runtime::trace::span("multi");
        let r = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
        let stats = span.finish();
        assert!(
            stats.flops > 0,
            "{ranks}x{threads}: no flops reached the span"
        );
        let rate = stats.flops as f64 / r.seconds / 1e9;
        println!(
            "{:>8} {:>10} {:>12.3} {:>12.2} {:>16.6}",
            ranks, threads, r.seconds, rate, r.global_measurements[0]
        );
        match reference {
            None => reference = Some(r.global_measurements[0]),
            Some(want) => assert!(
                (r.global_measurements[0] - want).abs() < 1e-6 * want.abs().max(1.0),
                "rank/thread split changed the physics"
            ),
        }
    }

    // Paper-scale feasibility from the Edison node-memory model: which
    // point of Fig. 9's x-axis exists at all, per N.
    println!("\nEdison memory model, (L, c) = (100, 10), columns pattern");
    println!("(per-node configs; Fig. 9 runs 100 such nodes):");
    let model = MemoryModel::edison();
    print!("{:>6} {:>10}", "N", "GB/rank");
    for (r, t) in model.configurations() {
        print!(" {:>7}", format!("{r}x{t}"));
    }
    println!();
    for npaper in [400usize, 576, 784, 1024] {
        let bytes = per_rank_bytes(npaper, 100, 10, Pattern::Columns);
        print!("{:>6} {:>10.2}", npaper, bytes as f64 / (1u64 << 30) as f64);
        for (r, _t) in model.configurations() {
            print!(
                " {:>7}",
                if model.feasible(r, bytes) {
                    "ok"
                } else {
                    "OOM"
                }
            );
        }
        println!();
    }
    println!("\nshape check (paper): pure MPI (rightmost) viable only at N = 400;");
    println!(
        "hybrid splits carry the larger block sizes — matching Fig. 9's feasibility frontier."
    );
    export.finish(None);
}
