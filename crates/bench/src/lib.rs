//! # fsi-bench — harnesses regenerating every table and figure of the paper
//!
//! One binary per experiment (see DESIGN.md §4 for the full index):
//!
//! | binary             | reproduces                                     |
//! |--------------------|------------------------------------------------|
//! | `validate`         | §V-A correctness validation                    |
//! | `table_patterns`   | §II-B selected-block counts & memory reduction |
//! | `table_complexity` | §II-C flop-complexity table (formula vs measured) |
//! | `fig8_top`         | FSI per-stage Gflop/s vs block size N          |
//! | `fig8_bottom`      | thread scalability, FSI-OpenMP vs MKL-style    |
//! | `fig9`             | hybrid ranks×threads sweep + memory model      |
//! | `fig10`            | Green's-function vs measurement runtime profile |
//! | `fig11`            | full DQMC runtime vs threads                   |
//!
//! Every binary runs a scaled-down default in seconds and accepts
//! `--paper-scale` plus `key=value` overrides (`N=`, `L=`, `c=`,
//! `threads=`, …) to approach the paper's exact parameters.
//!
//! Criterion micro-benchmarks live in `benches/` (dense kernels, FSI
//! stages, and the three ablations called out in DESIGN.md).

pub mod sentinel;

use std::collections::HashMap;

use fsi_pcyclic::BlockPCyclic;
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_runtime::sim::AlgorithmTrace;
use fsi_runtime::{Par, Stopwatch};
use fsi_selinv::{Selection, StructuredQr};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Minimal `key=value` / `--flag` argument parser shared by the harness
/// binaries.
pub struct Args {
    kv: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests).
    #[allow(clippy::should_implement_trait)] // not a collection; `FromIterator` would mislead
    pub fn from_iter<I: IntoIterator<Item = String>>(items: I) -> Self {
        let mut kv = HashMap::new();
        let mut flags = Vec::new();
        for a in items {
            if let Some(flag) = a.strip_prefix("--") {
                flags.push(flag.to_string());
            } else if let Some((k, v)) = a.split_once('=') {
                kv.insert(k.to_string(), v.to_string());
            }
        }
        Args { kv, flags }
    }

    /// Whether `--name` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of a `--name=value` flag, if passed.
    pub fn flag_value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find_map(|f| f.strip_prefix(name).and_then(|r| r.strip_prefix('=')))
    }

    /// Every value of a repeatable `--name=value` flag, in order.
    pub fn flag_values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter_map(|f| f.strip_prefix(name).and_then(|r| r.strip_prefix('=')))
            .collect()
    }

    /// `key=value` as usize, with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.kv
            .get(key)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {key}={v}")))
            .unwrap_or(default)
    }

    /// `key=value` as f64, with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.kv
            .get(key)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {key}={v}")))
            .unwrap_or(default)
    }

    /// `key=a,b,c` as a usize list, with a default.
    pub fn get_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        self.kv
            .get(key)
            .map(|v| {
                v.split(',')
                    .map(|x| x.parse().unwrap_or_else(|_| panic!("bad {key}={v}")))
                    .collect()
            })
            .unwrap_or_else(|| default.to_vec())
    }

    /// Shorthand for the ubiquitous `--paper-scale` switch.
    pub fn paper_scale(&self) -> bool {
        self.flag("paper-scale")
    }
}

/// Applies the `--kernel=avx512|avx2|scalar` override shared by the
/// harness binaries: forces the dense micro-kernel tier for the whole
/// process via [`fsi_dense::set_default_tier`] and returns the tier now
/// active. Exits with an error when the name is unknown or the host lacks
/// the requested ISA — a benchmark silently measuring a different kernel
/// than the one named on the command line would poison recorded baselines.
///
/// Without the flag the runtime dispatch order stands (the `FSI_KERNEL`
/// environment variable, then the best ISA the host offers).
pub fn apply_kernel_flag(args: &Args) -> fsi_dense::Tier {
    if let Some(name) = args.flag_value("kernel") {
        let tier = fsi_dense::Tier::parse(name).unwrap_or_else(|| {
            eprintln!("error: unknown --kernel={name} (expected avx512, avx2, or scalar)");
            std::process::exit(2);
        });
        if let Err(e) = fsi_dense::set_default_tier(tier) {
            eprintln!("error: --kernel={name}: {e}");
            std::process::exit(2);
        }
    }
    fsi_dense::active_tier()
}

/// Builds a Hubbard p-cyclic matrix for an `nx × nx` lattice (the paper's
/// benchmark family, `(t, β, U) = (1, 1, 2)`).
pub fn hubbard_matrix(nx: usize, l: usize, seed: u64, spin: Spin) -> BlockPCyclic {
    let lattice = SquareLattice::square(nx);
    let n = lattice.n_sites();
    let builder = BlockBuilder::new(lattice, HubbardParams::paper_validation(l));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let field = HsField::random(l, n, &mut rng);
    hubbard_pcyclic(&builder, &field, spin)
}

/// Returns the side of the smallest square lattice with at least `n`
/// sites (the harness maps the paper's `N` values — all perfect squares —
/// exactly).
pub fn lattice_side_for(n: usize) -> usize {
    let mut s = 1usize;
    while s * s < n {
        s += 1;
    }
    s
}

/// Measured per-task traces of one FSI run, for the scheduling simulator
/// (used by `fig8_bottom`/`fig11` when the host has fewer cores than the
/// paper's socket; see DESIGN.md substitutions).
pub struct FsiTraces {
    /// Coarse-grained trace: CLS clusters, BSOFI columns, wrap seeds as
    /// independent tasks (the OpenMP mode's schedule).
    pub openmp: AlgorithmTrace,
    /// Fine-grained trace: each dense kernel split into its column-chunk
    /// tasks with the serial glue between kernels kept serial (the
    /// MKL-style mode's schedule).
    pub mkl: AlgorithmTrace,
    /// Total sequential seconds.
    pub seq_seconds: f64,
}

/// Runs FSI sequentially on `pc`, timing every independent task of every
/// stage, and builds the two scheduling traces.
pub fn trace_fsi(pc: &BlockPCyclic, selection: &Selection) -> FsiTraces {
    let c = selection.c;
    let q = selection.q;
    let n = pc.n();
    let b = pc.l() / c;
    // --- CLS: time each cluster chain. ---
    let mut cls_tasks = Vec::with_capacity(b);
    let o = c - 1 - q;
    let sw_total = Stopwatch::start();
    let mut reduced_blocks = Vec::with_capacity(b);
    for m in 0..b {
        let sw = Stopwatch::start();
        let mut idx = (c * m + o) % pc.l();
        let mut acc = pc.block(idx).clone();
        for _ in 1..c {
            idx = pc.up(idx);
            acc = fsi_dense::mul(&acc, pc.block(idx));
        }
        cls_tasks.push(sw.seconds());
        reduced_blocks.push(acc);
    }
    let clustered = fsi_selinv::cls::cls(Par::Seq, Par::Seq, pc, c, q);

    // --- BSOFI: stage A serial, stage B per-column tasks, stage C
    //     row-band parallel. ---
    let sw = Stopwatch::start();
    let factor = StructuredQr::factor(Par::Seq, &clustered.reduced);
    let bsofi_serial = sw.seconds();
    let sw = Stopwatch::start();
    let g_reduced = factor.inverse(Par::Seq, Par::Seq);
    let bsofi_bc = sw.seconds();
    // Stage B+C together measured as bsofi_bc; both parallelize over b (or
    // more) independent chunks, so model them as b uniform tasks.
    let bsofi_tasks = vec![bsofi_bc / b as f64; b];

    // --- WRP: build the block inverses, then time each seed walk. ---
    let up_steps = c / 2;
    let down_steps = (c - 1) - up_steps;
    let inv = fsi_selinv::BlockInverses::new(Par::Seq, pc, 0..pc.l())
        .expect("trace_fsi needs nonsingular blocks");
    let mut wrap_tasks = Vec::with_capacity(b * b);
    for s in 0..b * b {
        let (k0, l0) = (s / b, s % b);
        let k = clustered.to_original(k0);
        let l = clustered.to_original(l0);
        let sw = Stopwatch::start();
        let g_seed = clustered.reduced.dense_block(&g_reduced, k0, l0);
        let mut cur = g_seed.clone();
        let mut row = k;
        for _ in 0..up_steps {
            cur = fsi_selinv::wrap::step_up(&inv, &cur, row, l);
            row = pc.up(row);
        }
        let mut cur = g_seed;
        let mut row = k;
        for _ in 0..down_steps {
            cur = fsi_selinv::wrap::step_down(pc, &cur, row, l);
            row = pc.down(row);
        }
        wrap_tasks.push(sw.seconds());
    }
    let seq_seconds = sw_total.seconds();

    // OpenMP trace: three flat fork/join regions.
    let mut openmp = AlgorithmTrace::default();
    openmp.push_region(cls_tasks.clone(), 0.0);
    openmp.push_region(bsofi_tasks, bsofi_serial);
    openmp.push_region(wrap_tasks.clone(), 0.0);

    // MKL-style trace: every dense kernel is its own fork/join region
    // whose tasks are column chunks (GEMM parallelism granularity:
    // 32-column panels), with factorization panels kept serial.
    let chunks = (n / 32).max(1);
    let mut mkl = AlgorithmTrace::default();
    for t in &cls_tasks {
        // A cluster chain is c−1 sequential gemms; each gemm forks.
        let per_gemm = t / (c - 1).max(1) as f64;
        for _ in 0..c - 1 {
            mkl.push_region(vec![per_gemm / chunks as f64; chunks], 0.0);
        }
    }
    // BSOFI under MKL: panel QRs are mostly level-2 (serial-ish); the
    // inverse phase gemms fork.
    mkl.push_region(Vec::new(), bsofi_serial * 0.7);
    let qr_parallel = bsofi_serial * 0.3;
    mkl.push_region(vec![qr_parallel / chunks as f64; chunks], 0.0);
    let bc_chunked = bsofi_bc;
    mkl.push_region(vec![bc_chunked / chunks as f64; chunks], 0.0);
    for t in &wrap_tasks {
        // Each wrap step is one gemm, which forks whole.
        mkl.push_region(vec![t / chunks as f64; chunks], 0.0);
    }

    FsiTraces {
        openmp,
        mkl,
        seq_seconds,
    }
}

/// Run-report wiring shared by the harness binaries.
///
/// [`init_trace`] turns on stage-level span collection so every harness
/// can report per-stage flop rates from the structured collector (the
/// `FSI_TRACE=2` environment setting upgrades to kernel-level spans), and
/// remembers whether the user asked for trace files. [`TraceExport::finish`]
/// captures the [`fsi_runtime::RunReport`] and, when export was requested
/// with `FSI_TRACE=…` or `--trace-out=PATH`, writes the NDJSON run report
/// (see `results/schema.md`) plus a Chrome `trace_event` view next to it.
pub struct TraceExport {
    command: String,
    out: Option<std::path::PathBuf>,
}

/// Initializes tracing for a harness binary named `command`.
///
/// Export defaults to `results/<command>.trace.ndjson` when `FSI_TRACE`
/// is set (and nonzero); `--trace-out=PATH` overrides the path and forces
/// export even without the environment variable.
pub fn init_trace(command: &str, args: &Args) -> TraceExport {
    use fsi_runtime::trace;
    // A harness that panics mid-run dumps the flight-recorder ring
    // (NDJSON under FSI_FLIGHT_DIR) so the crash is diagnosable.
    fsi_runtime::metrics::flight::install_panic_hook();
    if trace::level() == fsi_runtime::TraceLevel::Off {
        trace::set_level(fsi_runtime::TraceLevel::Stages);
    }
    trace::clear();
    let out = args
        .flag_value("trace-out")
        .map(std::path::PathBuf::from)
        .or_else(|| {
            std::env::var("FSI_TRACE")
                .ok()
                .filter(|v| !v.is_empty() && v != "0")
                .map(|_| std::path::PathBuf::from(format!("results/{command}.trace.ndjson")))
        });
    TraceExport {
        command: command.to_string(),
        out,
    }
}

impl TraceExport {
    /// Captures the run report accumulated since [`init_trace`] (or the
    /// last `finish`), attaches pool utilization when a pool is given,
    /// and writes the requested trace files.
    pub fn finish(&self, pool: Option<&fsi_runtime::ThreadPool>) -> fsi_runtime::RunReport {
        let mut report = fsi_runtime::trace::RunReport::capture(&self.command);
        if let Some(p) = pool {
            report = report.with_pool(p);
        }
        if let Some(path) = &self.out {
            let chrome = path.with_extension("json");
            match report
                .write_ndjson(path)
                .and_then(|()| report.write_chrome_trace(&chrome))
            {
                Ok(()) => println!(
                    "
trace: wrote {} and {}",
                    path.display(),
                    chrome.display()
                ),
                Err(e) => eprintln!("trace: export failed: {e}"),
            }
        }
        report
    }
}

/// Writes a bench artifact (e.g. `results/BENCH_*.json`) atomically:
/// the bytes land in a same-directory temp file that is renamed over
/// `path`, so a crash mid-write can never leave a torn artifact for the
/// sentinel (or a human) to misread. Creates parent directories.
///
/// # Errors
/// Filesystem errors from the temp write or the rename.
pub fn write_artifact(path: impl AsRef<std::path::Path>, contents: &str) -> std::io::Result<()> {
    fsi_runtime::ckpt::write_atomic(path.as_ref(), contents.as_bytes())
}

/// Formats a Gflop/s value from flops and seconds.
pub fn gflops(flops: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        flops as f64 / seconds / 1e9
    }
}

/// Prints the standard harness banner.
pub fn banner(title: &str, paper_scale: bool) {
    println!("== {title} ==");
    if paper_scale {
        println!("   (paper-scale parameters)");
    } else {
        println!("   (scaled-down defaults; pass --paper-scale and key=value overrides for paper parameters)");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_selinv::Pattern;

    #[test]
    fn args_parse_kv_flags_and_lists() {
        let a = Args::from_iter(
            ["N=64", "--paper-scale", "c=10", "list=1,2,3", "x=1.5"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(a.get_usize("N", 0), 64);
        assert_eq!(a.get_usize("missing", 7), 7);
        assert!(a.paper_scale());
        assert!(!a.flag("other"));
        assert_eq!(a.get_list("list", &[9]), vec![1, 2, 3]);
        assert_eq!(a.get_list("none", &[9]), vec![9]);
        assert!((a.get_f64("x", 0.0) - 1.5).abs() < 1e-15);
    }

    #[test]
    fn lattice_side_covers_paper_sizes() {
        assert_eq!(lattice_side_for(256), 16);
        assert_eq!(lattice_side_for(400), 20);
        assert_eq!(lattice_side_for(576), 24);
        assert_eq!(lattice_side_for(1024), 32);
        assert_eq!(lattice_side_for(1), 1);
        assert_eq!(lattice_side_for(10), 4);
    }

    #[test]
    fn trace_fsi_produces_consistent_traces() {
        let pc = hubbard_matrix(3, 12, 5, Spin::Up);
        let sel = Selection::new(Pattern::Columns, 4, 1);
        let t = trace_fsi(&pc, &sel);
        assert_eq!(t.openmp.regions.len(), 3);
        assert!(t.seq_seconds > 0.0);
        // OpenMP trace scales better than the MKL trace at high thread
        // counts (the Fig. 8-bottom contrast).
        let omp12 = t.openmp.speedup(12);
        let mkl12 = t.mkl.speedup(12);
        assert!(
            omp12 > mkl12 * 0.8,
            "openmp {omp12} should rival/beat mkl {mkl12}"
        );
        // Both are genuine speedups at 2 threads.
        assert!(t.openmp.speedup(2) > 1.2);
    }

    #[test]
    fn gflops_helper() {
        assert_eq!(gflops(2_000_000_000, 1.0), 2.0);
        assert_eq!(gflops(1, 0.0), 0.0);
    }
}
