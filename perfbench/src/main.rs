//! `perfbench`: the FSI workspace benchmark.
//!
//! ```text
//! perfbench --workload <greens_paper|dqmc_run|service_mix> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs an untraced and a traced phase in one process and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the
//! exit code is 0 only when every op passed its reference check and every
//! self-check held. See `README.md` next to this crate for every metric.

mod cli;
mod host;
mod layers;
mod ledger;
mod reference;
mod report;
mod stats;
mod workloads;

use std::time::Instant;

use fsi_dense::{gemm_batched, BatchOperand, MatMut, MatRef, Matrix, Op};
use fsi_runtime::trace::{self, Json, TraceLevel};
use fsi_runtime::{metrics, Par, RunReport};

use cli::{Args, Workload as Which};
use ledger::{Node, Spans};
use report::{Metrics, RunResult};
use workloads::{LayerInputs, Phase, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Share of `--seconds` given to each of the traced run's untraced and
/// traced phases (the greens serial pass takes half the untraced phase).
/// At 28 s the busiest traced phase (`service_mix`, ≈85k kernel spans a
/// second) keeps well under the span collector's 2²⁰-record cap.
const TRACED_PHASE_SHARE: f64 = 0.25;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("max_err", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for k in layers::KERNELS {
        for (leaf, unit) in [
            ("calls", "count"),
            ("flops", "flop"),
            ("self_s", "s"),
            ("gflops", "Gflop/s"),
            ("ceiling_frac", "ratio"),
        ] {
            out.push((format!("dense.{k}.{leaf}"), unit));
        }
    }
    let fixed: [(&str, &'static str); 39] = [
        ("dense.ceiling_gflops", "Gflop/s"),
        ("selinv.wrap.self_s", "s"),
        ("selinv.wrap.gflops", "Gflop/s"),
        ("selinv.wrap.ceiling_frac", "ratio"),
        ("selinv.wrap.model_ratio", "ratio"),
        ("selinv.bsofi.self_s", "s"),
        ("selinv.bsofi.gflops", "Gflop/s"),
        ("selinv.bsofi.ceiling_frac", "ratio"),
        ("selinv.cls.self_s", "s"),
        ("selinv.cls.gflops", "Gflop/s"),
        ("selinv.cls.ceiling_frac", "ratio"),
        ("selinv.cluster_cache.hit_ratio", "ratio"),
        ("selinv.fsi.self_s", "s"),
        ("selinv.parallel_eff", "ratio"),
        ("pcyclic.block_cache.reuse_ratio", "ratio"),
        ("pcyclic.build.calls", "count"),
        ("pcyclic.build.self_s", "s"),
        ("dqmc.sweep.self_s", "s"),
        ("dqmc.sweep.acceptance", "ratio"),
        ("dqmc.wrap.calls", "count"),
        ("dqmc.wrap.self_s", "s"),
        ("dqmc.refresh.calls", "count"),
        ("dqmc.refresh.self_s", "s"),
        ("dqmc.green.self_s", "s"),
        ("dqmc.measure.self_s", "s"),
        ("dqmc.recovery.escalations", "count"),
        ("service.queue_wait.p50_ms", "ms"),
        ("service.queue_wait.tail_ms", "ms"),
        ("service.run.self_s", "s"),
        ("service.steal.hit_ratio", "ratio"),
        ("service.steal.tasks_moved", "count"),
        ("service.worker.busy_frac", "ratio"),
        ("service.checkpoint.writes", "count"),
        ("service.checkpoint.bytes", "count"),
        ("service.checkpoint.self_s", "s"),
        ("service.admission.rejected", "count"),
        ("runtime.pool.utilization", "ratio"),
        ("runtime.workspace.alloc_ratio", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out.push(("trace.ledger_max_child_frac".into(), "ratio"));
    out
}

/// Per-layer groups a workload does not exercise at all.
fn foreign_layers(w: Which) -> &'static [&'static str] {
    match w {
        Which::GreensPaper => &["dqmc.", "service."],
        Which::DqmcRun => &["service."],
        Which::ServiceMix => &["dqmc."],
    }
}

fn build(w: Which, seed: u64) -> Box<dyn Workload> {
    match w {
        Which::GreensPaper => Box::new(workloads::greens::Greens::setup(seed)),
        Which::DqmcRun => Box::new(workloads::dqmc::Dqmc::setup(seed)),
        Which::ServiceMix => Box::new(workloads::service::ServiceMix::setup(seed)),
    }
}

/// Sets the workload up [`SETUP_REPS`] times and keeps the last; returns
/// it with the median set-up seconds. Set-up is everything before the
/// first timed op: inputs, builders, pools, the service, and one untimed
/// op that finishes lazy initialisation (pool spin-up, scratch
/// workspaces, first-touch page faults).
fn setup(args: &Args) -> (Box<dyn Workload>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = host::Stamp::now();
        let mut w = build(args.workload, args.seed);
        w.warm_up();
        times.push(t.until(&host::Stamp::now()));
        kept = Some(w);
    }
    let w = kept.expect("at least one set-up");
    (w, stats::median(&times).expect("non-empty"))
}

/// Single-thread rate of a batch of eight 64×64 GEMMs, Gflop/s (median of
/// repeated batches): the ceiling every `ceiling_frac` is taken against.
fn batched_ceiling() -> f64 {
    const N: usize = 64;
    const BATCH: usize = 8;
    let a: Vec<Matrix> = (0..BATCH)
        .map(|i| fsi_dense::test_matrix(N, N, i as u64))
        .collect();
    let b: Vec<Matrix> = (0..BATCH)
        .map(|i| fsi_dense::test_matrix(N, N, 100 + i as u64))
        .collect();
    let mut c: Vec<Matrix> = (0..BATCH).map(|_| Matrix::zeros(N, N)).collect();
    let a_refs: Vec<MatRef<'_>> = a.iter().map(Matrix::as_ref).collect();
    let b_refs: Vec<MatRef<'_>> = b.iter().map(Matrix::as_ref).collect();
    let flops = (2 * N * N * N * BATCH) as f64;
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 40 || start.elapsed().as_secs_f64() < 0.2 {
        let mut outs: Vec<MatMut<'_>> = c.iter_mut().map(Matrix::as_mut).collect();
        let t = Instant::now();
        gemm_batched(
            Par::Seq,
            1.0,
            Op::NoTrans,
            BatchOperand::Each(&a_refs),
            Op::NoTrans,
            BatchOperand::Each(&b_refs),
            0.0,
            &mut outs,
        );
        rates.push(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    stats::median(&rates[rates.len() / 4..]).expect("non-empty")
}

/// The median and the workload's tail percentile of `samples`, with the
/// percentile, the sample count and the samples beyond it for the detail
/// line.
fn tail_detail(samples: &[f64], p: f64) -> (Option<f64>, Option<stats::Tail>, Json) {
    let tail = stats::percentile(samples, p);
    let json = Json::Obj(vec![
        ("samples".into(), Json::Int(samples.len() as u64)),
        ("tail_percentile".into(), Json::Num(p)),
        (
            "tail_beyond".into(),
            Json::Int(tail.map_or(0, |t| t.beyond as u64)),
        ),
        (
            "tail_supported".into(),
            Json::Bool(tail.is_some_and(|t| t.supported())),
        ),
    ]);
    (stats::median(samples), tail, json)
}

fn latency_metrics(
    w: Which,
    phase: &Phase,
    m: &mut Metrics,
    detail: &mut Vec<(String, Json)>,
) -> bool {
    let ms: Vec<f64> = phase.latencies.iter().map(|s| s * 1e3).collect();
    let (p50, tail, json) = tail_detail(&ms, w.latency_tail_percentile());
    m.set("latency_p50_ms", p50.unwrap_or(f64::NAN), "ms");
    m.set("latency_tail_ms", tail.map_or(f64::NAN, |t| t.value), "ms");
    detail.push(("latency".into(), json));
    p50.is_some() && tail.is_some()
}

/// `max_err`: the workload's tail percentile of its single checks'
/// deviations `e` from the reference, in decimal digits lost to round-off,
/// [`stats::digits_lost`] — or the workload's own figure on that scale.
fn max_err_digits(w: Which, phase: &Phase, detail: &mut Vec<(String, Json)>) -> f64 {
    let check = &phase.check;
    let p = w.error_percentile();
    let tail = stats::percentile(&check.errors, p).map_or(f64::NAN, |t| t.value);
    detail.push((
        "max_err".into(),
        Json::Obj(vec![
            ("percentile".into(), Json::Num(p)),
            ("deviation_at_percentile".into(), Json::Num(tail)),
            ("checks".into(), Json::Int(check.errors.len() as u64)),
            ("worst".into(), Json::Num(check.max_err)),
        ]),
    ));
    phase
        .max_err_digits
        .unwrap_or_else(|| stats::digits_lost(tail))
}

fn phase_detail(name: &str, p: &Phase) -> (String, Json) {
    let mut kv = vec![
        ("attempted".into(), Json::Int(p.attempted)),
        ("failed".into(), Json::Int(p.failed)),
        ("busy_s".into(), Json::Num(p.busy_s)),
        ("ops_per_s".into(), Json::Num(p.ops_per_s())),
        ("max_err".into(), Json::Num(p.check.max_err)),
        (
            "failures".into(),
            Json::Arr(
                p.check
                    .failures
                    .iter()
                    .take(20)
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
    ];
    kv.extend(p.notes.iter().cloned());
    (name.into(), Json::Obj(kv))
}

fn end_to_end(args: &Args) -> RunResult {
    trace::set_level(TraceLevel::Off);
    let (mut w, setup_s) = setup(args);
    let fingerprint = host::Fingerprint::probe(w.pool_threads());
    trace::clear();
    let before = host::Stamp::now();
    let mut phase = w.run(args.seconds);
    let after = host::Stamp::now();
    let wall = (after.at - before.at).as_secs_f64();
    w.check(&mut phase);
    let recorded = trace::drain().records.len();
    let level_off = trace::level() == TraceLevel::Off && recorded == 0;
    drop(w);

    let mut m = Metrics::default();
    let mut detail = vec![("fingerprint".into(), fingerprint.to_json())];
    m.set("ops_per_s", phase.ops_per_s(), "1/s");
    let enough = latency_metrics(args.workload, &phase, &mut m, &mut detail);
    let max_err = max_err_digits(args.workload, &phase, &mut detail);
    m.set("max_err", max_err, "digits");
    m.set("setup_s", setup_s, "s");
    m.set(
        "peak_rss_mb",
        host::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    detail.push(phase_detail("phase", &phase));
    detail.push((
        "stolen_frac".into(),
        Json::Num(1.0 - before.until(&after) / wall),
    ));
    detail.push(("trace_level_off".into(), Json::Bool(level_off)));
    let complete =
        END_TO_END.iter().all(|(n, _)| m.get(n).is_some()) && m.not_applicable().is_empty();
    RunResult {
        correct: phase.failed == 0 && level_off && enough && complete,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: m,
        detail,
    }
}

fn traced(args: &Args) -> RunResult {
    trace::set_level(TraceLevel::Off);
    let (mut w, _) = setup(args);
    let fingerprint = host::Fingerprint::probe(w.pool_threads());
    let ceiling = batched_ceiling();

    let budget = args.seconds * TRACED_PHASE_SHARE;
    let mut untraced = w.run(budget);
    w.check(&mut untraced);

    trace::clear();
    trace::set_level(TraceLevel::Kernels);
    let before = metrics::snapshot();
    let t = Instant::now();
    let mut phase = w.run(budget);
    let wall = t.elapsed().as_secs_f64();
    let delta = metrics::snapshot().delta_since(&before);
    trace::set_level(TraceLevel::Off);
    let report = RunReport::capture("perfbench");
    // Spans past the collector's cap are counted but not kept; the ledger
    // and every per-layer sum would silently come up short.
    let dropped = report.dropped;
    let spans = Spans::new(report);
    w.check(&mut phase);

    let mut m = Metrics::default();
    let mut ledger = vec![
        Node::new(format!("workload.{}", args.workload.name()), wall).child(
            "timed_ops",
            if args.workload == Which::ServiceMix {
                0.0
            } else {
                phase.busy_s
            },
        ),
    ];
    w.layers(
        &LayerInputs {
            spans: &spans,
            delta: &delta,
            untraced: &untraced,
            ceiling_gflops: ceiling,
        },
        &mut m,
        &mut ledger,
    );
    m.set(
        "trace.overhead_frac",
        1.0 - phase.ops_per_s() / untraced.ops_per_s(),
        "ratio",
    );
    let worst = ledger
        .iter()
        .filter(|n| n.wall_s > 0.0)
        .map(|n| n.children_s() / n.wall_s)
        .fold(0.0, f64::max);
    m.set("trace.ledger_max_child_frac", worst, "ratio");
    let ledger_ok = ledger.iter().all(Node::passes);

    let listed = per_layer();
    let mut missing = Vec::new();
    for (name, unit) in &listed {
        if m.get(name).is_none() {
            if foreign_layers(args.workload)
                .iter()
                .any(|p| name.starts_with(p))
            {
                m.na(name.clone(), unit);
            } else {
                missing.push(Json::Str(name.clone()));
            }
        }
    }
    let extra: Vec<Json> = m
        .names()
        .filter(|n| !listed.iter().any(|(p, _)| p == n))
        .map(|n| Json::Str(n.to_string()))
        .collect();

    let mut serial_failed = 0;
    let mut detail = vec![
        ("fingerprint".into(), fingerprint.to_json()),
        ("ceiling_gflops".into(), Json::Num(ceiling)),
        phase_detail("untraced", &untraced),
        phase_detail("traced", &phase),
    ];
    let mut attempted = untraced.attempted + phase.attempted;
    if let Some(serial) = w.serial_phase() {
        attempted += serial.attempted;
        serial_failed = serial.failed;
        detail.push(phase_detail("serial", serial));
    }
    detail.push((
        "ledger".into(),
        Json::Arr(ledger.iter().map(|n| Json::Str(n.render())).collect()),
    ));
    detail.push(("missing_metrics".into(), Json::Arr(missing.clone())));
    detail.push(("unlisted_metrics".into(), Json::Arr(extra.clone())));
    detail.push(("dropped_spans".into(), Json::Int(dropped)));
    drop(w);
    let failed = untraced.failed + phase.failed + serial_failed;
    RunResult {
        correct: failed == 0 && ledger_ok && missing.is_empty() && extra.is_empty() && dropped == 0,
        attempted,
        failed,
        metrics: m,
        detail,
    }
}

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} correct={} attempted={} failed={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.correct,
        result.attempted,
        result.failed
    );
    print!("{}", result.table());
    println!("detail {}", result.detail_line());
    println!("{}", result.summary_line());
    std::process::exit(if result.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(j: &Json, key: &str) -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let j = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&j, "end_to_end"), e2e);
        let pl: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&j, "per_layer"), pl);
        let names: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Which::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(n <= 128);
    }
}
