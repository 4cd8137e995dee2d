//! Per-layer metrics shared by the workloads: dense kernels, selinv
//! stages, and ledger nodes assembled from spans.

use fsi_runtime::metrics::MetricsSnapshot;

use crate::ledger::{Node, Spans};
use crate::report::Metrics;

/// The dense kernel spans the program opens at `FSI_TRACE=kernels`.
pub const KERNELS: [&str; 8] = [
    "gemm",
    "gemm_batched",
    "getrf",
    "getri",
    "trsm",
    "trtri",
    "geqrf",
    "ormqr",
];

/// Stage span families of the selinv crate (outermost occurrence counts).
pub const CLS: [&str; 2] = ["cls", "cls.cache_miss"];
/// BSOFI span family.
pub const BSOFI: [&str; 3] = ["bsofi", "bsofi.selected", "bsofi.lookahead"];
/// WRP span family.
pub const WRAP: [&str; 1] = ["wrap"];

/// Wall, flops and self time of a span family.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stage {
    /// Outermost occurrences.
    pub calls: usize,
    /// Inclusive seconds of the outermost occurrences.
    pub incl_s: f64,
    /// Inclusive flops of the outermost occurrences.
    pub flops: u64,
    /// Summed self time of every occurrence.
    pub self_s: f64,
}

impl Stage {
    /// Measures a span family.
    pub fn of(spans: &Spans, names: &[&str]) -> Stage {
        let outer = spans.outermost(names);
        Stage {
            calls: outer.len(),
            incl_s: spans.seconds(&outer),
            flops: spans.flops(&outer),
            self_s: names.iter().map(|n| spans.self_of(n)).sum(),
        }
    }

    /// Inclusive rate in Gflop/s.
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / self.incl_s / 1e9
    }
}

/// `dense.<k>.{calls,flops,self_s,gflops,ceiling_frac}` for every kernel,
/// plus `dense.ceiling_gflops`. Kernels run one per thread, so their rate
/// is compared with the single-thread ceiling.
pub fn dense(spans: &Spans, ceiling: f64, m: &mut Metrics) {
    for k in KERNELS {
        let s = Stage::of(spans, &[k]);
        let key = |leaf: &str| format!("dense.{k}.{leaf}");
        if s.calls == 0 {
            for (leaf, unit) in [
                ("calls", "count"),
                ("flops", "flop"),
                ("self_s", "s"),
                ("gflops", "Gflop/s"),
                ("ceiling_frac", "ratio"),
            ] {
                m.na(key(leaf), unit);
            }
            continue;
        }
        m.set(key("calls"), s.calls as f64, "count");
        m.set(key("flops"), s.flops as f64, "flop");
        m.set(key("self_s"), s.self_s, "s");
        m.set(key("gflops"), s.gflops(), "Gflop/s");
        m.set(key("ceiling_frac"), s.gflops() / ceiling, "ratio");
    }
    m.set("dense.ceiling_gflops", ceiling, "Gflop/s");
}

/// Whether span `i` is a dense kernel span.
pub fn is_kernel(spans: &Spans, i: usize) -> bool {
    KERNELS.contains(&spans.row(i).name.as_str())
}

/// A ledger node whose parent is every span named in `parents` and whose
/// children are, per group, the cover of the parent's direct children
/// named in that group.
pub fn node(spans: &Spans, label: &str, parents: &[&str], groups: &[(&str, &[&str])]) -> Node {
    let idx = spans.outermost(parents);
    let mut n = Node::new(label, spans.seconds(&idx));
    for (child, names) in groups {
        let cover = idx
            .iter()
            .map(|&p| spans.child_cover(p, |c| names.contains(&spans.row(c).name.as_str())))
            .sum::<f64>();
        n = n.child(*child, cover);
    }
    n
}

/// The selinv stage metrics and the fsi → stage → kernel ledger nodes.
///
/// `wrap_hosts` names the spans that call `fsi_measurement_set`: its
/// column and all-diagonal wraps open no stage span, so their kernels hang
/// directly off the host and are added to WRP here. `threads` is the
/// parallelism the stages ran with; `wrap_model` is `(N, L, c)` when every
/// `wrap` span is a rows/columns wrap priced by `3(bL − b²)N³`.
pub fn selinv(
    spans: &Spans,
    wrap_hosts: &[&str],
    threads: usize,
    ceiling: f64,
    wrap_model: Option<(usize, usize, usize)>,
    m: &mut Metrics,
    ledger: &mut Vec<Node>,
) {
    let stage_ceiling = ceiling * threads as f64;
    let mut wrap = Stage::of(spans, &WRAP);
    let wrap_span_flops = wrap.flops;
    let wrap_span_calls = wrap.calls;
    for host in spans.outermost(wrap_hosts) {
        wrap.incl_s += spans.child_cover(host, |c| is_kernel(spans, c));
        wrap.flops += spans
            .children(host)
            .iter()
            .filter(|&&c| is_kernel(spans, c))
            .map(|&c| spans.row(c).flops)
            .sum::<u64>();
    }
    for (name, s) in [
        ("cls", Stage::of(spans, &CLS)),
        ("bsofi", Stage::of(spans, &BSOFI)),
        ("wrap", wrap),
    ] {
        let key = |leaf: &str| format!("selinv.{name}.{leaf}");
        if s.calls == 0 && s.incl_s == 0.0 {
            m.na(key("self_s"), "s");
            m.na(key("gflops"), "Gflop/s");
            m.na(key("ceiling_frac"), "ratio");
            continue;
        }
        m.set(key("self_s"), s.self_s, "s");
        m.set(key("gflops"), s.gflops(), "Gflop/s");
        m.set(key("ceiling_frac"), s.gflops() / stage_ceiling, "ratio");
    }
    match wrap_model {
        Some((n, l, c)) if wrap_span_calls > 0 => {
            let model = fsi_selinv::wrap::wrap_flops(n, l, c) as f64 * wrap_span_calls as f64;
            m.set(
                "selinv.wrap.model_ratio",
                wrap_span_flops as f64 / model,
                "ratio",
            );
        }
        _ => m.na("selinv.wrap.model_ratio", "ratio"),
    }
    if spans.named("fsi").next().is_some() {
        m.set("selinv.fsi.self_s", spans.self_of("fsi"), "s");
    } else {
        m.na("selinv.fsi.self_s", "s");
    }

    ledger.push(node(
        spans,
        "selinv.fsi",
        &["fsi"],
        &[
            ("selinv.cls", &CLS),
            ("selinv.bsofi", &BSOFI),
            ("selinv.wrap", &WRAP),
        ],
    ));
    for (label, family) in [
        ("selinv.cls", &CLS[..]),
        ("selinv.bsofi", &BSOFI[..]),
        ("selinv.wrap", &WRAP[..]),
    ] {
        let mut groups: Vec<(&str, &[&str])> = vec![("dense", &KERNELS[..])];
        if label == "selinv.bsofi" {
            groups.push(("selinv.bsofi.inner", &BSOFI[1..]));
        }
        ledger.push(node(spans, label, family, &groups));
    }
}

/// Counter-ratio `num / (num + other)` from a registry delta; NaN (→ not
/// applicable) when neither moved.
pub fn share(delta: &MetricsSnapshot, num: &str, other: &str) -> f64 {
    let a = delta.counter(num) as f64;
    let b = delta.counter(other) as f64;
    a / (a + b)
}

/// `runtime.workspace.alloc_ratio`: scratch allocations per borrow.
pub fn workspace(delta: &MetricsSnapshot, m: &mut Metrics) {
    let borrows = delta.counter("runtime.workspace.borrows") as f64;
    let allocs = delta.counter("runtime.workspace.allocs") as f64;
    m.set("runtime.workspace.alloc_ratio", allocs / borrows, "ratio");
}
