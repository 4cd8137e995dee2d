//! Criterion micro-benchmarks of the dense substrate kernels — the
//! building blocks whose throughput determines every figure in the paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fsi_dense::{expm, gemm_op, geqrf, getrf, mul, test_matrix, Matrix, Op};
use fsi_runtime::flops::counts;

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for n in [64usize, 128, 256] {
        let a = test_matrix(n, n, 1);
        let b = test_matrix(n, n, 2);
        g.throughput(Throughput::Elements(counts::gemm(n, n, n)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(mul(&a, &b)));
        });
    }
    g.finish();
}

fn bench_gemm_trans(c: &mut Criterion) {
    // The packed engine canonicalizes all four Op combos into the same
    // panel layout at pack time, so TN/NT/TT should track the NN rate
    // (within 1.5× is the acceptance bar; the old rank-1 kernel was up to
    // 6× slower on TT).
    let n = 128usize;
    let a = test_matrix(n, n, 1);
    let b = test_matrix(n, n, 2);
    let mut out = Matrix::zeros(n, n);
    let mut g = c.benchmark_group("gemm_trans");
    g.throughput(Throughput::Elements(counts::gemm(n, n, n)));
    for (label, opa, opb) in [
        ("nn", Op::NoTrans, Op::NoTrans),
        ("tn", Op::Trans, Op::NoTrans),
        ("nt", Op::NoTrans, Op::Trans),
        ("tt", Op::Trans, Op::Trans),
    ] {
        g.bench_function(label, |bench| {
            bench.iter(|| {
                gemm_op(
                    fsi_runtime::Par::Seq,
                    1.0,
                    opa,
                    a.as_ref(),
                    opb,
                    b.as_ref(),
                    0.0,
                    out.as_mut(),
                );
                std::hint::black_box(&mut out);
            });
        });
    }
    g.finish();
}

fn bench_gemm_trace_overhead(c: &mut Criterion) {
    // The observability acceptance bar: with tracing *disabled* (the
    // default), the span/charge hooks on the gemm hot path must stay
    // under 2% overhead at N = 64. Compare `gemm_trace/off` against
    // `gemm_trace/stages` and `gemm_trace/kernels` to see the cost of
    // enabling collection.
    use fsi_runtime::trace;
    let n = 64usize;
    let a = test_matrix(n, n, 1);
    let b = test_matrix(n, n, 2);
    let mut g = c.benchmark_group("gemm_trace");
    g.throughput(Throughput::Elements(counts::gemm(n, n, n)));
    for (label, level) in [
        ("off", fsi_runtime::TraceLevel::Off),
        ("stages", fsi_runtime::TraceLevel::Stages),
        ("kernels", fsi_runtime::TraceLevel::Kernels),
    ] {
        trace::set_level(level);
        g.bench_function(label, |bench| {
            bench.iter(|| std::hint::black_box(mul(&a, &b)));
        });
        trace::set_level(fsi_runtime::TraceLevel::Off);
        trace::clear();
    }
    g.finish();
}

fn bench_getrf(c: &mut Criterion) {
    let mut g = c.benchmark_group("getrf");
    for n in [64usize, 128, 256] {
        let mut a = test_matrix(n, n, 3);
        a.add_diag(n as f64);
        g.throughput(Throughput::Elements(counts::getrf(n, n)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(getrf(a.clone()).expect("nonsingular")));
        });
    }
    g.finish();
}

fn bench_geqrf_panel(c: &mut Criterion) {
    // The exact 2N×N panel shape BSOFI factors.
    let mut g = c.benchmark_group("geqrf_2NxN");
    for n in [64usize, 128, 256] {
        let a = test_matrix(2 * n, n, 4);
        g.throughput(Throughput::Elements(counts::geqrf(2 * n, n)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(geqrf(a.clone())));
        });
    }
    g.finish();
}

fn bench_ormqr(c: &mut Criterion) {
    // Applying Qᵀ from the right to a wide slab — BSOFI's stage C shape.
    let mut g = c.benchmark_group("apply_qt_right");
    for n in [64usize, 128] {
        let f = geqrf(test_matrix(2 * n, n, 5));
        let slab = test_matrix(6 * n, 2 * n, 6);
        g.throughput(Throughput::Elements(counts::ormqr(2 * n, n, 6 * n)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let mut s = slab.clone();
                f.apply_qt_right(fsi_runtime::Par::Seq, s.as_mut());
                std::hint::black_box(s);
            });
        });
    }
    g.finish();
}

fn bench_expm(c: &mut Criterion) {
    let mut g = c.benchmark_group("expm");
    for n in [16usize, 36, 64] {
        let lat = fsi_pcyclic::SquareLattice::square((n as f64).sqrt() as usize);
        let mut k = lat.adjacency();
        k.scale(0.125);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(expm(&k).expect("finite")));
        });
    }
    g.finish();
}

fn bench_invert_upper(c: &mut Criterion) {
    let mut g = c.benchmark_group("invert_upper");
    for n in [64usize, 128] {
        let r = test_matrix(n, n, 9);
        let u = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + r[(i, j)].abs()
            } else if i < j {
                0.3 * r[(i, j)]
            } else {
                0.0
            }
        });
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let mut x = u.clone();
                fsi_dense::tri::invert_upper(x.as_mut());
                std::hint::black_box(x);
            });
        });
    }
    g.finish();
}

criterion_group!(
    kernels,
    bench_gemm,
    bench_gemm_trans,
    bench_gemm_trace_overhead,
    bench_getrf,
    bench_geqrf_panel,
    bench_ormqr,
    bench_expm,
    bench_invert_upper
);
criterion_main!(kernels);
