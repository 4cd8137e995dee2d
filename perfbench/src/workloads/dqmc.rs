//! `dqmc_run`: back-to-back `fsi_dqmc::run` simulations of a 10×10
//! Hubbard lattice at U = 4, β = 8, L = 64, c = 8, each with one warmup
//! and one measurement sweep and an independent seed, on a pool of two
//! threads. One op is one Monte Carlo sweep.
//!
//! A sweep's latency is read from outside the program: a watcher thread
//! samples the always-on `dqmc.sweep.proposed` counter (a sweep advances
//! it once, when it ends) and the `dqmc.refresh.ns` histogram every 2 ms.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fsi_dqmc::{DqmcConfig, DqmcResults};
use fsi_pcyclic::{BlockBuilder, HsField, Spin, SquareLattice};
use fsi_runtime::trace::Json;
use fsi_runtime::ThreadPool;
use fsi_selinv::Parallelism;
use rand::SeedableRng;

use super::greens::pool_busy_idle;
use super::{LayerInputs, Phase, Workload};
use crate::host::Stamp;
use crate::layers;
use crate::ledger::Node;
use crate::reference::check_half_filling;
use crate::report::Metrics;
use crate::stats::{derive_seed, digits_lost};

/// Pool threads.
pub const THREADS: usize = 2;
/// Warmup sweeps per simulation (equal to the measurement sweeps).
pub const SWEEPS_EACH: usize = 1;

/// The configuration of simulation `i` of a workload seeded `seed`.
pub fn config(seed: u64, i: u64) -> DqmcConfig {
    DqmcConfig {
        nx: 10,
        ny: 10,
        t: 1.0,
        u: 4.0,
        beta: 8.0,
        l: 64,
        c: 8,
        warmup: SWEEPS_EACH,
        measurements: SWEEPS_EACH,
        stabilize_every: 8,
        delay: 1,
        seed: derive_seed(seed, i),
    }
}

/// Sweeps one simulation performs.
pub fn sweeps_per_run(cfg: &DqmcConfig) -> u64 {
    (cfg.warmup + cfg.measurements) as u64
}

/// What the watcher saw move.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Event {
    /// `dqmc.sweep.proposed` advanced: a sweep ended.
    SweepEnd,
    /// The `dqmc.refresh.ns` histogram counted a refresh: the first one of
    /// a simulation ends its cold set-up, so its first sweep starts there.
    RefreshEnd,
}

/// Records when the sweep counter or the refresh histogram moves.
struct Watcher {
    stop: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<(Stamp, Event)>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watcher {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let events = Arc::new(Mutex::new(Vec::new()));
        let (s, e) = (Arc::clone(&stop), Arc::clone(&events));
        let thread = std::thread::Builder::new()
            .name("perfbench-watch".into())
            .spawn(move || {
                let sweeps = fsi_runtime::metrics::counter("dqmc.sweep.proposed");
                let refreshes = fsi_runtime::metrics::histogram("dqmc.refresh.ns");
                let mut last = (sweeps.value(), refreshes.snapshot().count());
                while !s.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(2));
                    let now = (sweeps.value(), refreshes.snapshot().count());
                    let at = Stamp::now();
                    let mut log = e.lock().unwrap();
                    if now.1 != last.1 {
                        log.push((at, Event::RefreshEnd));
                    }
                    if now.0 != last.0 {
                        log.push((at, Event::SweepEnd));
                    }
                    last = now;
                }
            })
            .expect("spawn watcher");
        Watcher {
            stop,
            events,
            thread: Some(thread),
        }
    }

    fn stop(mut self) -> Vec<(Stamp, Event)> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("watcher thread");
        }
        std::mem::take(&mut *self.events.lock().unwrap())
    }
}

/// Built inputs of the workload.
pub struct Dqmc {
    seed: u64,
    pool: ThreadPool,
    next_run: u64,
    pool_mark: (f64, f64),
    /// Results of the last phase, awaiting the check.
    results: Vec<(DqmcConfig, Result<DqmcResults, String>)>,
}

impl Dqmc {
    /// Builds the pool; every simulation's input is its configuration.
    pub fn setup(seed: u64) -> Self {
        Dqmc {
            seed,
            pool: ThreadPool::new(THREADS),
            next_run: 0,
            pool_mark: (0.0, 0.0),
            results: Vec::new(),
        }
    }
}

impl Workload for Dqmc {
    fn pool_threads(&self) -> usize {
        THREADS
    }

    fn warm_up(&mut self) {
        let mut cfg = config(self.seed, u64::MAX);
        cfg.measurements = 0;
        let _ = fsi_dqmc::run(&cfg, Parallelism::OpenMp(&self.pool));
    }

    fn run(&mut self, budget_s: f64) -> Phase {
        self.pool_mark = pool_busy_idle(&self.pool);
        let mut phase = Phase::default();
        let mut calls: Vec<(Stamp, Stamp)> = Vec::new();
        let watcher = Watcher::start();
        while phase.busy_s < budget_s {
            let cfg = config(self.seed, self.next_run);
            self.next_run += 1;
            let t0 = Stamp::now();
            let span = fsi_runtime::trace::span("bench.dqmc.run");
            let out = fsi_dqmc::run(&cfg, Parallelism::OpenMp(&self.pool));
            drop(span);
            let t1 = Stamp::now();
            phase.busy_s += (t1.at - t0.at).as_secs_f64();
            phase.attempted += sweeps_per_run(&cfg);
            if out.is_ok() {
                phase
                    .rates
                    .push(sweeps_per_run(&cfg) as f64 / t0.until(&t1));
            }
            calls.push((t0, t1));
            self.results.push((cfg, out.map_err(|e| format!("{e:?}"))));
        }
        let events = watcher.stop();

        // Sweep latencies: the first sweep of a simulation runs from the end
        // of its cold set-up refresh, each later one from the previous
        // sweep's end. (With one measurement sweep, the measurement phase
        // follows the last sweep and is in no sweep's latency.)
        let mut unmatched = 0u64;
        for (t0, t1) in &calls {
            let mine: Vec<&(Stamp, Event)> = events
                .iter()
                .filter(|(t, _)| t.at > t0.at && t.at <= t1.at)
                .collect();
            let mut prev = mine
                .iter()
                .find(|(_, e)| *e == Event::RefreshEnd)
                .map(|(t, _)| t);
            let mut ends = 0u64;
            for (t, _) in mine.iter().filter(|(_, e)| *e == Event::SweepEnd) {
                if let Some(p) = prev {
                    phase.latencies.push(p.until(t));
                }
                prev = Some(t);
                ends += 1;
            }
            unmatched += (SWEEPS_EACH as u64 * 2).abs_diff(ends);
        }
        phase
            .notes
            .push(("sweep_ends_unmatched".into(), Json::Int(unmatched)));
        phase.notes.push((
            "simulation_s".into(),
            Json::Arr(
                calls
                    .iter()
                    .map(|(t0, t1)| Json::Num(t0.until(t1)))
                    .collect(),
            ),
        ));
        phase
    }

    fn check(&mut self, phase: &mut Phase) {
        for (cfg, out) in std::mem::take(&mut self.results) {
            match out {
                Ok(r) => {
                    let check =
                        check_half_filling(&r.density, &r.avg_sign, cfg.measurements as u64);
                    if !check.passed() {
                        phase.failed += sweeps_per_run(&cfg);
                    }
                    phase.check.absorb(check);
                }
                Err(e) => {
                    phase.failed += sweeps_per_run(&cfg);
                    phase.check.failures.push(e);
                }
            }
        }
        // A run holds only ≈20 simulations, each one density a few to a few
        // hundred ulps from 1. Any tail of them, or a bound pooled over
        // them, is set by whichever outliers the run drew (18% spread over
        // ten seeds); their mean on the digits scale (a geometric mean)
        // repeats. Every simulation is still held to the tolerance above.
        let digits: Vec<f64> = phase.check.errors.iter().map(|&e| digits_lost(e)).collect();
        if !digits.is_empty() {
            phase.max_err_digits = Some(digits.iter().sum::<f64>() / digits.len() as f64);
        }
    }

    fn layers(&mut self, input: &LayerInputs<'_>, m: &mut Metrics, ledger: &mut Vec<Node>) {
        let spans = input.spans;
        let delta = input.delta;
        layers::dense(spans, input.ceiling_gflops, m);
        let probe = config(self.seed, 0);
        layers::selinv(
            spans,
            &["green"],
            THREADS,
            input.ceiling_gflops,
            Some((probe.nx * probe.ny, probe.l, probe.c)),
            m,
            ledger,
        );
        m.set(
            "selinv.cluster_cache.hit_ratio",
            layers::share(
                delta,
                "selinv.cluster_cache.hits",
                "selinv.cluster_cache.misses",
            ),
            "ratio",
        );
        m.set(
            "pcyclic.block_cache.reuse_ratio",
            layers::share(
                delta,
                "pcyclic.block_cache.reused",
                "pcyclic.block_cache.rebuilt",
            ),
            "ratio",
        );
        // Blocks the program builds: block-cache rebuilds in the sweep plus
        // two spins × L blocks per measurement set. Their cost is priced by
        // a probe of the same builder outside the traced phase.
        let measurements = spans.named("green").count() as u64;
        let built =
            delta.counter("pcyclic.block_cache.rebuilt") + 2 * probe.l as u64 * measurements;
        m.set("pcyclic.build.calls", built as f64, "count");
        m.set(
            "pcyclic.build.self_s",
            built as f64 * block_build_seconds(&probe),
            "s",
        );
        m.na("selinv.parallel_eff", "ratio");

        // Sweep phases. The sweep forks both spins through `sweep.spin_par`
        // for its wraps and its refreshes; a fork that contains a
        // `wrap.factored` span is a wrap.
        let is_wrap_fork = |i: usize| {
            spans.row(i).name == "sweep.spin_par"
                && spans
                    .children(i)
                    .iter()
                    .any(|&c| spans.row(c).name == "wrap.factored")
        };
        let is_refresh_fork = |i: usize| spans.row(i).name == "sweep.spin_par" && !is_wrap_fork(i);
        let (mut wrap_calls, mut wrap_s, mut refresh_s, mut local_s) = (0usize, 0.0, 0.0, 0.0);
        let mut refresh_calls = 0usize;
        for sw in spans.named("sweep") {
            let kids = spans.children(sw);
            wrap_calls += kids.iter().filter(|&&c| is_wrap_fork(c)).count();
            refresh_calls += kids.iter().filter(|&&c| is_refresh_fork(c)).count();
            wrap_s += spans.child_cover(sw, is_wrap_fork);
            refresh_s += spans.child_cover(sw, is_refresh_fork);
            local_s += spans.self_seconds(sw);
        }
        m.set("dqmc.sweep.self_s", local_s, "s");
        m.set(
            "dqmc.sweep.acceptance",
            delta.counter("dqmc.sweep.accepted") as f64
                / delta.counter("dqmc.sweep.proposed") as f64,
            "ratio",
        );
        m.set("dqmc.wrap.calls", wrap_calls as f64, "count");
        m.set("dqmc.wrap.self_s", wrap_s, "s");
        m.set("dqmc.refresh.calls", refresh_calls as f64, "count");
        m.set("dqmc.refresh.self_s", refresh_s, "s");
        m.set("dqmc.green.self_s", spans.self_of("green"), "s");
        m.set("dqmc.measure.self_s", spans.self_of("measurement"), "s");
        let escalations: u64 = delta
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("dqmc.recovery."))
            .map(|(_, v)| *v)
            .sum();
        m.set("dqmc.recovery.escalations", escalations as f64, "count");

        let (busy, idle) = pool_busy_idle(&self.pool);
        let (busy, idle) = (busy - self.pool_mark.0, idle - self.pool_mark.1);
        m.set("runtime.pool.utilization", busy / (busy + idle), "ratio");
        layers::workspace(delta, m);

        ledger.push(layers::node(
            spans,
            "workload.dqmc_run.call",
            &["bench.dqmc.run"],
            &[("dqmc", &["dqmc"])],
        ));
        ledger.push(layers::node(
            spans,
            "dqmc",
            &["dqmc"],
            &[
                ("dqmc.sweep", &["sweep"]),
                ("dqmc.green", &["green"]),
                ("dqmc.measure", &["measurement"]),
            ],
        ));
        let sweep_s: f64 = spans.named("sweep").map(|i| spans.row(i).seconds()).sum();
        ledger.push(
            Node::new("dqmc.sweep", sweep_s)
                .child("dqmc.refresh", refresh_s)
                .child("dqmc.wrap", wrap_s),
        );
        // Cross-instrument check: the refresh histogram times every
        // refresh (including each simulation's initial one) around the
        // fork the spans see.
        let refresh_hist = delta
            .histograms
            .get("dqmc.refresh.ns")
            .map_or(0.0, |h| h.sum() as f64 * 1e-9);
        let all_refresh_forks: f64 = spans
            .named("sweep.spin_par")
            .filter(|&i| is_refresh_fork(i))
            .map(|i| spans.row(i).seconds())
            .sum();
        ledger.push(
            Node::new("dqmc.refresh.histogram", refresh_hist)
                .child("dqmc.refresh.forks", all_refresh_forks),
        );
        ledger.push(layers::node(
            spans,
            "dqmc.green",
            &["green"],
            &[
                ("selinv.fsi", &["fsi"]),
                ("selinv.wrap.unspanned", &layers::KERNELS),
            ],
        ));
    }
}

/// Median seconds to build one p-cyclic block at the simulation's shape,
/// probed on the harness thread.
fn block_build_seconds(cfg: &DqmcConfig) -> f64 {
    let builder = BlockBuilder::new(SquareLattice::new(cfg.nx, cfg.ny), cfg.params());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    let field = HsField::random(cfg.l, cfg.nx * cfg.ny, &mut rng);
    let mut per_block: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(builder.all_blocks(&field, Spin::Up));
            t.elapsed().as_secs_f64() / cfg.l as f64
        })
        .collect();
    per_block.sort_by(f64::total_cmp);
    per_block[per_block.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_repeat_for_a_seed_and_differ_across_runs() {
        let a = config(11, 3);
        let b = config(11, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(config(11, 3).seed, config(11, 4).seed);
        assert_ne!(config(11, 3).seed, config(12, 3).seed);
        assert_eq!(a.warmup, a.measurements);
        assert_eq!(sweeps_per_run(&a), 2);
        assert_eq!(a.l % a.c, 0);
    }
}
