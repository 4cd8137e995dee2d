//! `service_mix`: one generator thread keeps eight jobs outstanding in a
//! durable `Service` with two single-threaded workers. Four tenants take
//! turns; 80% of jobs are N = 16 diagonal-pattern jobs, 20% are N = 36
//! rows-pattern jobs (L = 32, c = 8, 4 sweeps each). One op is one job.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crossbeam_channel::{RecvTimeoutError, TryRecvError};
use fsi_runtime::trace::Json;
use fsi_selinv::Pattern;
use fsi_service::{JobEvent, JobHandle, JobSpec, JobSummary, Service, ServiceConfig};
use rand::{Rng, SeedableRng};

use super::{LayerInputs, Phase, Workload};
use crate::cli::Workload as Which;
use crate::host::{thread_cpu_seconds, Stamp};
use crate::layers;
use crate::ledger::Node;
use crate::reference::replay_job;
use crate::report::Metrics;
use crate::stats::{derive_seed, median, percentile};

/// Service workers.
pub const WORKERS: usize = 2;
/// Jobs the generator keeps in flight.
pub const OUTSTANDING: usize = 8;
/// Every this-many-th job is replayed against the reference.
pub const SAMPLE_EVERY: u64 = 16;
/// Where the durable state of a run lives, under the working directory.
pub const STATE_ROOT: &str = ".perfbench_state";

/// Job `j` of a workload seeded `seed`.
pub fn spec(seed: u64, j: u64) -> JobSpec {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(derive_seed(seed, 2 << 40 | j));
    let job_seed = rng.gen::<u64>();
    sized(j, job_seed, rng.gen::<f64>() < 0.2)
}

/// Job `j` with a given seed: N = 36 rows-pattern when `large`, else
/// N = 16 diagonal-pattern.
fn sized(j: u64, job_seed: u64, large: bool) -> JobSpec {
    let tenant = format!("tenant{}", j % 4);
    if large {
        let mut s = JobSpec::new(tenant, 6, 32, 8, 4, job_seed);
        s.pattern = Pattern::Rows;
        s
    } else {
        JobSpec::new(tenant, 4, 32, 8, 4, job_seed)
    }
}

struct Pending {
    index: u64,
    spec: JobSpec,
    handle: JobHandle,
    bins: Vec<(usize, Vec<f64>)>,
    failed: bool,
    submitted: Stamp,
}

/// The running service and its state directory.
pub struct ServiceMix {
    seed: u64,
    dir: PathBuf,
    service: Option<Service>,
    next_job: u64,
    summaries: Vec<JobSummary>,
    cpu_mark: f64,
    wall_s: f64,
    /// Sampled finished jobs of the last phase, awaiting the replay.
    sampled: Vec<(u64, JobSpec, Bins)>,
}

/// A job's measurement bins, `(sweep, quantities)` in sweep order.
type Bins = Vec<(usize, Vec<f64>)>;

fn fresh_dir(seed: u64) -> PathBuf {
    let dir = PathBuf::from(STATE_ROOT).join(format!("{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

impl ServiceMix {
    /// Starts a durable service on a fresh state directory.
    pub fn setup(seed: u64) -> Self {
        let dir = fresh_dir(seed);
        let cfg = ServiceConfig {
            state_dir: Some(dir.clone()),
            // Far above the 8 × 4 sweeps ever pending: admission never
            // rejects.
            queue_capacity: 1 << 16,
            // Jobs have four sweeps; the default cadence of eight bins would
            // never checkpoint one.
            checkpoint_every: 2,
            ..ServiceConfig::small(WORKERS)
        };
        ServiceMix {
            seed,
            dir,
            service: Some(Service::start(cfg)),
            next_job: 0,
            summaries: Vec::new(),
            cpu_mark: 0.0,
            wall_s: 0.0,
            sampled: Vec::new(),
        }
    }

    /// Submits the next job of the plan.
    fn submit_next(&mut self, phase: &mut Phase) -> Option<Pending> {
        let index = self.next_job;
        self.next_job += 1;
        self.submit(index, spec(self.seed, index), phase)
    }

    fn submit(&mut self, index: u64, spec: JobSpec, phase: &mut Phase) -> Option<Pending> {
        phase.attempted += 1;
        let handle = self.service.as_ref()?.handle();
        let submitted = Stamp::now();
        match handle.submit(spec.clone()) {
            Ok(h) => Some(Pending {
                index,
                spec,
                handle: h,
                bins: Vec::new(),
                failed: false,
                submitted,
            }),
            Err(e) => {
                phase.failed += 1;
                phase
                    .check
                    .failures
                    .push(format!("job {index} rejected: {e:?}"));
                None
            }
        }
    }

    /// Drains a job's events; returns its summary once finished.
    fn poll(p: &mut Pending, wait: Option<Duration>) -> Option<JobSummary> {
        loop {
            let ev = match wait {
                Some(d) => match p.handle.events().recv_timeout(d) {
                    Ok(ev) => ev,
                    Err(RecvTimeoutError::Timeout) => return None,
                    Err(RecvTimeoutError::Disconnected) => return Some(lost(p)),
                },
                None => match p.handle.events().try_recv() {
                    Ok(ev) => ev,
                    Err(TryRecvError::Empty) => return None,
                    Err(TryRecvError::Disconnected) => return Some(lost(p)),
                },
            };
            match ev {
                JobEvent::Bin { sweep, quantities } => p.bins.push((sweep, quantities)),
                JobEvent::Degraded { .. }
                | JobEvent::Failed { .. }
                | JobEvent::Cancelled { .. } => p.failed = true,
                JobEvent::Finished(s) => return Some(s),
            }
        }
    }
}

fn lost(p: &mut Pending) -> JobSummary {
    p.failed = true;
    JobSummary {
        job_id: p.handle.id(),
        tenant: p.spec.tenant.clone(),
        sweeps: p.spec.sweeps,
        completed_bins: p.bins.len(),
        degradations: 0,
        c_final: 0,
        failed: true,
        cancelled: false,
        retries: 0,
        queue_wait_ns: 0,
        latency_ns: 0,
    }
}

impl Workload for ServiceMix {
    fn pool_threads(&self) -> usize {
        1
    }

    /// Eight rounds of eight jobs, every fifth one large (a fixed mix, so
    /// the set-up time does not depend on how the seed draws sizes): enough
    /// to start every worker, grow the journal and take the first
    /// checkpoints, and long enough not to be at the mercy of one scheduler
    /// hiccup.
    fn warm_up(&mut self) {
        let mut untimed = Phase::default();
        for round in 0..8u64 {
            let mut jobs: Vec<Pending> = (0..OUTSTANDING as u64)
                .filter_map(|k| {
                    let j = u64::MAX - (round * OUTSTANDING as u64 + k);
                    let job_seed = derive_seed(self.seed, j);
                    self.submit(j, sized(j, job_seed, j.is_multiple_of(5)), &mut untimed)
                })
                .collect();
            for p in &mut jobs {
                while Self::poll(p, Some(Duration::from_millis(50))).is_none() {}
            }
        }
    }

    fn run(&mut self, budget_s: f64) -> Phase {
        let mut phase = Phase::default();
        self.summaries.clear();
        self.cpu_mark = thread_cpu_seconds("fsi-service-");
        // Throughput is counted per one-second window of the time jobs are
        // being submitted (the drain after it runs with fewer than eight
        // jobs in flight); `edges` are the window boundaries.
        let first = Stamp::now();
        let start = first.at;
        let windows = budget_s.floor().max(1.0) as usize;
        let mut edges = vec![first];
        let mut pending: Vec<Pending> = Vec::with_capacity(OUTSTANDING);
        let mut last_done = start;
        let mut done_at: Vec<Instant> = Vec::new();
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            if edges.len() <= windows && elapsed >= edges.len() as f64 {
                edges.push(Stamp::now());
            }
            let open = elapsed < budget_s;
            while open && pending.len() < OUTSTANDING {
                match self.submit_next(&mut phase) {
                    Some(p) => pending.push(p),
                    None => break,
                }
            }
            if pending.is_empty() {
                break;
            }
            // Block briefly on the oldest job, then sweep the rest.
            let mut i = 0;
            while i < pending.len() {
                let wait = (i == 0).then_some(Duration::from_millis(1));
                match Self::poll(&mut pending[i], wait) {
                    None => i += 1,
                    Some(summary) => {
                        let done = Stamp::now();
                        last_done = done.at;
                        let mut p = pending.swap_remove(i);
                        p.bins.sort_by_key(|(s, _)| *s);
                        let ok = !p.failed
                            && !summary.failed
                            && !summary.cancelled
                            && summary.degradations == 0
                            && p.bins.len() == p.spec.sweeps;
                        if !ok {
                            phase.failed += 1;
                            phase
                                .check
                                .failures
                                .push(format!("job {} did not complete cleanly", p.index));
                        } else {
                            // Latency as the submitter sees it: submit to
                            // the final event, less stolen time.
                            phase.latencies.push(p.submitted.until(&done));
                            done_at.push(last_done);
                            if p.index.is_multiple_of(SAMPLE_EVERY) {
                                self.sampled.push((p.index, p.spec, p.bins));
                            }
                        }
                        self.summaries.push(summary);
                    }
                }
            }
        }
        self.wall_s = (last_done - start).as_secs_f64();
        phase.busy_s = self.wall_s;
        phase.rates = edges
            .windows(2)
            .map(|w| {
                let jobs = done_at
                    .iter()
                    .filter(|&&t| t >= w[0].at && t < w[1].at)
                    .count();
                jobs as f64 / w[0].until(&w[1])
            })
            .collect();
        phase
    }

    fn check(&mut self, phase: &mut Phase) {
        let sampled = std::mem::take(&mut self.sampled);
        phase
            .notes
            .push(("replayed_jobs".into(), Json::Int(sampled.len() as u64)));
        for (index, spec, bins) in sampled {
            let mut check = replay_job(&spec, &bins);
            if !check.passed() {
                phase.failed += 1;
            }
            for f in &mut check.failures {
                *f = format!("job {index}: {f}");
            }
            phase.check.absorb(check);
        }
    }

    fn layers(&mut self, input: &LayerInputs<'_>, m: &mut Metrics, ledger: &mut Vec<Node>) {
        let spans = input.spans;
        let delta = input.delta;
        let busy_cpu = thread_cpu_seconds("fsi-service-") - self.cpu_mark;
        layers::dense(spans, input.ceiling_gflops, m);
        layers::selinv(spans, &[], 1, input.ceiling_gflops, None, m, ledger);
        m.na("selinv.cluster_cache.hit_ratio", "ratio");
        m.na("selinv.parallel_eff", "ratio");
        m.na("pcyclic.block_cache.reuse_ratio", "ratio");
        // Job matrices are built inside the workers' Build step, which
        // opens no span; that time is part of `service.run.self_s`.
        m.na("pcyclic.build.calls", "count");
        m.na("pcyclic.build.self_s", "s");

        let waits: Vec<f64> = self
            .summaries
            .iter()
            .map(|s| s.queue_wait_ns as f64 * 1e-6)
            .collect();
        m.set(
            "service.queue_wait.p50_ms",
            median(&waits).unwrap_or(f64::NAN),
            "ms",
        );
        m.set(
            "service.queue_wait.tail_ms",
            percentile(&waits, Which::ServiceMix.latency_tail_percentile())
                .map_or(f64::NAN, |t| t.value),
            "ms",
        );
        let fsi_s: f64 = spans.seconds(&spans.outermost(&["fsi"]));
        let ckpt_s = delta.counter("service.checkpoint.ns") as f64 * 1e-9;
        // Worker time outside the selinv stages and checkpoint writes:
        // building, measuring, queueing, stealing, journaling and idling.
        let capacity = WORKERS as f64 * self.wall_s;
        m.set("service.run.self_s", capacity - fsi_s - ckpt_s, "s");
        m.set(
            "service.steal.hit_ratio",
            delta.counter("runtime.steal.hits") as f64
                / delta.counter("runtime.steal.attempts") as f64,
            "ratio",
        );
        m.set(
            "service.steal.tasks_moved",
            delta.counter("runtime.steal.tasks_moved") as f64,
            "count",
        );
        m.set(
            "service.worker.busy_frac",
            busy_cpu / (WORKERS as f64 * self.wall_s),
            "ratio",
        );
        m.set(
            "service.checkpoint.writes",
            delta.counter("service.checkpoint.writes") as f64,
            "count",
        );
        m.set(
            "service.checkpoint.bytes",
            delta.counter("service.checkpoint.bytes") as f64,
            "count",
        );
        m.set("service.checkpoint.self_s", ckpt_s, "s");
        m.set(
            "service.admission.rejected",
            delta.counter("service.jobs.rejected") as f64,
            "count",
        );
        m.na("runtime.pool.utilization", "ratio");
        layers::workspace(delta, m);

        ledger.push(
            Node::new("service.workers.capacity", capacity)
                .child("selinv.fsi", fsi_s)
                .child("service.checkpoint", ckpt_s),
        );
    }
}

impl Drop for ServiceMix {
    fn drop(&mut self) {
        if let Some(s) = self.service.take() {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // Remove the root too when no other run is using it.
        let _ = std::fs::remove_dir(STATE_ROOT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_repeats_and_has_the_stated_shares() {
        let a: Vec<String> = (0..2000).map(|j| format!("{:?}", spec(3, j))).collect();
        let b: Vec<String> = (0..2000).map(|j| format!("{:?}", spec(3, j))).collect();
        assert_eq!(a, b);
        let rows = (0..2000)
            .filter(|&j| spec(3, j).pattern == Pattern::Rows)
            .count();
        assert!((340..460).contains(&rows), "{rows} of 2000 rows jobs");
        for j in 0..64 {
            let s = spec(3, j);
            assert!(s.validate().is_ok());
            assert_eq!(s.tenant, format!("tenant{}", j % 4));
            assert_eq!(s.side, if s.pattern == Pattern::Rows { 6 } else { 4 });
        }
        // Model flops of the mix repeat exactly.
        let flops = |seed| (0..500).map(|j| spec(seed, j).flop_estimate()).sum::<u64>();
        assert_eq!(flops(3), flops(3));
    }
}
