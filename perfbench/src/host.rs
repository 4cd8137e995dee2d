//! Host fingerprint and process-level probes read from `/proc`.

use std::time::Instant;

use fsi_runtime::trace::Json;

/// What every result is stamped with, so numbers from different hosts or
/// kernel tiers are never compared silently.
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The dense kernel tier the calling thread dispatches to.
    pub kernel_tier: &'static str,
    /// Threads in the workload's pool (per worker for the service).
    pub pool_threads: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
}

impl Fingerprint {
    /// Probes the current host for a workload running `pool_threads`.
    pub fn probe(pool_threads: usize) -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_tier: fsi_dense::active_tier().name(),
            pool_threads,
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Int(self.nproc as u64)),
            ("kernel_tier".into(), Json::Str(self.kernel_tier.into())),
            ("pool_threads".into(), Json::Int(self.pool_threads as u64)),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
        ])
    }
}

fn cpu_model() -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// A point in time on the benchmark's clock: wall time plus the CPU time
/// the hypervisor had stolen from this machine's CPUs so far.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    /// Wall-clock instant.
    pub at: Instant,
    /// Stolen seconds so far, averaged over the CPUs.
    pub stolen_s: f64,
}

impl Stamp {
    /// Reads the clock.
    pub fn now() -> Self {
        Stamp {
            at: Instant::now(),
            stolen_s: stolen_seconds_per_cpu(),
        }
    }

    /// Seconds from `self` to `later`, less the time the hypervisor stole
    /// in between. On a shared virtual machine stolen time is the largest
    /// source of run-to-run spread and says nothing about the program, so
    /// every op time is reported without it. Where the kernel reports no
    /// steal the correction is zero.
    pub fn until(&self, later: &Stamp) -> f64 {
        let wall = (later.at - self.at).as_secs_f64();
        let stolen = (later.stolen_s - self.stolen_s).clamp(0.0, wall);
        wall - stolen
    }
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`, in
/// seconds per CPU (clock ticks are 1/100 s). Zero when unavailable.
pub fn stolen_seconds_per_cpu() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let mut lines = stat.lines();
    let Some(total) = lines.next().filter(|l| l.starts_with("cpu ")) else {
        return 0.0;
    };
    let cpus = lines.filter(|l| l.starts_with("cpu")).count().max(1);
    // Fields after the label: user nice system idle iowait irq softirq steal.
    let steal: f64 = total
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    steal / 100.0 / cpus as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total CPU seconds (user + system) of this process's threads whose
/// name starts with `prefix`.
pub fn thread_cpu_seconds(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    // Linux reports thread CPU time in clock ticks, 100 per second on
    // every mainstream configuration.
    const TICKS_PER_SECOND: f64 = 100.0;
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(dir.join("stat")) else {
            continue;
        };
        // Fields after the parenthesised command: state is field 3, utime
        // and stime are fields 14 and 15.
        if let Some((_, rest)) = stat.rsplit_once(')') {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = fields.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
            let stime: u64 = fields.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
            ticks += utime + stime;
        }
    }
    ticks as f64 / TICKS_PER_SECOND
}
