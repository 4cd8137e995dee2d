//! The three workloads behind one interface.

pub mod dqmc;
pub mod greens;
pub mod service;

use fsi_runtime::metrics::MetricsSnapshot;
use fsi_runtime::trace::Json;

use crate::ledger::{Node, Spans};
use crate::reference::Check;
use crate::report::Metrics;

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Phase {
    /// Ops started.
    pub attempted: u64,
    /// Ops that returned an error or failed their reference check.
    pub failed: u64,
    /// Per-op latencies, in seconds.
    pub latencies: Vec<f64>,
    /// Seconds of the timed region.
    pub busy_s: f64,
    /// Throughput samples in ops/s, one per op, simulation or one-second
    /// window; `ops_per_s` is their median, which a burst of interference
    /// on a shared host moves less than a total would.
    pub rates: Vec<f64>,
    /// Reference-check outcome over the phase's ops.
    pub check: Check,
    /// `max_err` in digits, for a workload whose checks are too few and
    /// too heavy-tailed for a tail percentile of them to repeat.
    pub max_err_digits: Option<f64>,
    /// Workload-specific detail.
    pub notes: Vec<(String, Json)>,
}

impl Phase {
    /// Completed ops per second: the median throughput sample.
    pub fn ops_per_s(&self) -> f64 {
        crate::stats::median(&self.rates).unwrap_or(f64::NAN)
    }
}

/// Inputs the traced run hands to a workload's per-layer accounting.
pub struct LayerInputs<'a> {
    /// Spans of the traced phase.
    pub spans: &'a Spans,
    /// Registry change over the traced phase.
    pub delta: &'a MetricsSnapshot,
    /// The untraced phase of the same run.
    pub untraced: &'a Phase,
    /// Single-thread batched-GEMM rate measured in this run, Gflop/s.
    pub ceiling_gflops: f64,
}

/// A benchmark workload: built once per set-up repetition, then driven in
/// phases of a given length.
pub trait Workload {
    /// Threads of the workload's pool (per service worker for the service).
    fn pool_threads(&self) -> usize;

    /// One untimed op (lazy set-up: pool spin-up, workspaces, page faults).
    fn warm_up(&mut self);

    /// Runs ops for about `budget_s` seconds of timed region, keeping what
    /// the reference check needs.
    fn run(&mut self, budget_s: f64) -> Phase;

    /// Checks the ops of the last [`Workload::run`] against the independent
    /// reference, counting failures into `phase`.
    fn check(&mut self, phase: &mut Phase);

    /// Per-layer metrics and ledger nodes of a traced phase.
    fn layers(&mut self, input: &LayerInputs<'_>, m: &mut Metrics, ledger: &mut Vec<Node>);

    /// The serial pass [`Workload::layers`] made, if any.
    fn serial_phase(&self) -> Option<&Phase> {
        None
    }
}
