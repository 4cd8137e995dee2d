//! Command-line parsing: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use std::fmt;

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `fsi_measurement_set` at the paper's validation point, one caller.
    GreensPaper,
    /// Full `fsi_dqmc::run` simulations; one op is one Monte Carlo sweep.
    DqmcRun,
    /// Closed-loop mixed job load into the durable service.
    ServiceMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GreensPaper,
        Workload::DqmcRun,
        Workload::ServiceMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GreensPaper => "greens_paper",
            Workload::DqmcRun => "dqmc_run",
            Workload::ServiceMix => "service_mix",
        }
    }

    /// The percentile `latency_tail_ms` reports: the highest that leaves ten
    /// samples beyond it at the design rate of a 28 s run (≈120 calls,
    /// ≈40 sweeps, ≈10 000 jobs). See [`crate::stats::percentile`].
    pub fn latency_tail_percentile(self) -> f64 {
        match self {
            Workload::GreensPaper => 90.0,
            Workload::DqmcRun => 60.0,
            Workload::ServiceMix => 99.0,
        }
    }

    /// The percentile of single-check deviations `max_err` reports, chosen
    /// the same way (≈480 checked blocks per greens run, ≈10 000 per
    /// service run; `dqmc_run` reports a mean over its simulations instead).
    pub fn error_percentile(self) -> f64 {
        match self {
            Workload::GreensPaper | Workload::DqmcRun => 95.0,
            Workload::ServiceMix => 99.0,
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Parsed arguments of one benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// `false`: end-to-end metrics with tracing off; `true`: the traced
    /// run reporting per-layer metrics.
    pub trace: bool,
}

/// A malformed command line.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nusage: perfbench --workload <greens_paper|dqmc_run|service_mix> \
             --seed <u64> --seconds <positive number> --trace <0|1>",
            self.0
        )
    }
}

/// Parses the argument list (without the program name). Accepts both
/// `--key value` and `--key=value`; every key is required exactly once.
pub fn parse<I, S>(args: I) -> Result<Args, ArgError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter().map(|s| s.as_ref().to_string());
    while let Some(arg) = it.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            return Err(ArgError(format!("unexpected argument `{arg}`")));
        };
        let (key, value) = match flag.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError(format!("--{flag} needs a value")))?;
                (flag.to_string(), v)
            }
        };
        let slot_taken = |taken: bool| {
            if taken {
                Err(ArgError(format!("--{key} given twice")))
            } else {
                Ok(())
            }
        };
        match key.as_str() {
            "workload" => {
                slot_taken(workload.is_some())?;
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| ArgError(format!("unknown workload `{value}`")))?,
                );
            }
            "seed" => {
                slot_taken(seed.is_some())?;
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| ArgError(format!("--seed `{value}` is not a u64")))?,
                );
            }
            "seconds" => {
                slot_taken(seconds.is_some())?;
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        ArgError(format!("--seconds `{value}` is not a positive number"))
                    })?;
                seconds = Some(s);
            }
            "trace" => {
                slot_taken(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ArgError(format!("--trace `{value}` must be 0 or 1"))),
                });
            }
            _ => return Err(ArgError(format!("unknown flag --{key}"))),
        }
    }
    let missing = |what: &str| ArgError(format!("missing --{what}"));
    Ok(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_space_separated_values() {
        let a = parse([
            "--workload",
            "dqmc_run",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::DqmcRun,
                seed: 17,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn parses_equals_form_in_any_order() {
        let a = parse([
            "--trace=0",
            "--seconds=2.5",
            "--seed=18446744073709551615",
            "--workload=service_mix",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ServiceMix);
        assert_eq!(a.seed, u64::MAX);
        assert_eq!(a.seconds, 2.5);
        assert!(!a.trace);
    }

    #[test]
    fn rejects_malformed_input() {
        let full = |w: &str, s: &str, secs: &str, t: &str| {
            parse([
                "--workload",
                w,
                "--seed",
                s,
                "--seconds",
                secs,
                "--trace",
                t,
            ])
        };
        assert!(full("nope", "1", "1", "0").is_err());
        assert!(full("greens_paper", "-1", "1", "0").is_err());
        assert!(full("greens_paper", "x", "1", "0").is_err());
        assert!(full("greens_paper", "1", "0", "0").is_err());
        assert!(full("greens_paper", "1", "nan", "0").is_err());
        assert!(full("greens_paper", "1", "1", "2").is_err());
        assert!(full("greens_paper", "1", "1", "0").is_ok());
        assert!(parse([
            "--workload",
            "greens_paper",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(parse(["--seed", "1", "--seed", "2"]).is_err());
        assert!(parse(["--seed"]).is_err());
        assert!(parse(["positional"]).is_err());
        assert!(parse(["--bogus", "1"]).is_err());
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
