//! Order statistics for latency and error samples.

/// Samples a reported tail percentile should have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// A tail percentile and how well it is supported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// How many samples rank beyond it.
    pub beyond: usize,
    /// Total sample count.
    pub n: usize,
}

impl Tail {
    /// Whether at least [`TAIL_MIN_BEYOND`] samples rank beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= TAIL_MIN_BEYOND
    }
}

/// The nearest-rank `p`-th percentile of `xs`; `None` when empty.
///
/// Each workload reports its tail at a fixed percentile: the highest of
/// p50, p60, …, p90, p95, p99, p99.9 that leaves at least ten samples
/// beyond it at the workload's op rate. A percentile chosen per run from
/// the run's own sample count would jump a rung whenever a change moved
/// the op rate across a threshold, and a faster program would then report
/// a worse tail.
pub fn percentile(xs: &[f64], p: f64) -> Option<Tail> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Tail {
        percentile: p,
        value: sorted(xs)[rank - 1],
        beyond: n - rank,
        n,
    })
}

/// Decimal digits a deviation `e` costs relative to double-precision
/// round-off: `log10(1 + e/ε)`, ε = 2⁻⁵². Round-off errors spread over
/// orders of magnitude between inputs; on this scale a bound of 0.25 is
/// about half a digit.
pub fn digits_lost(e: f64) -> f64 {
    (1.0 + e / f64::EPSILON).log10()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Derives an independent 64-bit seed for stream `k` of a workload seed
/// (SplitMix64 finalizer), so per-call seeds never collide with the
/// workload seed itself or with each other.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_counts_the_samples_beyond() {
        assert_eq!(percentile(&[], 90.0), None);
        // 1..=100 shuffled: p90 is 90 with exactly ten beyond.
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let t = percentile(&xs, 90.0).unwrap();
        assert_eq!((t.value, t.beyond, t.n), (90.0, 10, 100));
        assert!(t.supported());
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), t.beyond);
        // p99 of the same samples has one beyond: not supported.
        let t = percentile(&xs, 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (99.0, 1));
        assert!(!t.supported());
        // Edges: p100 is the maximum, p0 the minimum.
        assert_eq!(percentile(&xs, 100.0).unwrap().value, 100.0);
        assert_eq!(percentile(&xs, 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn ten_beyond_needs_ten_over_one_minus_p_samples() {
        // The workloads' fixed percentiles and the sample counts they need.
        for (p, need) in [(60.0, 25), (90.0, 100), (95.0, 200), (99.0, 1000)] {
            let xs: Vec<f64> = (0..need).map(f64::from).collect();
            assert!(percentile(&xs, p).unwrap().supported(), "p{p} n={need}");
            let fewer: Vec<f64> = (0..need - 1).map(f64::from).collect();
            assert!(!percentile(&fewer, p).unwrap().supported(), "p{p}");
        }
    }

    #[test]
    fn digits_lost_counts_decades_of_epsilon() {
        assert_eq!(digits_lost(0.0), 0.0);
        assert!((digits_lost(9.0 * f64::EPSILON) - 1.0).abs() < 1e-12);
        assert!((digits_lost(999.0 * f64::EPSILON) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|k| derive_seed(7, k)).collect();
        let b: Vec<u64> = (0..64).map(|k| derive_seed(7, k)).collect();
        assert_eq!(a, b);
        let mut u = a.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), a.len());
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
