//! Order statistics, output digests and the seeded arrival schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` of an ascending slice, under the tail
/// rule: a percentile is reported only when at least [`TAIL_SAMPLES`]
/// samples lie beyond it; otherwise the highest percentile that has
/// them is reported instead. Returns `(percentile used, value)`, or
/// `None` when no percentile qualifies.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    // The epsilon keeps `0.99 × 1000` from rounding up past rank 990.
    let want = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    let rank = want.min(n - TAIL_SAMPLES);
    let used = if rank == want {
        q
    } else {
        rank as f64 / n as f64
    };
    Some((used, sorted[rank - 1]))
}

/// The value [`tail_percentile`] reports, or NaN when nothing qualifies.
pub fn tail_value(sorted: &[f64], q: f64) -> f64 {
    tail_percentile(sorted, q).map_or(f64::NAN, |(_, v)| v)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` quantile of unsorted values, interpolating linearly between
/// the closest ranks (NaN for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values.to_vec());
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The throughput statistic of a workload's sub-window rates: their
/// upper decile. On a machine shared with other tenants, slow spells
/// only stretch the slow end of the distribution, while a change to the
/// program moves all of it. The rates go to stderr in the order they
/// were measured.
pub fn throughput(workload: &str, rates: &[f64]) -> f64 {
    let text: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("{workload} sub-window rates: {}", text.join(" "));
    quantile(rates, 0.9)
}

/// Sorts latency samples in place and returns them for percentile use.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Streaming 64-bit FNV-1a over the bits of a run's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds the exact bits of an `f64` into the digest.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64 finalizer: derives well-separated sub-seeds from the
/// benchmark seed so that workloads and streams never share one.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = (seed ^ tag.rotate_left(32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Poisson arrivals: send times, in nanoseconds from the start of
/// the schedule, with exponential gaps of mean `1 / rate`.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: StdRng,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl PoissonSchedule {
    /// A schedule of `rate_per_s` arrivals per second drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_s` is finite and positive.
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "arrival rate must be positive"
        );
        let mut schedule = PoissonSchedule {
            rng: StdRng::seed_from_u64(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            next_ns: 0.0,
        };
        schedule.next_ns = schedule.gap();
        schedule
    }

    fn gap(&mut self) -> f64 {
        let u: f64 = self.rng.gen();
        -(1.0 - u).ln() * self.mean_gap_ns
    }
}

impl Iterator for PoissonSchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let at = self.next_ns as u64;
        self.next_ns += self.gap();
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(tail_percentile(&v, 0.99), Some((0.99, 990.0)));
        assert_eq!(tail_percentile(&v, 0.5), Some((0.5, 500.0)));
        // 500 samples: p99 would leave 5 beyond, so the highest
        // qualifying percentile (490/500) is reported instead.
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some((0.98, 490.0)));
        // Eleven samples support exactly one percentile; ten support none.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.5), Some((1.0 / 11.0, 1.0)));
        assert_eq!(tail_percentile(&v[..10], 0.5), None);
        assert!(tail_value(&[], 0.5).is_nan());
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.75), 4.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        assert!(quantile(&[], 0.75).is_nan());
        let rates: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(throughput("test", &rates), 10.0);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let a: Vec<u64> = PoissonSchedule::new(40_000.0, 7).take(50_000).collect();
        let b: Vec<u64> = PoissonSchedule::new(40_000.0, 7).take(50_000).collect();
        assert_eq!(a, b, "same seed, same schedule");
        let c: Vec<u64> = PoissonSchedule::new(40_000.0, 8).take(50_000).collect();
        assert_ne!(a, c, "another seed moves the schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "times never go back");
        // 50 000 arrivals at 40k/s span 1.25 s; the mean gap of an
        // exponential sample that size lies within 2% of 25 µs.
        let mean_gap = *a.last().expect("nonempty") as f64 / a.len() as f64;
        assert!(
            (mean_gap - 25_000.0).abs() < 500.0,
            "mean gap {mean_gap} ns"
        );
    }

    #[test]
    fn digest_sees_every_bit() {
        let d = |x: f64| Digest::default().f64(x).hex();
        assert_eq!(d(1.0), d(1.0));
        assert_ne!(d(0.0), d(-0.0));
        assert_ne!(d(1.0), d(1.0 + f64::EPSILON));
        assert_eq!(d(1.0).len(), 16);
        let mut ab = Digest::default();
        ab.u64(1).u64(2);
        let mut ba = Digest::default();
        ba.u64(2).u64(1);
        assert_ne!(ab, ba, "order matters");
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
