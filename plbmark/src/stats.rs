//! The benchmark's statistics, done once: median, quartiles, the tail
//! percentile that still has ten samples beyond it, geometric mean,
//! and the seed derivation. Every timing the benchmark prints goes
//! through [`Summary`], so a sample count stands beside each of them.

/// Samples in ascending order, NaNs last.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The value at fraction `q` of the way through ascending `sorted`,
/// interpolating between neighbours. `q` is clamped to `[0, 1]`.
fn at_fraction(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `samples`; NaN when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The value `q` of the way through `samples` in ascending order.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    at_fraction(&sorted(samples), q)
}

/// Arithmetic mean; NaN when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of positive samples; NaN when there are none or one
/// is not positive.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() || samples.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The highest whole percentile, from 50 to 99, of ascending `s` that
/// still has at least ten samples at or beyond it, with the value
/// there. `None` below twenty samples, where even the median has fewer
/// than ten beyond it.
fn tail(s: &[f64]) -> Option<(u32, f64)> {
    (50..=99u32)
        .rev()
        .map(|p| (p, (s.len() as f64 * f64::from(p) / 100.0).ceil() as usize))
        .find(|&(_, index)| s.len() >= index + 10)
        .map(|(p, index)| (p, s[index]))
}

/// What the benchmark prints for a set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest percentile with ten samples at or beyond it, and the
    /// value there.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarize `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            median: at_fraction(&s, 0.5),
            q1: at_fraction(&s, 0.25),
            q3: at_fraction(&s, 0.75),
            tail: tail(&s),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.6} (q1 {:.6}, q3 {:.6}, n={}",
            self.median, self.q1, self.q3, self.n
        )?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{p} {v:.6}")?;
        }
        write!(f, ")")
    }
}

/// One step of splitmix64: a well-mixed 64-bit value from `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of stream `stream`, element `index`, under the benchmark's
/// `--seed`: the only place randomness enters the benchmark.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 1.0), 5.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(Summary::of(&[7.0]).q3, 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        // 20 samples: only the median has ten at or beyond it.
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50, 10.0)));
        // 100 samples: p90 has exactly ten beyond it, p91 only nine.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        // 1000 samples reach the cap of p99.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99, 990.0)));
    }

    #[test]
    fn geomean_of_ratios_and_its_refusals() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        // splitmix64 reference value for input 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        let a = derive_seed(1, 2, 3);
        assert_eq!(a, derive_seed(1, 2, 3));
        let all = [
            a,
            derive_seed(2, 2, 3),
            derive_seed(1, 3, 3),
            derive_seed(1, 2, 4),
            derive_seed(1, 3, 2),
        ];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }
}
