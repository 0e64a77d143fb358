//! Black-Scholes option pricing (paper Section IV-A).
//!
//! "The input is a vector of data, from which options should be
//! calculated. The division of the task consists in giving a range of
//! the input vector to each thread. The complexity of the algorithm is
//! O(n)." One item = one option; the kernel computes the closed-form
//! European call and put prices.

use plb_hetsim::CostModel;
use plb_rng::ChaCha8Rng;
use plb_runtime::{Codelet, DisjointOutput, PuResources};
use std::ops::Range;
use std::sync::Arc;

/// The Black-Scholes application over `n` options.
#[derive(Debug, Clone)]
pub struct BlackScholes {
    /// Number of options.
    pub options: u64,
}

impl BlackScholes {
    /// Create the application.
    pub fn new(options: u64) -> BlackScholes {
        assert!(options > 0, "need at least one option");
        BlackScholes { options }
    }

    /// Total work items.
    pub fn total_items(&self) -> u64 {
        self.options
    }

    /// The simulator cost model.
    pub fn cost(&self) -> BsCost {
        BsCost
    }
}

/// Per-option cost. The paper's formulation "includes a random walk
/// term, which models random fluctuations of prices over time": the
/// evaluated kernel prices each option by simulating random-walk paths
/// (Monte Carlo), ~1 MFLOP per option (e.g. 2500 paths × ~400
/// step-operations). The bare ~200-FLOP closed form would be so cheap
/// that distributing 500k options across a cluster could never pay for
/// a single kernel launch, contradicting the paper's measured speedups.
/// 20 bytes of parameters in, 8 bytes of prices out.
#[derive(Debug, Clone)]
pub struct BsCost;

/// FLOPs per option (random-walk Monte Carlo pricing).
const FLOPS_PER_OPTION: f64 = 1.0e6;

/// Independent walk paths per option: the fine-grained parallelism a
/// GPU can spread one option over.
const PATHS_PER_OPTION: f64 = 128.0;

impl CostModel for BsCost {
    fn name(&self) -> &str {
        "black-scholes"
    }

    fn flops(&self, items: u64) -> f64 {
        FLOPS_PER_OPTION * items as f64
    }

    fn bytes_in(&self, items: u64) -> f64 {
        20.0 * items as f64 // S, K, T, r, sigma as f32
    }

    fn bytes_out(&self, items: u64) -> f64 {
        8.0 * items as f64 // call + put
    }

    fn threads(&self, items: u64) -> f64 {
        items as f64 * PATHS_PER_OPTION
    }
}

/// One option's parameters.
#[derive(Debug, Clone, Copy)]
pub struct OptionSpec {
    /// Spot price.
    pub s: f32,
    /// Strike.
    pub k: f32,
    /// Time to expiry in years.
    pub t: f32,
    /// Risk-free rate.
    pub r: f32,
    /// Volatility.
    pub sigma: f32,
}

/// Host data: the option vector.
pub struct BsData {
    /// Option parameters.
    pub options: Vec<OptionSpec>,
}

impl BsData {
    /// Generate a random but deterministic option book.
    pub fn generate(n: usize, seed: u64) -> BsData {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let options = (0..n)
            .map(|_| OptionSpec {
                s: rng.gen_range(10.0..200.0),
                k: rng.gen_range(10.0..200.0),
                t: rng.gen_range(0.1..3.0),
                r: rng.gen_range(0.0..0.08),
                sigma: rng.gen_range(0.05..0.9),
            })
            .collect();
        BsData { options }
    }
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 polynomial
/// approximation of erf (max abs error ≈ 1.5e-7), the same approximation
/// the CUDA SDK Black-Scholes sample uses.
pub fn norm_cdf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let ax = x.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * ax);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-ax * ax).exp();
    0.5 * (1.0 + sign * y)
}

/// Closed-form European call and put prices.
pub fn price(o: &OptionSpec) -> (f64, f64) {
    let s = o.s as f64;
    let k = o.k as f64;
    let t = o.t as f64;
    let r = o.r as f64;
    let sigma = o.sigma as f64;
    let sqrt_t = t.sqrt();
    let d1 = ((s / k).ln() + (r + 0.5 * sigma * sigma) * t) / (sigma * sqrt_t);
    let d2 = d1 - sigma * sqrt_t;
    let disc = (-r * t).exp();
    let call = s * norm_cdf(d1) - k * disc * norm_cdf(d2);
    let put = k * disc * norm_cdf(-d2) - s * norm_cdf(-d1);
    (call, put)
}

/// The standard normal density.
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// The Black-Scholes Greeks of a European option pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Greeks {
    /// ∂call/∂S (the put's delta is `delta - 1`).
    pub delta: f64,
    /// ∂²V/∂S² (same for call and put).
    pub gamma: f64,
    /// ∂V/∂σ per 1.0 of volatility (same for call and put).
    pub vega: f64,
    /// ∂call/∂t per year (time decay; negative for long options).
    pub theta_call: f64,
    /// ∂call/∂r per 1.0 of rate.
    pub rho_call: f64,
}

/// Closed-form Greeks.
///
/// ```
/// use plb_apps::blackscholes::{greeks, OptionSpec};
///
/// let o = OptionSpec { s: 100.0, k: 100.0, t: 1.0, r: 0.05, sigma: 0.2 };
/// let g = greeks(&o);
/// // At the money, a call's delta is a bit above 0.5.
/// assert!(g.delta > 0.5 && g.delta < 0.7);
/// assert!(g.gamma > 0.0 && g.vega > 0.0);
/// ```
pub fn greeks(o: &OptionSpec) -> Greeks {
    let s = o.s as f64;
    let k = o.k as f64;
    let t = o.t as f64;
    let r = o.r as f64;
    let sigma = o.sigma as f64;
    let sqrt_t = t.sqrt();
    let d1 = ((s / k).ln() + (r + 0.5 * sigma * sigma) * t) / (sigma * sqrt_t);
    let d2 = d1 - sigma * sqrt_t;
    let disc = (-r * t).exp();
    Greeks {
        delta: norm_cdf(d1),
        gamma: norm_pdf(d1) / (s * sigma * sqrt_t),
        vega: s * norm_pdf(d1) * sqrt_t,
        theta_call: -(s * norm_pdf(d1) * sigma) / (2.0 * sqrt_t) - r * k * disc * norm_cdf(d2),
        rho_call: k * t * disc * norm_cdf(d2),
    }
}

/// The real CPU codelet: prices its option range.
pub struct BsCodelet {
    data: Arc<BsData>,
    /// Output (call, put) per option; each task claims its option
    /// range as a [`DisjointOutput`] view.
    prices: Arc<DisjointOutput<(f64, f64)>>,
}

impl BsCodelet {
    /// Wrap host data.
    pub fn new(data: Arc<BsData>) -> BsCodelet {
        let prices = Arc::new(DisjointOutput::new((0.0, 0.0), data.options.len()));
        BsCodelet { data, prices }
    }

    /// The computed (call, put) prices.
    pub fn results(&self) -> Vec<(f64, f64)> {
        self.prices.snapshot()
    }
}

impl Codelet for BsCodelet {
    fn name(&self) -> &str {
        "black-scholes"
    }

    fn execute(&self, range: Range<u64>, res: &PuResources) {
        res.for_each_chunk(range, |sub| {
            let (lo, hi) = (sub.start as usize, sub.end as usize);
            let mut out = self.prices.writer(lo..hi);
            for (slot, option) in out.iter_mut().zip(&self.data.options[lo..hi]) {
                *slot = price(option);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_hetsim::PuKind;

    #[test]
    fn norm_cdf_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.959964) - 0.975).abs() < 1e-4);
        assert!((norm_cdf(-1.959964) - 0.025).abs() < 1e-4);
        assert!(norm_cdf(8.0) > 0.999999);
        assert!(norm_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn known_price_point() {
        // Classic textbook case: S=100, K=100, T=1, r=5%, sigma=20%
        // → call ≈ 10.4506, put ≈ 5.5735.
        let o = OptionSpec {
            s: 100.0,
            k: 100.0,
            t: 1.0,
            r: 0.05,
            sigma: 0.2,
        };
        let (c, p) = price(&o);
        assert!((c - 10.4506).abs() < 1e-3, "call = {c}");
        assert!((p - 5.5735).abs() < 1e-3, "put = {p}");
    }

    #[test]
    fn put_call_parity_holds_for_random_book() {
        let data = BsData::generate(500, 11);
        for o in &data.options {
            let (c, p) = price(o);
            let parity = c - p;
            let expect = o.s as f64 - o.k as f64 * (-(o.r as f64) * o.t as f64).exp();
            assert!(
                (parity - expect).abs() < 1e-4 * (1.0 + expect.abs()),
                "parity violated: {parity} vs {expect} for {o:?}"
            );
        }
    }

    #[test]
    fn call_increases_with_spot() {
        let base = OptionSpec {
            s: 100.0,
            k: 100.0,
            t: 1.0,
            r: 0.02,
            sigma: 0.3,
        };
        let (c1, _) = price(&base);
        let (c2, _) = price(&OptionSpec { s: 110.0, ..base });
        assert!(c2 > c1);
    }

    #[test]
    fn codelet_prices_range_only() {
        let data = Arc::new(BsData::generate(10, 5));
        let codelet = BsCodelet::new(Arc::clone(&data));
        codelet.execute(
            3..7,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        // Bit-for-bit the reference inside the range (a deep
        // out-of-the-money call may price at exactly 0.0, so "non-zero"
        // is not the property), untouched outside it.
        for (i, got) in codelet.results().into_iter().enumerate() {
            let want = if (3..7).contains(&i) {
                price(&data.options[i])
            } else {
                (0.0, 0.0)
            };
            assert_eq!(got, want, "option {i}");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let data = Arc::new(BsData::generate(256, 9));
        let a = BsCodelet::new(Arc::clone(&data));
        a.execute(
            0..256,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let b = BsCodelet::new(Arc::clone(&data));
        b.execute(
            0..256,
            &PuResources {
                threads: 8,
                kind: PuKind::Gpu,
            },
        );
        assert_eq!(a.results(), b.results());
    }

    #[test]
    fn greeks_match_finite_differences() {
        let o = OptionSpec {
            s: 120.0,
            k: 100.0,
            t: 0.75,
            r: 0.03,
            sigma: 0.35,
        };
        let g = greeks(&o);
        // f32 option fields quantize small bumps; a larger h keeps the
        // central differences well-conditioned (error is O(h²)).
        let h = 0.05;

        // Delta: bump spot.
        let up = price(&OptionSpec { s: o.s + h, ..o }).0;
        let dn = price(&OptionSpec { s: o.s - h, ..o }).0;
        let fd_delta = (up - dn) / (2.0 * h as f64);
        assert!(
            (g.delta - fd_delta).abs() < 1e-3,
            "{} vs {fd_delta}",
            g.delta
        );

        // Gamma: second difference in spot.
        let mid = price(&o).0;
        let fd_gamma = (up - 2.0 * mid + dn) / (h as f64 * h as f64);
        assert!(
            (g.gamma - fd_gamma).abs() < 1e-3 * (1.0 + g.gamma.abs()),
            "{} vs {fd_gamma}",
            g.gamma
        );

        // Vega: bump volatility.
        let up = price(&OptionSpec {
            sigma: o.sigma + h,
            ..o
        })
        .0;
        let dn = price(&OptionSpec {
            sigma: o.sigma - h,
            ..o
        })
        .0;
        let fd_vega = (up - dn) / (2.0 * h as f64);
        assert!(
            (g.vega - fd_vega).abs() < 1e-2 * g.vega.abs(),
            "{} vs {fd_vega}",
            g.vega
        );

        // Rho: bump the rate.
        let up = price(&OptionSpec { r: o.r + h, ..o }).0;
        let dn = price(&OptionSpec { r: o.r - h, ..o }).0;
        let fd_rho = (up - dn) / (2.0 * h as f64);
        assert!((g.rho_call - fd_rho).abs() < 1e-2 * g.rho_call.abs());

        // Theta: bump time to expiry (note theta is -dV/dT_expiry).
        let up = price(&OptionSpec { t: o.t + h, ..o }).0;
        let dn = price(&OptionSpec { t: o.t - h, ..o }).0;
        let fd_theta = -(up - dn) / (2.0 * h as f64);
        assert!(
            (g.theta_call - fd_theta).abs() < 2e-2 * g.theta_call.abs(),
            "{} vs {fd_theta}",
            g.theta_call
        );
    }

    #[test]
    fn delta_bounds_and_monotonicity() {
        let base = OptionSpec {
            s: 100.0,
            k: 100.0,
            t: 1.0,
            r: 0.02,
            sigma: 0.25,
        };
        let mut last = 0.0;
        for s in [50.0f32, 80.0, 100.0, 120.0, 200.0] {
            let g = greeks(&OptionSpec { s, ..base });
            assert!(g.delta > 0.0 && g.delta < 1.0);
            assert!(g.delta > last, "delta must rise with spot");
            last = g.delta;
        }
    }

    #[test]
    fn pdf_integrates_to_cdf_slope() {
        for x in [-2.0, -0.5, 0.0, 0.7, 1.9] {
            let h = 1e-5;
            let slope = (norm_cdf(x + h) - norm_cdf(x - h)) / (2.0 * h);
            assert!((slope - norm_pdf(x)).abs() < 1e-4);
        }
    }

    #[test]
    fn cost_is_linear() {
        let c = BlackScholes::new(100).cost();
        assert_eq!(c.flops(200), 2.0 * c.flops(100));
        assert_eq!(c.threads(50), 50.0 * PATHS_PER_OPTION);
    }
}
