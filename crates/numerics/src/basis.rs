//! The paper's performance-model basis functions.
//!
//! Section III-B of the paper fits the per-processing-unit execution time
//! as `F_p[x] = a_1 f_1(x) + ... + a_n f_n(x)` where each `f_i` is drawn
//! from `{ln x, x, x², x³, eˣ, x·eˣ, x·ln x}` (plus a constant term for
//! fixed overheads). This module provides those functions together with
//! first and second derivatives — the block-size selection's Newton steps
//! need the slopes of the fitted curves, and its interior-point oracle
//! their Hessians too.
//!
//! Evaluation is defined on *normalized* block sizes (the curve-fitting
//! layer rescales x into `(0, ~1]`), which keeps `eˣ` well-conditioned.
//! Guards are still in place for callers that extrapolate: the exp
//! argument is clamped and `ln` is floored at a tiny positive value.

/// Largest argument passed to `exp` before clamping. exp(30) ≈ 1e13 is
/// far beyond any normalized block size and still comfortably finite.
const EXP_CLAMP: f64 = 30.0;

/// Smallest x used for logarithm evaluation.
const LN_FLOOR: f64 = 1e-12;

/// One basis function from the paper's model set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BasisFn {
    /// Constant term (fixed overhead such as kernel launch cost).
    One,
    /// `ln x`.
    LnX,
    /// `x`.
    X,
    /// `x²`.
    X2,
    /// `x³`.
    X3,
    /// `eˣ`.
    ExpX,
    /// `x·eˣ`.
    XExpX,
    /// `x·ln x`.
    XLnX,
}

impl BasisFn {
    /// All basis functions of the paper, plus the constant term.
    pub const ALL: [BasisFn; 8] = [
        BasisFn::One,
        BasisFn::LnX,
        BasisFn::X,
        BasisFn::X2,
        BasisFn::X3,
        BasisFn::ExpX,
        BasisFn::XExpX,
        BasisFn::XLnX,
    ];

    /// Evaluate the function at `x` (expected `x > 0`).
    pub fn eval(self, x: f64) -> f64 {
        let xl = x.max(LN_FLOOR);
        match self {
            BasisFn::One => 1.0,
            BasisFn::LnX => xl.ln(),
            BasisFn::X => x,
            BasisFn::X2 => x * x,
            BasisFn::X3 => x * x * x,
            BasisFn::ExpX => x.min(EXP_CLAMP).exp(),
            BasisFn::XExpX => x * x.min(EXP_CLAMP).exp(),
            BasisFn::XLnX => x * xl.ln(),
        }
    }

    /// Position in [`ALL`](Self::ALL), and in [`eval_all`](Self::eval_all).
    pub(crate) fn column(self) -> usize {
        match self {
            BasisFn::One => 0,
            BasisFn::LnX => 1,
            BasisFn::X => 2,
            BasisFn::X2 => 3,
            BasisFn::X3 => 4,
            BasisFn::ExpX => 5,
            BasisFn::XExpX => 6,
            BasisFn::XLnX => 7,
        }
    }

    /// [`eval`](Self::eval) of every function at once, indexed by
    /// [`column`](Self::column): one `ln` and one `exp` per sample in
    /// place of two each, with the same bits.
    pub(crate) fn eval_all(x: f64) -> [f64; 8] {
        let ln = x.max(LN_FLOOR).ln();
        let exp = x.min(EXP_CLAMP).exp();
        [1.0, ln, x, x * x, x * x * x, exp, x * exp, x * ln]
    }

    /// First derivative at `x`.
    pub fn d1(self, x: f64) -> f64 {
        let xl = x.max(LN_FLOOR);
        match self {
            BasisFn::One => 0.0,
            BasisFn::LnX => 1.0 / xl,
            BasisFn::X => 1.0,
            BasisFn::X2 => 2.0 * x,
            BasisFn::X3 => 3.0 * x * x,
            BasisFn::ExpX => x.min(EXP_CLAMP).exp(),
            BasisFn::XExpX => (1.0 + x) * x.min(EXP_CLAMP).exp(),
            BasisFn::XLnX => xl.ln() + 1.0,
        }
    }

    /// Second derivative at `x`.
    pub fn d2(self, x: f64) -> f64 {
        let xl = x.max(LN_FLOOR);
        match self {
            BasisFn::One => 0.0,
            BasisFn::LnX => -1.0 / (xl * xl),
            BasisFn::X => 0.0,
            BasisFn::X2 => 2.0,
            BasisFn::X3 => 6.0 * x,
            BasisFn::ExpX => x.min(EXP_CLAMP).exp(),
            BasisFn::XExpX => (2.0 + x) * x.min(EXP_CLAMP).exp(),
            BasisFn::XLnX => 1.0 / xl,
        }
    }

    /// Short display name used in fitted-model reports.
    pub fn name(self) -> &'static str {
        match self {
            BasisFn::One => "1",
            BasisFn::LnX => "ln(x)",
            BasisFn::X => "x",
            BasisFn::X2 => "x^2",
            BasisFn::X3 => "x^3",
            BasisFn::ExpX => "e^x",
            BasisFn::XExpX => "x*e^x",
            BasisFn::XLnX => "x*ln(x)",
        }
    }
}

/// The candidate model forms tried by the performance-modeling phase,
/// in the order the best-subset fit tries them.
///
/// The paper fits "a function of the form a1 f1(x)+...+an fn(x)" over
/// its basis set. Throwing all eight functions into a single
/// regression on a handful of probe points overfits and produces
/// wildly collinear columns, so — like any practical implementation —
/// we perform model selection over curated subsets that each capture
/// one plausible application shape, and keep the best adjusted fit:
///
/// * linear / affine — O(n) kernels (Black-Scholes);
/// * quadratic and cubic polynomials — O(n²)/O(n³) kernels (MM, GRN);
/// * log-augmented affine — GPU curves that flatten once occupancy
///   saturates (the HDSS observation);
/// * `x ln x` — divide-and-conquer kernels;
/// * exponential forms — kernels that degrade past cache/memory
///   capacity.
pub(crate) static CANDIDATE_MODELS: [&[BasisFn]; 10] = {
    use BasisFn::*;
    [
        &[One, X],
        &[One, X, X2],
        &[One, X, X2, X3],
        &[One, LnX, X],
        &[One, X, XLnX],
        &[One, LnX],
        &[One, X, ExpX],
        &[One, X, XExpX],
        &[One, X2],
        &[One, X3],
    ]
};

/// An ordered set of basis functions defining one candidate model form.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BasisSet {
    funcs: Vec<BasisFn>,
}

impl BasisSet {
    /// Build a set from a list of functions. Duplicates are removed
    /// (keeping first occurrence) since a repeated column would make the
    /// least-squares system singular by construction.
    pub fn new(funcs: &[BasisFn]) -> Self {
        let mut seen = Vec::new();
        for &f in funcs {
            if !seen.contains(&f) {
                seen.push(f);
            }
        }
        BasisSet { funcs: seen }
    }

    /// The functions in this set.
    pub fn funcs(&self) -> &[BasisFn] {
        &self.funcs
    }

    /// Number of functions (columns in the design matrix).
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Linear model `G_p[x] = a_1 x + a_2` used for transfer times
    /// (Equation 2 of the paper).
    pub(crate) fn transfer_linear() -> Self {
        BasisSet::new(&[BasisFn::X, BasisFn::One])
    }

    /// Human-readable model form, e.g. `a0*1 + a1*x + a2*x^2`, written
    /// into one string sized up front: a term `a{i}*{name}` with its
    /// `" + "` is the name plus 6 bytes, as a set of at most the eight
    /// distinct functions keeps `i` to one digit.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let len = self.funcs.iter().map(|f| f.name().len() + 6).sum();
        let mut text = String::with_capacity(len);
        for (i, f) in self.funcs.iter().enumerate() {
            let sep = if i == 0 { "" } else { " + " };
            // Writing into a `String` cannot fail.
            let _ = write!(text, "{sep}a{i}*{}", f.name());
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_closed_forms() {
        let x = 2.0;
        assert_eq!(BasisFn::One.eval(x), 1.0);
        assert!((BasisFn::LnX.eval(x) - x.ln()).abs() < 1e-15);
        assert_eq!(BasisFn::X.eval(x), 2.0);
        assert_eq!(BasisFn::X2.eval(x), 4.0);
        assert_eq!(BasisFn::X3.eval(x), 8.0);
        assert!((BasisFn::ExpX.eval(x) - x.exp()).abs() < 1e-12);
        assert!((BasisFn::XExpX.eval(x) - x * x.exp()).abs() < 1e-12);
        assert!((BasisFn::XLnX.eval(x) - x * x.ln()).abs() < 1e-12);
    }

    #[test]
    fn eval_all_is_eval_of_each_function_bit_for_bit() {
        for &x in &[0.0, 1e-13, 0.003, 0.5, 1.0, 2.0, 16.0, 31.0, 1e6] {
            let row = BasisFn::eval_all(x);
            for (i, f) in BasisFn::ALL.into_iter().enumerate() {
                assert_eq!(f.column(), i);
                assert_eq!(row[i].to_bits(), f.eval(x).to_bits(), "{} at {x}", f.name());
            }
        }
    }

    /// Central-difference check of every analytic derivative.
    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for f in BasisFn::ALL {
            for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
                let num1 = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h);
                let ana1 = f.d1(x);
                assert!(
                    (num1 - ana1).abs() < 1e-4 * (1.0 + ana1.abs()),
                    "{}: d1 mismatch at {x}: {num1} vs {ana1}",
                    f.name()
                );
                let num2 = (f.d1(x + h) - f.d1(x - h)) / (2.0 * h);
                let ana2 = f.d2(x);
                assert!(
                    (num2 - ana2).abs() < 1e-3 * (1.0 + ana2.abs()),
                    "{}: d2 mismatch at {x}: {num2} vs {ana2}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn exp_clamp_prevents_overflow() {
        assert!(BasisFn::ExpX.eval(1e6).is_finite());
        assert!(BasisFn::XExpX.eval(1e6).is_finite());
        assert!(BasisFn::ExpX.d1(1e6).is_finite());
        assert!(BasisFn::XExpX.d2(1e6).is_finite());
    }

    #[test]
    fn ln_floor_prevents_nan_at_zero() {
        assert!(BasisFn::LnX.eval(0.0).is_finite());
        assert!(BasisFn::XLnX.eval(0.0).is_finite());
        // x*ln(x) -> 0 as x -> 0, and our guard keeps it tiny.
        assert!(BasisFn::XLnX.eval(0.0).abs() < 1e-10);
    }

    #[test]
    fn basis_set_dedups() {
        let s = BasisSet::new(&[BasisFn::X, BasisFn::X, BasisFn::One]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.funcs(), &[BasisFn::X, BasisFn::One]);
    }

    #[test]
    fn transfer_model_is_affine() {
        let t = BasisSet::transfer_linear();
        assert_eq!(t.funcs(), &[BasisFn::X, BasisFn::One]);
    }

    #[test]
    fn candidate_models_cover_paper_basis() {
        // Every basis function of the paper appears in at least one
        // candidate model.
        for f in BasisFn::ALL {
            assert!(
                CANDIDATE_MODELS.iter().any(|c| c.contains(&f)),
                "{} missing from candidate models",
                f.name()
            );
        }
    }

    #[test]
    fn describe_is_readable() {
        let s = BasisSet::new(&[BasisFn::One, BasisFn::XLnX]);
        assert_eq!(s.describe(), "a0*1 + a1*x*ln(x)");
    }

    #[test]
    fn describe_is_the_joined_terms_in_a_string_that_never_grew() {
        let mut sets: Vec<BasisSet> = CANDIDATE_MODELS.iter().map(|f| BasisSet::new(f)).collect();
        sets.push(BasisSet::new(&BasisFn::ALL));
        sets.push(BasisSet::new(&[BasisFn::XExpX]));
        for set in sets {
            let terms: Vec<String> = (set.funcs().iter().enumerate())
                .map(|(i, f)| format!("a{i}*{}", f.name()))
                .collect();
            let text = set.describe();
            assert_eq!(text, terms.join(" + "));
            // Sized for one `" + "` per term: the last one's is spare.
            assert_eq!(text.capacity(), text.len() + 3, "{text}");
        }
        assert_eq!(BasisSet::new(&[]).describe(), "");
    }
}
