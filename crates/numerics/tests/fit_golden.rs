//! Golden bit patterns of the curve fits.
//!
//! `plbmark` compares a binary only with itself, so "the fit kernel was
//! rewritten and the curves kept their bits" needs a witness that
//! crosses commits: the expected lines below were printed by this very
//! file at the commit *before* the table/workspace kernel (PR 16's
//! parent, `bd80f0f`) and have not been edited since. A line is the
//! chosen basis, every coefficient, R², adjusted R² and one evaluation
//! (which pins `x_scale`/`y_scale`), all as `f64::to_bits` in hex.
//!
//! `ln`/`exp` come from the platform's libm; a winner with a log or
//! exponential column can therefore differ in the last bit on a libm
//! that rounds differently from the one the lines were made with
//! (glibc 2.3x, x86-64). The polynomial winners cannot.

use plb_numerics::{fit_basis, fit_best_model, fit_linear, BasisFn, BasisSet, FittedCurve};

const XS: [f64; 8] = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0];

/// A fixed ±1.3 % wobble, so noisy sets need neither an RNG nor libm.
const WOBBLE: [f64; 8] = [0.013, -0.007, 0.004, -0.011, 0.009, -0.002, 0.006, -0.012];

fn over_xs(f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
    XS.iter().map(|&x| (x, f(x))).collect()
}

fn wobbled(f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
    XS.iter()
        .zip(WOBBLE)
        .map(|(&x, w)| (x, f(x) * (1.0 + w)))
        .collect()
}

fn render(name: &str, fit: &FittedCurve) -> String {
    let coeffs: Vec<String> = fit
        .coeffs()
        .iter()
        .map(|c| format!("{:016x}", c.to_bits()))
        .collect();
    format!(
        "{name}: [{}] coeffs={} r2={:016x} adj={:016x} n={} eval1000={:016x}",
        fit.basis().describe(),
        coeffs.join(","),
        fit.r2().to_bits(),
        fit.adjusted_r2().to_bits(),
        fit.n_samples(),
        fit.eval(1000.0).to_bits(),
    )
}

fn rendered() -> Vec<String> {
    let best = |name: &str, s: &[(f64, f64)]| render(name, &fit_best_model(s).unwrap());
    vec![
        best("affine", &over_xs(|x| 1e-3 + 2e-6 * x)),
        best("affine-noisy", &wobbled(|x| 1e-3 + 2e-6 * x)),
        best("quadratic", &over_xs(|x| 2.0 + 0.01 * x + 1e-5 * x * x)),
        best(
            "cubic-noisy",
            &wobbled(|x| 1.0 + 1e-3 * x + 1e-9 * x * x * x),
        ),
        best(
            "log-saturating",
            &over_xs(|x| 0.5 + 0.3 * (x / 100.0).ln() + 1e-4 * x),
        ),
        best("near-constant", &wobbled(|_| 5.0)),
        best("two-point", &[(100.0, 1.0), (200.0, 1.9)]),
        // Decreasing times: no candidate extrapolates sanely and two
        // points leave no residual degree of freedom, so only the last,
        // fully relaxed `(false, false)` tier yields a model.
        best("relaxed-tier-only", &[(100.0, 2.0), (200.0, 1.0)]),
        // Four probes, as the modeling phase has when the gate first
        // runs: the cubic is excluded by the degree-of-freedom rule.
        best(
            "four-probes",
            &[
                (782.0, 3.1e-4),
                (1564.0, 5.3e-4),
                (3128.0, 9.9e-4),
                (6256.0, 1.87e-3),
            ],
        ),
        render(
            "transfer-linear",
            &fit_linear(&wobbled(|x| 1e-4 + 1e-8 * x)).unwrap(),
        ),
        render(
            "log-only",
            &fit_basis(
                &wobbled(|x| 0.2 + 0.1 * (x / 50.0).ln()),
                &BasisSet::new(&[BasisFn::One, BasisFn::LnX]),
            )
            .unwrap(),
        ),
        render(
            "exp-knee",
            &fit_basis(
                &wobbled(|x| 0.2 + 1e-5 * x + 0.05 * (x / 12800.0).exp()),
                &BasisSet::new(&[BasisFn::One, BasisFn::X, BasisFn::ExpX]),
            )
            .unwrap(),
        ),
    ]
}

const EXPECTED: &[&str] = &[
    "affine: [a0*1 + a1*x] coeffs=3fa33f84cfe133fd,3feecc07b301ecc0 r2=3ff0000000000000 adj=3ff0000000000000 n=8 eval1000=3f689374bc6a7efb",
    "affine-noisy: [a0*1 + a1*x] coeffs=3fa434f4edfcb381,3feed9609bb7a22f r2=3fefff4a72107f2a adj=3fefff01d2e3e53b n=8 eval1000=3f68b62dd17b051e",
    "quadratic: [a0*1 + a1*x + a2*x^2] coeffs=3f52879d5440a010,3fb2879d54409f5b,3feda5c886cdcbc4 r2=3ff0000000000000 adj=3ff0000000000000 n=8 eval1000=4036000000000014",
    "cubic-noisy: [a0*1 + a1*x^3] coeffs=3f5905050bc8cddd,3feff74376f88259 r2=3fefffd6aab29ee8 adj=3fefffc6222d44de n=8 eval1000=4010b69f1938321b",
    "log-saturating: [a0*1 + a1*ln(x) + a2*x] coeffs=3fe357432caebe1b,3fb7bc620c385b90,3fd95179a6a283c8 r2=3ff0000000000000 adj=3ff0000000000000 n=8 eval1000=3ff4a7043d6ccca6",
    "near-constant: [a0*1 + a1*ln(x)] coeffs=3fef727ad1c0d243,bf5e00255678039f r2=3fbcaad2ef3f7838 adj=bfcf2205f2205f08 n=8 eval1000=4014012c16bc39e5",
    "two-point: [a0*1 + a1*x] coeffs=3faaf286bca1aef9,3fee50d79435e50f r2=3ff0000000000000 adj=3feccccccccccccd n=2 eval1000=4022333333333333",
    "relaxed-tier-only: [a0*1 + a1*x] coeffs=3ff7fffffffffffe,bff0000000000000 r2=3ff0000000000000 adj=3feccccccccccccd n=2 eval1000=c01c000000000001",
    "four-probes: [a0*1 + a1*x] coeffs=3fa82a6104f0b408,3fee8bd3ab31c57f r2=3fefff52bf592ab3 adj=3feffdf83e0b8019 n=4 eval1000=3f387bdd9c1f3208",
    "transfer-linear: [a0*x + a1*1] coeffs=3fe1d9e3e6d1081e,3fdc8929329525cb r2=3feffa9d8ac9e0cb adj=3feff87628b43ab6 n=8 eval1000=3f1ce72c09ef0990",
    "log-only: [a0*1 + a1*ln(x)] coeffs=3ff022d6935a5cf5,3fc102f643c75787 r2=3feff9a66b03611b adj=3feff71c2f6b218c n=8 eval1000=3fdff336d65c3504",
    "exp-knee: [a0*1 + a1*x + a2*e^x] coeffs=3fde5e3893128ba8,3fd5553aaa12e4df,3fb2218a4ce609c0 r2=3feff89b42a0a1f7 adj=3feff30fb4991b70 n=8 eval1000=3fd0eded27f05553",
];

#[test]
fn fits_keep_their_bits_across_commits() {
    let got = rendered();
    let listing = got
        .iter()
        .map(|l| format!("    \"{l}\","))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(got.len(), EXPECTED.len(), "rendered now:\n{listing}");
    for (g, e) in got.iter().zip(EXPECTED) {
        assert_eq!(g, e, "rendered now:\n{listing}");
    }
}
