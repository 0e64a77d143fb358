//! The line-search filter of Wächter & Biegler, as used by IPOPT —
//! "interior point line search filter method" in the paper's words
//! (Section III-C).
//!
//! A filter is a set of `(θ, φ)` pairs — constraint violation and barrier
//! objective — that no future iterate may simultaneously dominate. A trial
//! point is acceptable when it improves either coordinate by a sufficient
//! margin relative to every filter entry and to the current point. The
//! filter replaces a merit function and avoids its penalty-parameter
//! tuning, which is why IPOPT (and this reproduction) uses it.

/// Sufficient-decrease margins (values from the IPOPT paper).
const GAMMA_THETA: f64 = 1e-5;
const GAMMA_PHI: f64 = 1e-5;

/// One `(constraint violation, barrier objective)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FilterEntry {
    /// Constraint violation θ = ‖c(x)‖₁.
    pub theta: f64,
    /// Barrier objective φ = f(x) − μ Σ ln(x − lb).
    pub phi: f64,
}

/// The filter: a non-dominated set of entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct Filter {
    entries: Vec<FilterEntry>,
    /// Upper bound on acceptable constraint violation.
    theta_max: f64,
}

impl Filter {
    /// Create a filter that rejects any violation above `theta_max`.
    pub fn new(theta_max: f64) -> Self {
        Filter {
            entries: Vec::new(),
            theta_max,
        }
    }

    /// Is a trial point `(theta, phi)` acceptable to the filter?
    ///
    /// Acceptable means: below the hard violation cap, and for every
    /// entry it improves violation or objective by the sufficient-decrease
    /// margin.
    pub(crate) fn acceptable(&self, theta: f64, phi: f64) -> bool {
        if !theta.is_finite() || !phi.is_finite() {
            return false;
        }
        if theta > self.theta_max {
            return false;
        }
        self.entries
            .iter()
            .all(|e| theta <= (1.0 - GAMMA_THETA) * e.theta || phi <= e.phi - GAMMA_PHI * e.theta)
    }

    /// Add an entry, pruning any entries it dominates. Called after a
    /// step was accepted for insufficient objective progress (the
    /// "θ-type" iterations of the filter method).
    pub fn add(&mut self, theta: f64, phi: f64) {
        // Drop dominated entries: dominated means worse (≥) in both
        // coordinates.
        self.entries.retain(|e| e.theta < theta || e.phi < phi);
        self.entries.push(FilterEntry { theta, phi });
    }

    /// Reset all entries (used when μ changes: the barrier objective is
    /// not comparable across barrier parameters).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_filter_accepts_below_cap() {
        let f = Filter::new(10.0);
        assert!(f.acceptable(1.0, 100.0));
        assert!(!f.acceptable(11.0, -100.0));
    }

    #[test]
    fn rejects_dominated_points() {
        let mut f = Filter::new(10.0);
        f.add(1.0, 5.0);
        // Worse in both coordinates: rejected.
        assert!(!f.acceptable(2.0, 6.0));
        // Much better violation: accepted.
        assert!(f.acceptable(0.5, 6.0));
        // Much better objective: accepted.
        assert!(f.acceptable(2.0, 0.0));
    }

    #[test]
    fn margin_is_required() {
        let mut f = Filter::new(10.0);
        f.add(1.0, 5.0);
        // Only infinitesimally better violation: the sufficient-decrease
        // margin rejects it.
        assert!(!f.acceptable(1.0 - 1e-12, 5.0));
    }

    #[test]
    fn add_prunes_dominated_entries() {
        let mut f = Filter::new(10.0);
        f.add(2.0, 2.0);
        f.add(3.0, 3.0); // dominated by nothing yet? (2,2) dominates (3,3)
                         // (3,3) is worse in both than (2,2): the retained set should not
                         // keep entries that a new better point dominates. Insert a point
                         // dominating both:
        f.add(1.0, 1.0);
        assert_eq!(f.entries.len(), 1);
        assert_eq!(
            f.entries[0],
            FilterEntry {
                theta: 1.0,
                phi: 1.0
            }
        );
    }

    #[test]
    fn nan_rejected() {
        let f = Filter::new(10.0);
        assert!(!f.acceptable(f64::NAN, 0.0));
        assert!(!f.acceptable(0.0, f64::NAN));
        assert!(!f.acceptable(f64::INFINITY, 0.0));
    }

    #[test]
    fn clear_empties() {
        let mut f = Filter::new(10.0);
        f.add(1.0, 1.0);
        f.clear();
        assert!(f.entries.is_empty());
        assert!(f.acceptable(5.0, 5.0));
    }
}
