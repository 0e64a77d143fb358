//! Shared scheduler configuration.

/// Which curve family the performance-model fits may use — the paper's
/// full basis set, or deliberately impoverished families for the
/// ablation study (what HDSS-style single-shape models would do).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitMode {
    /// Model selection over the paper's full basis set (default).
    BestSubset,
    /// Affine `a + b·x` only.
    LinearOnly,
    /// Logarithmic `a + b·ln x` only (the HDSS curve family).
    LogOnly,
}

/// Which solver the block-size selection uses — the exact equal-finish
/// split (default), or the ablation's comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// The water-fill: one Newton root on the common time.
    Auto,
    /// Skip the equal-finish solve: one-shot rate-proportional split
    /// (what a weighted-average scheme in the style of Acosta computes).
    RateProportionalOnly,
}

/// How the modeling phase sizes its probe blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSchedule {
    /// The paper's schedule: multipliers 1, 2, 4, 8 rescaled per unit by
    /// the round-1 speed preview `t_f / t_k`.
    ExponentialRescaled,
    /// Naive alternative for the ablation: every unit gets the same
    /// exponentially growing block, no rescale (HDSS-style probing).
    ExponentialEqual,
}

/// Tunables common to the profile-based policies, with the paper's
/// published defaults.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// `initialBlockSize`: items in each unit's first probe block. The
    /// paper chooses it per application "so that the initial phase takes
    /// about 10 % of the application execution time" and uses the same
    /// value for every algorithm.
    pub initial_block: u64,
    /// Valid application block granularity in items (one matrix line,
    /// one gene, one option — all 1 in our item units, but kept
    /// configurable for apps whose natural block is coarser).
    pub granularity: u64,
    /// Rebalance when finish times diverge by more than this fraction of
    /// a single block's execution time (paper: ~10 %).
    pub rebalance_threshold: f64,
    /// Fraction of the remaining data distributed per execution round
    /// ("a single step" in the paper's Fig. 6 wording).
    pub round_fraction: f64,
    /// R² the performance-model fit must reach on every unit before the
    /// modeling phase ends (paper: 0.7).
    pub r2_threshold: f64,
    /// Hard cap on the fraction of application data consumed by the
    /// modeling phase (paper: 20 %).
    pub modeling_cap_fraction: f64,
    /// Random/diagnostic seed forwarded to policies that need one.
    pub seed: u64,
    /// Curve family for performance-model fits (ablation knob).
    pub fit_mode: FitMode,
    /// Block-size selection solver (ablation knob).
    pub solver: SolverChoice,
    /// Probe-block sizing schedule (ablation knob).
    pub probe_schedule: ProbeSchedule,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            initial_block: 256,
            granularity: 1,
            rebalance_threshold: 0.10,
            round_fraction: 0.33,
            r2_threshold: 0.7,
            modeling_cap_fraction: 0.20,
            seed: 0,
            fit_mode: FitMode::BestSubset,
            solver: SolverChoice::Auto,
            probe_schedule: ProbeSchedule::ExponentialRescaled,
        }
    }
}

impl PolicyConfig {
    /// Builder-style override of the initial block size.
    pub fn with_initial_block(mut self, items: u64) -> Self {
        assert!(items > 0, "initial block must be positive");
        self.initial_block = items;
        self
    }

    /// Builder-style override of the per-round distribution window.
    pub fn with_round_fraction(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "round fraction must be in (0, 1]");
        self.round_fraction = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PolicyConfig::default();
        assert_eq!(c.rebalance_threshold, 0.10);
        assert_eq!(c.r2_threshold, 0.7);
        assert_eq!(c.modeling_cap_fraction, 0.20);
    }

    #[test]
    fn builders_apply() {
        let c = PolicyConfig::default()
            .with_initial_block(512)
            .with_round_fraction(0.5);
        assert_eq!(c.initial_block, 512);
        assert_eq!(c.round_fraction, 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_rejected() {
        PolicyConfig::default().with_initial_block(0);
    }
}
