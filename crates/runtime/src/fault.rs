//! Fault-tolerance policy knobs shared by both engines.
//!
//! The injection side (what goes wrong) lives in
//! [`plb_hetsim::fault`] and is re-exported here; this module holds the
//! *response* side: how many times a failed block is retried in place,
//! how the retry backoff grows, when a unit is quarantined, and how the
//! host watchdog derives per-task deadlines. The full failure model is
//! documented in `docs/FAULT_TOLERANCE.md`.

pub use plb_hetsim::fault::{
    Fault, FaultAction, FaultKind, FaultPlan, FaultSpecError, NodeFault, NodeFaultKind,
    NodeFaultPlan,
};

/// Tunables of the engines' fault-tolerance layer.
///
/// Defaults are chosen so that a healthy run behaves exactly as before
/// (no retries happen, deadlines are generous multiples of observed
/// block times) while a single panicking kernel costs at most
/// `max_retries` in-place retries before its unit is quarantined and
/// its block redistributed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultToleranceConfig {
    /// In-place retries of a failed block on its own unit before the
    /// block's items return to the shared pool.
    pub max_retries: u32,
    /// Backoff before the first in-place retry, seconds; doubles on
    /// each subsequent retry of the same block (exponential backoff).
    pub backoff_base_s: f64,
    /// Consecutive failures (without an intervening success) after
    /// which a unit is quarantined: removed from the active set, its
    /// block re-credited, and the policy notified so it re-solves the
    /// split over the survivors.
    pub quarantine_after: u32,
    /// Host watchdog: a task's deadline is
    /// `deadline_factor × E_p(x)` where `E_p(x)` is the predicted block
    /// time — the policy's model via
    /// [`SchedulerCtx::set_deadline_hint`](crate::policy::SchedulerCtx::set_deadline_hint)
    /// when available, otherwise the engine's running per-item rate
    /// estimate. Non-finite disables deadlines.
    pub deadline_factor: f64,
    /// Host watchdog: lower bound on any deadline, seconds. Keeps
    /// short tasks from being declared hung by scheduler jitter.
    pub min_deadline_s: f64,
    /// Host engine: when set, a quarantined unit is restored (probation
    /// ends) after this many seconds and the policy is told via
    /// `on_device_restored`. `None` keeps quarantines permanent for the
    /// run. Units lost to a blown deadline are never restored — their
    /// worker may still be wedged in the kernel.
    pub probation_s: Option<f64>,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            max_retries: 2,
            backoff_base_s: 0.01,
            quarantine_after: 3,
            deadline_factor: 10.0,
            min_deadline_s: 0.5,
            probation_s: None,
        }
    }
}

impl FaultToleranceConfig {
    /// Backoff before retry number `attempt` (1-based) of one block.
    pub(crate) fn backoff_for(&self, attempt: u32) -> f64 {
        if !(self.backoff_base_s.is_finite() && self.backoff_base_s > 0.0) {
            return 0.0;
        }
        self.backoff_base_s * f64::from(2u32.saturating_pow(attempt.saturating_sub(1)).min(1 << 16))
    }

    /// The deadline (seconds from dispatch) for a task of `items` items
    /// given a seconds-per-item estimate, or `None` when deadlines are
    /// disabled or no estimate exists yet.
    pub(crate) fn deadline_for(&self, seconds_per_item: Option<f64>, items: u64) -> Option<f64> {
        if !self.deadline_factor.is_finite() || self.deadline_factor <= 0.0 {
            return None;
        }
        let rate = seconds_per_item?;
        if !(rate.is_finite() && rate > 0.0) {
            return None;
        }
        Some((self.deadline_factor * rate * items as f64).max(self.min_deadline_s))
    }

    /// Builder-style override of the quarantine threshold.
    pub fn with_quarantine_after(mut self, n: u32) -> Self {
        assert!(n > 0, "quarantine threshold must be positive");
        self.quarantine_after = n;
        self
    }

    /// Builder-style override of the deadline factor.
    pub fn with_deadline_factor(mut self, k: f64) -> Self {
        self.deadline_factor = k;
        self
    }

    /// Builder-style override of the deadline floor.
    pub fn with_min_deadline(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "deadline floor must be non-negative");
        self.min_deadline_s = seconds;
        self
    }

    /// Builder-style override of the retry backoff base.
    pub fn with_backoff_base(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "backoff must be non-negative");
        self.backoff_base_s = seconds;
        self
    }

    /// Builder-style override of the probation window.
    pub fn with_probation(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "probation must be positive");
        self.probation_s = Some(seconds);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let ft = FaultToleranceConfig::default().with_backoff_base(0.1);
        assert!((ft.backoff_for(1) - 0.1).abs() < 1e-12);
        assert!((ft.backoff_for(2) - 0.2).abs() < 1e-12);
        assert!((ft.backoff_for(3) - 0.4).abs() < 1e-12);
        let none = FaultToleranceConfig::default().with_backoff_base(0.0);
        assert_eq!(none.backoff_for(5), 0.0);
    }

    #[test]
    fn deadline_scales_with_items_and_floors() {
        let ft = FaultToleranceConfig::default()
            .with_deadline_factor(4.0)
            .with_min_deadline(0.5);
        // 4 × 1ms/item × 1000 items = 4s.
        assert_eq!(ft.deadline_for(Some(1e-3), 1000), Some(4.0));
        // Floor kicks in for tiny tasks.
        assert_eq!(ft.deadline_for(Some(1e-6), 10), Some(0.5));
        // No estimate, or disabled factor -> no deadline.
        assert_eq!(ft.deadline_for(None, 1000), None);
        let off = FaultToleranceConfig::default().with_deadline_factor(f64::INFINITY);
        assert_eq!(off.deadline_for(Some(1e-3), 1000), None);
    }
}
