//! Shared retry/backoff policy for fault-tolerant evaluation.
//!
//! Both executors drive the same [`RetryPolicy`]: an attempt that fails
//! (simulator crash, non-finite FOM, timeout, worker death) is requeued
//! with exponential backoff on the *run clock* — virtual seconds under
//! `VirtualExecutor`, scaled real seconds under `ThreadedExecutor` — up
//! to `max_attempts` total tries, after which [`FailureAction`] decides
//! what the optimizer observes.

/// What to do with a task whose attempts are exhausted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureAction {
    /// Record the raw observed value as a completion, even when it is
    /// non-finite. This is the legacy behaviour: failures are
    /// indistinguishable from successes and it is the caller's problem
    /// to filter the dataset.
    ///
    /// A recorded +∞ poisons the rest of the run: the surrogate's
    /// winsorization fence clamps only the low side, so every later GP
    /// fit fails and the policy falls back to uniform random draws for
    /// every remaining query. Nothing in the result says so; only the
    /// `surrogate_fallbacks` telemetry counter shows it. (NaN and −∞ fail
    /// the fit the same way until the dataset is large enough for the
    /// fence to clamp them.)
    Record,
    /// Drop the task: no observation enters the dataset or the trace.
    Drop,
    /// Record the configured finite penalty value as the observation,
    /// teaching the surrogate that the region is bad without poisoning
    /// it with NaN.
    Penalty(f64),
}

/// Retry/backoff/timeout configuration shared by both executors.
///
/// Defaults ([`RetryPolicy::default`]): 3 attempts per task, backoff of
/// `1.0 × 2^(k-1)` run-clock seconds after the `k`-th failure, no
/// per-attempt timeout, and exhausted tasks are dropped. The legacy
/// no-op policy is [`RetryPolicy::none`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per task (first try included). At least 1.
    pub max_attempts: usize,
    /// Backoff before the first retry, in run-clock seconds.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff after each further failure.
    pub backoff_factor: f64,
    /// Per-attempt deadline in run-clock seconds; an attempt whose cost
    /// exceeds it is abandoned as [`crate::EvalOutcome::TimedOut`].
    pub timeout: Option<f64>,
    /// What happens once every attempt has failed.
    pub on_exhausted: FailureAction,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: 1.0,
            backoff_factor: 2.0,
            timeout: None,
            on_exhausted: FailureAction::Drop,
        }
    }
}

impl RetryPolicy {
    /// The legacy policy: one attempt, no timeout, record whatever came
    /// back. Running either executor with this policy is bit-identical
    /// to the pre-fault-tolerance code paths.
    ///
    /// Because it records non-finite values raw ([`FailureAction::Record`]),
    /// a single +∞ evaluation turns the rest of the run into uniform
    /// random search, visible only in the `surrogate_fallbacks` counter.
    /// Prefer a [`FailureAction::Penalty`] or [`FailureAction::Drop`]
    /// policy when the objective can return non-finite values.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0.0,
            backoff_factor: 1.0,
            timeout: None,
            on_exhausted: FailureAction::Record,
        }
    }

    /// Sets the total attempts per task (clamped to at least 1).
    pub fn max_attempts(mut self, n: usize) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Sets the backoff schedule: `base × factor^(k-1)` seconds after
    /// the `k`-th failed attempt.
    pub fn backoff(mut self, base: f64, factor: f64) -> Self {
        assert!(
            base >= 0.0 && factor >= 1.0,
            "backoff needs base >= 0 and factor >= 1"
        );
        self.backoff_base = base;
        self.backoff_factor = factor;
        self
    }

    /// Sets the per-attempt deadline in run-clock seconds.
    pub fn timeout(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "timeout must be positive");
        self.timeout = Some(seconds);
        self
    }

    /// Sets the action for exhausted tasks. A [`FailureAction::Penalty`]
    /// value must be finite.
    pub fn on_exhausted(mut self, action: FailureAction) -> Self {
        if let FailureAction::Penalty(p) = action {
            assert!(p.is_finite(), "penalty value must be finite");
        }
        self.on_exhausted = action;
        self
    }

    /// Backoff delay after `failed_attempts` failures (1-based):
    /// `base × factor^(failed_attempts - 1)`.
    pub fn delay(&self, failed_attempts: usize) -> f64 {
        self.backoff_base * self.backoff_factor.powi(failed_attempts.max(1) as i32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_matches_legacy_semantics() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.timeout, None);
        assert_eq!(p.on_exhausted, FailureAction::Record);
    }

    #[test]
    fn delay_grows_exponentially() {
        let p = RetryPolicy::default().backoff(2.0, 3.0);
        assert_eq!(p.delay(1), 2.0);
        assert_eq!(p.delay(2), 6.0);
        assert_eq!(p.delay(3), 18.0);
    }

    #[test]
    fn builders_clamp_and_validate() {
        let p = RetryPolicy::default().max_attempts(0);
        assert_eq!(p.max_attempts, 1);
        let p = RetryPolicy::default()
            .timeout(120.0)
            .on_exhausted(FailureAction::Penalty(-10.0));
        assert_eq!(p.timeout, Some(120.0));
        assert_eq!(p.on_exhausted, FailureAction::Penalty(-10.0));
    }

    #[test]
    #[should_panic(expected = "penalty value must be finite")]
    fn non_finite_penalty_is_rejected() {
        let _ = RetryPolicy::default().on_exhausted(FailureAction::Penalty(f64::NAN));
    }
}
