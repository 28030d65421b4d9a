//! Operation accounting behind `attempted`, `failed` and `op_fail_frac`.

/// Counts attempted and failed operations of every kind the benchmark
/// performs: evaluations, whole runs, RPCs and correctness checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// Records a correctness check; a failed check is also reported on
    /// standard error so a wrong output never passes silently.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("check failed: {}", what());
        }
        self.op(ok);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (`0` when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_kind_of_operation() {
        let mut t = Tally::default();
        // 150 evaluations, 3 of them not Ok.
        t.ops(150, 3);
        // One run that finished short of its budget.
        t.op(false);
        // Four RPCs, all fine.
        for _ in 0..4 {
            t.op(true);
        }
        // A failed correctness check.
        t.check(false, || "trace differs".to_string());
        assert_eq!(t.attempted, 156);
        assert_eq!(t.failed, 5);
        assert!((t.fail_frac() - 5.0 / 156.0).abs() < 1e-15);
    }

    #[test]
    fn failures_never_exceed_attempts() {
        let mut t = Tally::default();
        t.ops(2, 7);
        assert_eq!((t.attempted, t.failed), (2, 2));
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }

    #[test]
    fn merge_adds_both_counts() {
        let mut a = Tally::default();
        a.op(true);
        let mut b = Tally::default();
        b.op(false);
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (2, 1));
    }
}
