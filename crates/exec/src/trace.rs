/// One completed evaluation on the run timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Virtual wall-clock time (seconds) of completion.
    pub time: f64,
    /// Total evaluations completed at this instant (1-based).
    pub completed: usize,
    /// Observed value of this evaluation.
    pub value: f64,
    /// Best value observed up to and including this evaluation.
    pub best_so_far: f64,
}

/// The best-so-far timeline of an optimization run — the data behind the
/// paper's Figures 4 and 6 (optimization result vs wall-clock time).
///
/// # Example
///
/// ```
/// use easybo_exec::RunTrace;
///
/// let mut t = RunTrace::new();
/// t.record(10.0, 1.0);
/// t.record(20.0, 0.5);
/// t.record(30.0, 2.0);
/// assert_eq!(t.best_at(25.0), Some(1.0));
/// assert_eq!(t.best_at(30.0), Some(2.0));
/// assert_eq!(t.best_at(5.0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    points: Vec<TracePoint>,
}

impl RunTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        RunTrace::default()
    }

    /// Records a completed evaluation at `time` with observed `value`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous record (the virtual
    /// clock must be monotone).
    pub fn record(&mut self, time: f64, value: f64) {
        if let Some(last) = self.points.last() {
            assert!(
                time >= last.time,
                "trace time went backwards: {time} after {}",
                last.time
            );
        }
        let best = self
            .points
            .last()
            .map_or(value, |p| p.best_so_far.max(value));
        self.points.push(TracePoint {
            time,
            completed: self.points.len() + 1,
            value,
            best_so_far: best,
        });
    }

    /// All trace points in completion order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of completed evaluations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether anything has completed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total virtual time of the run (time of the last completion).
    pub fn total_time(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.time)
    }

    /// Final best value.
    pub fn final_best(&self) -> Option<f64> {
        self.points.last().map(|p| p.best_so_far)
    }

    /// Best value known at virtual time `t` (`None` before the first
    /// completion).
    pub fn best_at(&self, t: f64) -> Option<f64> {
        let idx = self.points.partition_point(|p| p.time <= t);
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1].best_so_far)
        }
    }

    /// Renders the trace as CSV (`time_s,completed,value,best_so_far`),
    /// ready for external plotting of the paper's Figs. 4/6.
    ///
    /// ```
    /// use easybo_exec::RunTrace;
    /// let mut t = RunTrace::new();
    /// t.record(1.5, 2.0);
    /// let csv = t.to_csv();
    /// assert!(csv.starts_with("time_s,completed,value,best_so_far\n"));
    /// assert!(csv.contains("1.5,1,2,2"));
    /// ```
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,completed,value,best_so_far\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{}\n",
                p.time, p.completed, p.value, p.best_so_far
            ));
        }
        out
    }

    /// Samples the best-so-far curve at `n` evenly spaced times over
    /// `[0, total_time]`, returning `(time, best)` pairs (skipping times
    /// before the first completion).
    pub fn sampled(&self, n: usize) -> Vec<(f64, f64)> {
        let total = self.total_time();
        if self.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..=n)
            .filter_map(|i| {
                let t = total * i as f64 / n as f64;
                self.best_at(t).map(|b| (t, b))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunTrace {
        let mut t = RunTrace::new();
        t.record(10.0, 1.0);
        t.record(20.0, 3.0);
        t.record(20.0, 2.0); // tie in time is allowed
        t.record(45.0, 5.0);
        t
    }

    #[test]
    fn best_so_far_is_monotone() {
        let t = sample();
        let bests: Vec<f64> = t.points().iter().map(|p| p.best_so_far).collect();
        assert_eq!(bests, vec![1.0, 3.0, 3.0, 5.0]);
    }

    #[test]
    fn completed_counts() {
        let t = sample();
        let counts: Vec<usize> = t.points().iter().map(|p| p.completed).collect();
        assert_eq!(counts, vec![1, 2, 3, 4]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn best_at_lookups() {
        let t = sample();
        assert_eq!(t.best_at(9.9), None);
        assert_eq!(t.best_at(10.0), Some(1.0));
        assert_eq!(t.best_at(20.0), Some(3.0));
        assert_eq!(t.best_at(44.0), Some(3.0));
        assert_eq!(t.best_at(1000.0), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn rejects_time_reversal() {
        let mut t = RunTrace::new();
        t.record(10.0, 1.0);
        t.record(5.0, 2.0);
    }

    #[test]
    fn totals_and_final() {
        let t = sample();
        assert_eq!(t.total_time(), 45.0);
        assert_eq!(t.final_best(), Some(5.0));
        assert_eq!(RunTrace::new().final_best(), None);
        assert_eq!(RunTrace::new().total_time(), 0.0);
    }

    #[test]
    fn clamped_recording_handles_shuffled_finish_times() {
        // The threaded executor receives completions in real-thread
        // order, which can disagree with finish-time order; it clamps
        // each timestamp forward (`t.max(total_time())`) before
        // recording. Verify that discipline keeps the trace valid and
        // the best-so-far curve identical to the sorted ground truth.
        let finishes: [(f64, f64); 5] = [
            (30.0, 0.5),
            (10.0, 2.0), // arrives late despite finishing first
            (20.0, 1.0),
            (55.0, 3.0),
            (40.0, 2.5),
        ];
        let mut clamped = RunTrace::new();
        for &(t, v) in &finishes {
            clamped.record(t.max(clamped.total_time()), v);
        }
        // Monotone times, monotone best.
        for w in clamped.points().windows(2) {
            assert!(w[1].time >= w[0].time);
            assert!(w[1].best_so_far >= w[0].best_so_far);
        }
        assert_eq!(clamped.len(), finishes.len());
        assert_eq!(clamped.final_best(), Some(3.0));
        // The final state agrees with an in-order replay of the same
        // completions; only intermediate timestamps were clamped.
        let mut sorted = finishes;
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut ordered = RunTrace::new();
        for &(t, v) in &sorted {
            ordered.record(t, v);
        }
        assert_eq!(clamped.total_time(), ordered.total_time());
        assert_eq!(clamped.final_best(), ordered.final_best());
    }

    #[test]
    fn sampled_curve() {
        let t = sample();
        let s = t.sampled(9);
        assert!(!s.is_empty());
        // Monotone in both time and value.
        for w in s.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(s.last().unwrap().1, 5.0);
        assert!(RunTrace::new().sampled(5).is_empty());
    }
}
