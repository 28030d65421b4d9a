/// One task occupying one worker for a time interval (the bars of the
/// paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpan {
    /// Worker index.
    pub worker: usize,
    /// Evaluation index (order of issue).
    pub task: usize,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
    /// Whether the span ended in failure (crashed, non-finite,
    /// abandoned on timeout). Failed spans still occupy the worker but
    /// are excluded from [`Schedule::utilization`].
    pub failed: bool,
}

/// A complete worker schedule for an optimization run, with utilization
/// accounting — the quantitative content of the paper's Fig. 1.
///
/// # Example
///
/// ```
/// use easybo_exec::Schedule;
///
/// let mut s = Schedule::new(2);
/// s.add(0, 0, 0.0, 10.0);
/// s.add(1, 1, 0.0, 4.0); // worker 1 idles from 4.0 to 10.0
/// assert_eq!(s.makespan(), 10.0);
/// assert!((s.utilization() - 0.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    workers: usize,
    spans: Vec<TaskSpan>,
}

impl Schedule {
    /// Creates an empty schedule over `workers` workers.
    pub fn new(workers: usize) -> Self {
        Schedule {
            workers,
            spans: Vec::new(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Records a successful task span.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= workers` or `end < start`.
    pub fn add(&mut self, worker: usize, task: usize, start: f64, end: f64) {
        self.add_with(worker, task, start, end, false);
    }

    /// Records a task span, flagging whether the attempt failed
    /// (crashed, returned a non-finite FOM, or was abandoned on
    /// timeout).
    ///
    /// # Panics
    ///
    /// Panics if `worker >= workers` or `end < start`.
    pub fn add_with(&mut self, worker: usize, task: usize, start: f64, end: f64, failed: bool) {
        assert!(worker < self.workers, "worker {worker} out of range");
        assert!(end >= start, "task ends before it starts");
        self.spans.push(TaskSpan {
            worker,
            task,
            start,
            end,
            failed,
        });
    }

    /// All spans in insertion order.
    pub fn spans(&self) -> &[TaskSpan] {
        &self.spans
    }

    /// Spans executed by one worker.
    pub fn worker_spans(&self, worker: usize) -> Vec<TaskSpan> {
        self.spans
            .iter()
            .filter(|s| s.worker == worker)
            .copied()
            .collect()
    }

    /// Busy time of one worker, failed spans included.
    pub fn worker_busy_time(&self, worker: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.worker == worker)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Completion time of the whole schedule.
    pub fn makespan(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Total busy time across workers, failed spans included (a worker
    /// occupied by a doomed attempt is still occupied).
    pub fn busy_time(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Busy time spent on spans that completed successfully.
    pub fn productive_time(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.failed)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Busy time lost to failed/abandoned spans.
    pub fn failed_time(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.failed)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Fraction of `workers × makespan` spent on *productive* work, in
    /// [0, 1]: failed/abandoned spans count as waste, alongside idle
    /// time. Returns 1.0 for an empty schedule.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan() * self.workers as f64;
        if span <= 0.0 {
            return 1.0;
        }
        (self.productive_time() / span).min(1.0)
    }

    /// Renders the schedule as CSV (`worker,task,start_s,end_s`) for
    /// external Gantt plotting (the paper's Fig. 1).
    ///
    /// ```
    /// use easybo_exec::Schedule;
    /// let mut s = Schedule::new(1);
    /// s.add(0, 0, 0.0, 2.5);
    /// assert!(s.to_csv().contains("0,0,0,2.5"));
    /// ```
    pub fn to_csv(&self) -> String {
        let mut out = String::from("worker,task,start_s,end_s\n");
        for span in &self.spans {
            out.push_str(&format!(
                "{},{},{},{}\n",
                span.worker, span.task, span.start, span.end
            ));
        }
        out
    }

    /// Total idle time across workers (before the makespan).
    pub fn idle_time(&self) -> f64 {
        (self.makespan() * self.workers as f64 - self.busy_time()).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barrier_schedule() -> Schedule {
        // Synchronous batch of 3 with costs 4, 7, 10: everyone waits for 10.
        let mut s = Schedule::new(3);
        s.add(0, 0, 0.0, 4.0);
        s.add(1, 1, 0.0, 7.0);
        s.add(2, 2, 0.0, 10.0);
        // Next round starts at the barrier.
        s.add(0, 3, 10.0, 15.0);
        s.add(1, 4, 10.0, 16.0);
        s.add(2, 5, 10.0, 13.0);
        s
    }

    #[test]
    fn makespan_and_busy_time() {
        let s = barrier_schedule();
        assert_eq!(s.makespan(), 16.0);
        assert_eq!(s.busy_time(), 4.0 + 7.0 + 10.0 + 5.0 + 6.0 + 3.0);
    }

    #[test]
    fn utilization_reflects_barrier_waste() {
        let s = barrier_schedule();
        let util = s.utilization();
        assert!(util < 0.75, "barrier schedule should waste time: {util}");
        assert!(s.idle_time() > 0.0);
    }

    #[test]
    fn async_packing_beats_barrier() {
        // The same 6 task durations greedily packed with no barrier.
        let durations = [4.0, 7.0, 10.0, 5.0, 6.0, 3.0];
        let mut s = Schedule::new(3);
        let mut free = [0.0f64; 3];
        for (i, d) in durations.iter().enumerate() {
            let w = (0..3).min_by(|&a, &b| free[a].total_cmp(&free[b])).unwrap();
            s.add(w, i, free[w], free[w] + d);
            free[w] += d;
        }
        assert!(s.makespan() < barrier_schedule().makespan());
        assert!(s.utilization() > barrier_schedule().utilization());
    }

    #[test]
    fn worker_spans_filtering() {
        let s = barrier_schedule();
        let w0 = s.worker_spans(0);
        assert_eq!(w0.len(), 2);
        assert!(w0.iter().all(|t| t.worker == 0));
    }

    #[test]
    fn empty_schedule_edge_cases() {
        let s = Schedule::new(4);
        assert_eq!(s.makespan(), 0.0);
        assert_eq!(s.utilization(), 1.0);
        assert_eq!(s.idle_time(), 0.0);
    }

    #[test]
    fn failed_spans_occupy_but_do_not_produce() {
        let mut s = Schedule::new(2);
        s.add(0, 0, 0.0, 10.0);
        s.add_with(1, 1, 0.0, 5.0, true); // abandoned on timeout
        s.add(1, 2, 5.0, 10.0);
        assert_eq!(s.makespan(), 10.0);
        assert_eq!(s.busy_time(), 20.0);
        assert_eq!(s.productive_time(), 15.0);
        assert_eq!(s.failed_time(), 5.0);
        // Utilization counts only productive work: 15 / (2 × 10).
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        let failed: Vec<_> = s.spans().iter().filter(|t| t.failed).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].task, 1);
    }

    #[test]
    fn add_records_successful_spans() {
        let mut s = Schedule::new(1);
        s.add(0, 0, 0.0, 1.0);
        assert!(!s.spans()[0].failed);
        assert_eq!(s.failed_time(), 0.0);
        assert_eq!(s.productive_time(), s.busy_time());
    }

    #[test]
    fn all_failed_schedule_has_zero_utilization() {
        let mut s = Schedule::new(1);
        s.add_with(0, 0, 0.0, 4.0, true);
        s.add_with(0, 1, 4.0, 8.0, true);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.busy_time(), 8.0);
        assert_eq!(s.failed_time(), 8.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_worker() {
        let mut s = Schedule::new(1);
        s.add(1, 0, 0.0, 1.0);
    }

    #[test]
    fn aggregates_are_insertion_order_invariant() {
        // Real threads report completions out of order; every aggregate
        // must be a pure function of the span *set*, not the insertion
        // sequence.
        let spans = [
            (0usize, 0usize, 0.0, 4.0),
            (1, 1, 0.0, 7.0),
            (2, 2, 0.0, 10.0),
            (0, 3, 4.0, 9.0),
            (1, 4, 7.0, 13.0),
            (2, 5, 10.0, 13.0),
            (0, 6, 9.0, 16.0),
        ];
        let mut ordered = Schedule::new(3);
        for &(w, t, a, b) in &spans {
            ordered.add(w, t, a, b);
        }
        // A deterministic shuffle: stride through the list coprime to
        // its length.
        let mut shuffled = Schedule::new(3);
        for i in 0..spans.len() {
            let (w, t, a, b) = spans[(i * 3) % spans.len()];
            shuffled.add(w, t, a, b);
        }
        assert_eq!(shuffled.makespan(), ordered.makespan());
        assert_eq!(shuffled.busy_time(), ordered.busy_time());
        assert_eq!(shuffled.utilization(), ordered.utilization());
        assert_eq!(shuffled.idle_time(), ordered.idle_time());
        for w in 0..3 {
            assert_eq!(
                shuffled.worker_spans(w).len(),
                ordered.worker_spans(w).len()
            );
        }
    }
}
