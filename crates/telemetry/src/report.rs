//! End-of-run summaries: the built-in event aggregate and the
//! `RunReport` attached to optimization results.

use std::fmt;

use crate::event::{Event, TimedEvent};
use crate::metrics::{HistogramSummary, MetricsSnapshot};

/// Running aggregate over every emitted event, maintained by the
/// telemetry handle itself so a report is available regardless of which
/// sinks (if any) were attached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummaryData {
    /// Total events emitted.
    pub events: usize,
    /// `QueryIssued` count.
    pub queries_issued: usize,
    /// `EvalStarted` count.
    pub evals_started: usize,
    /// `EvalFinished` count.
    pub evals_finished: usize,
    /// `GpRefit` count.
    pub gp_refits: usize,
    /// Real seconds spent in GP refits.
    pub gp_fit_seconds: f64,
    /// `AcqOptimized` count.
    pub acq_optimizations: usize,
    /// Real seconds spent maximizing the acquisition.
    pub acq_seconds: f64,
    /// Acquisition-function evaluations consumed.
    pub acq_evals: usize,
    /// Pseudo-points hallucinated across all selections.
    pub pseudo_points: usize,
    /// Run-clock seconds of reported worker idleness.
    pub worker_idle_seconds: f64,
    /// `EvalFailed` count (failed attempts, not failed tasks).
    pub evals_failed: usize,
    /// `EvalRetried` count (requeued attempts).
    pub evals_retried: usize,
    /// `WorkerCrashed` count (workers permanently lost).
    pub worker_crashes: usize,
    /// `CheckpointWritten` count (durable snapshots on disk).
    pub checkpoints_written: usize,
    /// `RunResumed` count (snapshot restores feeding this run).
    pub resumes: usize,
    /// `SpanStart` count (phases opened on the run timeline).
    pub spans: usize,
    /// `SpecViolated` count (spec × evaluation violations, constrained
    /// runs only).
    pub spec_violations: usize,
    /// `FeasibleIncumbent` count (feasible best-so-far improvements,
    /// constrained runs only).
    pub feasible_incumbents: usize,
    /// Best objective value observed so far (max over
    /// `EvalFinished`), `None` before the first completion.
    pub best_value: Option<f64>,
    /// Best *feasible* objective value (max over `FeasibleIncumbent`),
    /// `None` for unconstrained runs or before any feasible point.
    pub best_feasible: Option<f64>,
}

impl SummaryData {
    pub(crate) fn absorb(&mut self, ev: &TimedEvent) {
        self.events += 1;
        match &ev.event {
            Event::QueryIssued { .. } => self.queries_issued += 1,
            Event::EvalStarted { .. } => self.evals_started += 1,
            Event::EvalFinished { value, .. } => {
                self.evals_finished += 1;
                self.best_value = Some(self.best_value.map_or(*value, |b| b.max(*value)));
            }
            Event::GpRefit { duration, .. } => {
                self.gp_refits += 1;
                self.gp_fit_seconds += duration;
            }
            Event::AcqOptimized {
                evals, duration, ..
            } => {
                self.acq_optimizations += 1;
                self.acq_evals += evals;
                self.acq_seconds += duration;
            }
            Event::PseudoPointAdded { count } => self.pseudo_points += count,
            Event::WorkerIdle { gap, .. } => self.worker_idle_seconds += gap,
            Event::EvalFailed { .. } => self.evals_failed += 1,
            Event::EvalRetried { .. } => self.evals_retried += 1,
            Event::WorkerCrashed { .. } => self.worker_crashes += 1,
            Event::CheckpointWritten { .. } => self.checkpoints_written += 1,
            Event::RunResumed { .. } => self.resumes += 1,
            // Service-level events describe the multi-session manager,
            // not any single run; they stay out of per-run summaries.
            Event::SessionEvicted { .. } | Event::SessionRehydrated { .. } => {}
            Event::SpecViolated { .. } => self.spec_violations += 1,
            Event::FeasibleIncumbent { value, .. } => {
                self.feasible_incumbents += 1;
                self.best_feasible = Some(self.best_feasible.map_or(*value, |b| b.max(*value)));
            }
            Event::SpanStart { .. } => self.spans += 1,
            Event::SpanEnd { .. } => {}
        }
    }
}

/// Where the run's time went: scheduling quality from the executor's
/// `Schedule` plus model overhead from telemetry (when enabled).
///
/// `gp_fit_share`/`acq_share` divide *real* seconds of model overhead
/// by the run's makespan. Under the threaded executor both sides are
/// real seconds; under the virtual executor the makespan is virtual
/// simulation seconds, so the shares compare actual BO overhead against
/// the simulated simulator cost — exactly the comparison behind the
/// paper's claim that model overhead is negligible next to circuit
/// simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Run makespan in run-clock seconds.
    pub makespan: f64,
    /// Workers in the executor.
    pub workers: usize,
    /// Fraction of `workers × makespan` spent evaluating, in [0, 1].
    pub utilization: f64,
    /// `1 − utilization`.
    pub idle_fraction: f64,
    /// Completed evaluations.
    pub completed: usize,
    /// Telemetry aggregate (`None` when the run had telemetry
    /// disabled; the scheduling fields above are always available).
    pub summary: Option<SummaryData>,
    /// GP-fit real seconds / makespan (`None` without telemetry or
    /// with a zero makespan).
    pub gp_fit_share: Option<f64>,
    /// Acquisition real seconds / makespan (`None` without telemetry
    /// or with a zero makespan).
    pub acq_share: Option<f64>,
    /// Checkpoint real seconds the run loop spent (snapshot encode +
    /// waits for the writer) / makespan (`None` without the snapshot
    /// histograms or with a zero makespan).
    pub checkpoint_share: Option<f64>,
    /// `snapshot_encode_ns` histogram: per-checkpoint time spent
    /// encoding the snapshot payload (`None` when never observed).
    pub snapshot_encode: Option<HistogramSummary>,
    /// `snapshot_fsync_ns` histogram: per-checkpoint time the run loop
    /// waited for the snapshot writer to make the snapshot durable.
    /// The writer syncs each snapshot while the next decision
    /// computes, so this is the part of the write the loop still pays
    /// (`None` when never observed).
    pub snapshot_fsync: Option<HistogramSummary>,
    /// `snapshot_sync_ns` histogram: per-checkpoint time of the durable
    /// write itself on the writer thread (tmp file + fsync + rename +
    /// directory fsync), the device's latency (`None` when never
    /// observed).
    pub snapshot_sync: Option<HistogramSummary>,
    /// Rank-1 Cholesky extensions of the cached factor (per-tell
    /// appends and pseudo-point pushes; `None` without metrics).
    pub cholesky_updates: Option<u64>,
    /// Rank-1 Cholesky downdates (pseudo-point pops; `None` without
    /// metrics).
    pub cholesky_downdates: Option<u64>,
    /// Full `O(n³)` Cholesky factorizations of the surrogate itself —
    /// the `cholesky_full` counter, which excludes the factorizations
    /// inside training NLL evaluations (hyperparameter retrainings
    /// only on the incremental path; `None` without metrics).
    pub gp_factorizations: Option<u64>,
    /// Jitter-ladder escalations and rank-1 pivot floors (`None`
    /// without metrics).
    pub cholesky_jitter_bumps: Option<u64>,
    /// `updates / (updates + full factorizations)`: fraction of factor
    /// work served by rank-1 updates instead of full refactorizes
    /// (`None` without metrics or before any factor work).
    pub incremental_update_share: Option<f64>,
    /// `feasible_points / (feasible_points + infeasible_points)` from
    /// the metrics counters — the fraction of completed evaluations
    /// that satisfied every spec (`None` for unconstrained runs or
    /// without metrics).
    pub feasible_fraction: Option<f64>,
}

impl RunReport {
    /// Builds a report from schedule-level facts plus the optional
    /// telemetry aggregate.
    pub fn new(
        makespan: f64,
        workers: usize,
        utilization: f64,
        completed: usize,
        summary: Option<SummaryData>,
    ) -> Self {
        RunReport::with_metrics(makespan, workers, utilization, completed, summary, None)
    }

    /// Like [`RunReport::new`], but additionally mines a metrics
    /// snapshot for the checkpoint write-path histograms
    /// (`snapshot_encode_ns` / `snapshot_fsync_ns` / `snapshot_sync_ns`)
    /// and derives the checkpoint share of makespan from the first two.
    pub fn with_metrics(
        makespan: f64,
        workers: usize,
        utilization: f64,
        completed: usize,
        summary: Option<SummaryData>,
        metrics: Option<&MetricsSnapshot>,
    ) -> Self {
        let share = |secs: f64| {
            if makespan > 0.0 {
                Some(secs / makespan)
            } else {
                None
            }
        };
        let gp_fit_share = summary.as_ref().and_then(|s| share(s.gp_fit_seconds));
        let acq_share = summary.as_ref().and_then(|s| share(s.acq_seconds));
        let histogram = |name: &str| {
            metrics
                .and_then(|m| m.histogram(name))
                .filter(|h| h.count > 0)
                .cloned()
        };
        let snapshot_encode = histogram("snapshot_encode_ns");
        let snapshot_fsync = histogram("snapshot_fsync_ns");
        let snapshot_sync = histogram("snapshot_sync_ns");
        let checkpoint_ns = snapshot_encode.as_ref().map_or(0.0, |h| h.sum)
            + snapshot_fsync.as_ref().map_or(0.0, |h| h.sum);
        let checkpoint_share = if snapshot_encode.is_some() || snapshot_fsync.is_some() {
            share(checkpoint_ns / 1e9)
        } else {
            None
        };
        let counter = |name: &str| metrics.map(|m| m.counter(name));
        let cholesky_updates = counter("cholesky_update");
        let cholesky_downdates = counter("cholesky_downdate");
        let gp_factorizations = counter("cholesky_full");
        let cholesky_jitter_bumps = counter("cholesky_jitter_bumps");
        let incremental_update_share = match (cholesky_updates, gp_factorizations) {
            (Some(up), Some(full)) if up + full > 0 => Some(up as f64 / (up + full) as f64),
            _ => None,
        };
        let feasible_fraction = match (counter("feasible_points"), counter("infeasible_points")) {
            (Some(feas), Some(infeas)) if feas + infeas > 0 => {
                Some(feas as f64 / (feas + infeas) as f64)
            }
            _ => None,
        };
        RunReport {
            makespan,
            workers,
            utilization,
            idle_fraction: (1.0 - utilization).max(0.0),
            completed,
            summary,
            gp_fit_share,
            acq_share,
            checkpoint_share,
            snapshot_encode,
            snapshot_fsync,
            snapshot_sync,
            cholesky_updates,
            cholesky_downdates,
            gp_factorizations,
            cholesky_jitter_bumps,
            incremental_update_share,
            feasible_fraction,
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run report: {} evals over {:.1}s on {} workers",
            self.completed, self.makespan, self.workers
        )?;
        writeln!(
            f,
            "  utilization {:.1}%  idle {:.1}%",
            100.0 * self.utilization,
            100.0 * self.idle_fraction
        )?;
        match &self.summary {
            Some(s) => {
                writeln!(
                    f,
                    "  gp refits {} ({:.3}s real{})",
                    s.gp_refits,
                    s.gp_fit_seconds,
                    self.gp_fit_share
                        .map(|v| format!(", {:.2}% of makespan", 100.0 * v))
                        .unwrap_or_default()
                )?;
                writeln!(
                    f,
                    "  acq optimizations {} ({} evals, {:.3}s real{})",
                    s.acq_optimizations,
                    s.acq_evals,
                    s.acq_seconds,
                    self.acq_share
                        .map(|v| format!(", {:.2}% of makespan", 100.0 * v))
                        .unwrap_or_default()
                )?;
                if s.checkpoints_written > 0 {
                    let ms = |h: &Option<HistogramSummary>| {
                        h.as_ref()
                            .and_then(|h| h.mean())
                            .map(|ns| format!("{:.3}ms", ns / 1e6))
                            .unwrap_or_else(|| "-".to_string())
                    };
                    writeln!(
                        f,
                        "  checkpoints {} (encode {} wait {} sync {} mean{})",
                        s.checkpoints_written,
                        ms(&self.snapshot_encode),
                        ms(&self.snapshot_fsync),
                        ms(&self.snapshot_sync),
                        self.checkpoint_share
                            .map(|v| format!(", {:.2}% of makespan", 100.0 * v))
                            .unwrap_or_default()
                    )?;
                }
                if let (Some(up), Some(down), Some(full)) = (
                    self.cholesky_updates,
                    self.cholesky_downdates,
                    self.gp_factorizations,
                ) {
                    if up + down + full > 0 {
                        writeln!(
                            f,
                            "  cholesky updates {up}  downdates {down}  full factorizations {full}{}",
                            self.incremental_update_share
                                .map(|v| format!("  ({:.1}% incremental)", 100.0 * v))
                                .unwrap_or_default()
                        )?;
                    }
                }
                if s.spec_violations + s.feasible_incumbents > 0 {
                    writeln!(
                        f,
                        "  spec violations {}  feasible incumbents {}{}{}",
                        s.spec_violations,
                        s.feasible_incumbents,
                        s.best_feasible
                            .map(|v| format!("  best feasible {v:.4}"))
                            .unwrap_or_default(),
                        self.feasible_fraction
                            .map(|v| format!("  ({:.1}% feasible)", 100.0 * v))
                            .unwrap_or_default()
                    )?;
                }
                if s.evals_failed + s.evals_retried + s.worker_crashes > 0 {
                    writeln!(
                        f,
                        "  failed attempts {}  retries {}  worker crashes {}",
                        s.evals_failed, s.evals_retried, s.worker_crashes
                    )?;
                }
                write!(f, "  pseudo-points {}", s.pseudo_points)
            }
            None => write!(f, "  (telemetry disabled: no model-overhead breakdown)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(time: f64, event: Event) -> TimedEvent {
        TimedEvent { time, event }
    }

    #[test]
    fn summary_aggregates_by_variant() {
        let mut s = SummaryData::default();
        s.absorb(&at(0.0, Event::QueryIssued { task: 0, worker: 0 }));
        s.absorb(&at(0.0, Event::EvalStarted { task: 0, worker: 0 }));
        s.absorb(&at(
            1.0,
            Event::GpRefit {
                n: 9,
                hyperparams: vec![0.0],
                duration: 0.5,
            },
        ));
        s.absorb(&at(
            1.0,
            Event::AcqOptimized {
                restarts: 3,
                evals: 100,
                duration: 0.25,
            },
        ));
        s.absorb(&at(1.0, Event::PseudoPointAdded { count: 2 }));
        s.absorb(&at(
            2.0,
            Event::EvalFinished {
                task: 0,
                worker: 0,
                value: 1.0,
            },
        ));
        s.absorb(&at(
            2.0,
            Event::WorkerIdle {
                worker: 1,
                gap: 3.5,
            },
        ));
        assert_eq!(s.events, 7);
        assert_eq!(s.queries_issued, 1);
        assert_eq!(s.evals_started, 1);
        assert_eq!(s.evals_finished, 1);
        assert_eq!(s.gp_refits, 1);
        assert_eq!(s.gp_fit_seconds, 0.5);
        assert_eq!(s.acq_optimizations, 1);
        assert_eq!(s.acq_evals, 100);
        assert_eq!(s.acq_seconds, 0.25);
        assert_eq!(s.pseudo_points, 2);
        assert_eq!(s.worker_idle_seconds, 3.5);
    }

    #[test]
    fn summary_counts_failure_events() {
        let mut s = SummaryData::default();
        s.absorb(&at(
            1.0,
            Event::EvalFailed {
                task: 0,
                worker: 0,
                attempt: 1,
                reason: "injected".to_string(),
            },
        ));
        s.absorb(&at(
            1.5,
            Event::EvalRetried {
                task: 0,
                attempt: 2,
                delay: 1.0,
            },
        ));
        s.absorb(&at(2.0, Event::WorkerCrashed { worker: 1, task: 3 }));
        assert_eq!(s.evals_failed, 1);
        assert_eq!(s.evals_retried, 1);
        assert_eq!(s.worker_crashes, 1);

        let report = RunReport::new(10.0, 2, 0.5, 4, Some(s));
        let text = report.to_string();
        assert!(text.contains("failed attempts 1"), "report text: {text}");
        assert!(text.contains("worker crashes 1"), "report text: {text}");
    }

    #[test]
    fn report_shares_need_telemetry_and_positive_makespan() {
        let bare = RunReport::new(100.0, 3, 0.8, 18, None);
        assert_eq!(bare.gp_fit_share, None);
        assert!((bare.idle_fraction - 0.2).abs() < 1e-12);

        let s = SummaryData {
            gp_fit_seconds: 2.0,
            acq_seconds: 1.0,
            ..SummaryData::default()
        };
        let full = RunReport::new(100.0, 3, 0.8, 18, Some(s.clone()));
        assert_eq!(full.gp_fit_share, Some(0.02));
        assert_eq!(full.acq_share, Some(0.01));

        let degenerate = RunReport::new(0.0, 3, 1.0, 0, Some(s));
        assert_eq!(degenerate.gp_fit_share, None);
        assert_eq!(degenerate.idle_fraction, 0.0);
    }

    #[test]
    fn report_mines_incremental_factor_counters() {
        let (t, _r) = crate::Telemetry::recording();
        t.incr("cholesky_update", 40);
        t.incr("cholesky_downdate", 30);
        t.incr("cholesky_full", 10);
        t.incr("cholesky_jitter_bumps", 2);
        let snap = t.metrics_snapshot().unwrap();
        let report =
            RunReport::with_metrics(50.0, 2, 0.9, 10, Some(SummaryData::default()), Some(&snap));
        assert_eq!(report.cholesky_updates, Some(40));
        assert_eq!(report.cholesky_downdates, Some(30));
        assert_eq!(report.gp_factorizations, Some(10));
        assert_eq!(report.cholesky_jitter_bumps, Some(2));
        assert_eq!(report.incremental_update_share, Some(0.8));
        let text = report.to_string();
        assert!(
            text.contains("cholesky updates 40  downdates 30  full factorizations 10"),
            "report text: {text}"
        );
        assert!(text.contains("(80.0% incremental)"), "report text: {text}");

        // No metrics snapshot: the factor fields stay unpopulated.
        let bare = RunReport::new(50.0, 2, 0.9, 10, Some(SummaryData::default()));
        assert_eq!(bare.cholesky_updates, None);
        assert_eq!(bare.incremental_update_share, None);

        // Metrics present but no factor work yet: counters are zero and
        // the share is undefined.
        let (t2, _r2) = crate::Telemetry::recording();
        let snap2 = t2.metrics_snapshot().unwrap();
        let idle = RunReport::with_metrics(50.0, 2, 0.9, 10, None, Some(&snap2));
        assert_eq!(idle.cholesky_updates, Some(0));
        assert_eq!(idle.incremental_update_share, None);
    }

    #[test]
    fn report_renders_both_modes() {
        let with = RunReport::new(
            50.0,
            2,
            0.9,
            10,
            Some(SummaryData {
                gp_refits: 4,
                gp_fit_seconds: 0.5,
                ..SummaryData::default()
            }),
        );
        let text = with.to_string();
        assert!(text.contains("utilization 90.0%"));
        assert!(text.contains("gp refits 4"));
        let without = RunReport::new(50.0, 2, 0.9, 10, None).to_string();
        assert!(without.contains("telemetry disabled"));
    }
}
