//! Wall-clock self time per span, from the program's existing span
//! events.
//!
//! The program stamps `SpanStart`/`SpanEnd` with its run clock, which
//! under the virtual executor does not move inside one ask. This sink
//! stamps each of those events with `Instant::now()` as it arrives and
//! reduces the nested spans to self time per span name: a span's
//! duration minus the part its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use easybo_telemetry::{Event, EventSink, TimedEvent};

/// Self time and count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Seconds spent in spans of this name, minus their children.
    pub self_s: f64,
    /// Seconds spent in spans of this name, children included.
    pub total_s: f64,
    /// Spans of this name that closed.
    pub count: u64,
}

struct Open {
    name: String,
    parent: u64,
    start: Instant,
    children_s: f64,
}

/// Streaming self-time reduction over span start/end events.
#[derive(Default)]
pub struct SelfTimes {
    open: HashMap<u64, Open>,
    totals: BTreeMap<String, SpanTotal>,
}

impl SelfTimes {
    /// A span opened at `at`.
    pub fn start(&mut self, id: u64, parent: u64, name: &str, at: Instant) {
        self.open.insert(
            id,
            Open {
                name: name.to_string(),
                parent,
                start: at,
                children_s: 0.0,
            },
        );
    }

    /// A span closed at `at`; unmatched ends are ignored.
    pub fn end(&mut self, id: u64, at: Instant) {
        let Some(span) = self.open.remove(&id) else {
            return;
        };
        let dur = at.saturating_duration_since(span.start).as_secs_f64();
        if let Some(parent) = self.open.get_mut(&span.parent) {
            parent.children_s += dur;
        }
        let total = self.totals.entry(span.name).or_default();
        total.self_s += (dur - span.children_s).max(0.0);
        total.total_s += dur;
        total.count += 1;
    }

    /// Totals per span name so far.
    pub fn totals(&self) -> &BTreeMap<String, SpanTotal> {
        &self.totals
    }
}

#[derive(Default)]
struct State {
    spans: SelfTimes,
    checkpoint_bytes: u64,
    checkpoint_bytes_max: u64,
}

/// Event sink that wall-stamps spans and sums checkpoint sizes.
/// Cloning shares the same state, so one clone goes to the telemetry
/// handle and the other is read after the run.
#[derive(Clone, Default)]
pub struct WallSpans {
    state: Arc<Mutex<State>>,
}

impl WallSpans {
    /// Self time and count of one span name (zero when never seen).
    pub fn total(&self, name: &str) -> SpanTotal {
        self.lock()
            .spans
            .totals()
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Bytes of every `CheckpointWritten` event, and the largest one.
    pub fn checkpoint_bytes(&self) -> (u64, u64) {
        let s = self.lock();
        (s.checkpoint_bytes, s.checkpoint_bytes_max)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span sink poisoned by a panic")
    }
}

impl EventSink for WallSpans {
    fn record(&self, ev: &TimedEvent) {
        let at = Instant::now();
        let mut s = self.lock();
        match &ev.event {
            Event::SpanStart { id, parent, name } => s.spans.start(*id, *parent, name, at),
            Event::SpanEnd { id } => s.spans.end(*id, at),
            Event::CheckpointWritten { bytes, .. } => {
                s.checkpoint_bytes += *bytes as u64;
                s.checkpoint_bytes_max = s.checkpoint_bytes_max.max(*bytes as u64);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;
    use std::time::Duration;

    fn ms(base: Instant, n: u64) -> Instant {
        base + Duration::from_millis(n)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0, 100]
        //   refit [10, 60]
        //     cholesky [20, 30]
        //     lbfgs [30, 55]
        //   acquisition [60, 95]
        let t = Instant::now();
        let mut s = SelfTimes::default();
        s.start(1, 0, "step", ms(t, 0));
        s.start(2, 1, "refit", ms(t, 10));
        s.start(3, 2, "cholesky", ms(t, 20));
        s.end(3, ms(t, 30));
        s.start(4, 2, "lbfgs", ms(t, 30));
        s.end(4, ms(t, 55));
        s.end(2, ms(t, 60));
        s.start(5, 1, "acquisition", ms(t, 60));
        s.end(5, ms(t, 95));
        s.end(1, ms(t, 100));
        let tot = s.totals();
        let get = |n: &str| tot[n].self_s;
        assert!((get("step") - 0.015).abs() < 1e-9);
        assert!((get("refit") - 0.015).abs() < 1e-9);
        assert!((get("cholesky") - 0.010).abs() < 1e-9);
        assert!((get("lbfgs") - 0.025).abs() < 1e-9);
        assert!((get("acquisition") - 0.035).abs() < 1e-9);
        let sum: f64 = tot.values().map(|v| v.self_s).sum();
        assert!((sum - 0.100).abs() < 1e-9, "self times partition the root");
        assert!((tot["refit"].total_s - 0.050).abs() < 1e-9);
    }

    #[test]
    fn repeated_names_accumulate_and_count() {
        let t = Instant::now();
        let mut s = SelfTimes::default();
        for i in 0..3u64 {
            s.start(i + 1, 0, "nm_refine", ms(t, 10 * i));
            s.end(i + 1, ms(t, 10 * i + 4));
        }
        let v = s.totals()["nm_refine"];
        assert_eq!(v.count, 3);
        assert!((v.self_s - 0.012).abs() < 1e-9);
    }

    #[test]
    fn unmatched_and_open_spans_are_ignored() {
        let t = Instant::now();
        let mut s = SelfTimes::default();
        s.end(9, ms(t, 1));
        s.start(1, 0, "open_forever", ms(t, 0));
        assert!(s.totals().is_empty());
    }

    #[test]
    fn sink_reads_span_events_and_checkpoint_sizes() {
        let sink = WallSpans::default();
        let ev = |event| TimedEvent { time: 0.0, event };
        sink.record(&ev(Event::SpanStart {
            id: 1,
            parent: 0,
            name: Cow::Borrowed("checkpoint"),
        }));
        sink.record(&ev(Event::CheckpointWritten {
            completed: 1,
            bytes: 300,
        }));
        sink.record(&ev(Event::CheckpointWritten {
            completed: 2,
            bytes: 500,
        }));
        sink.record(&ev(Event::SpanEnd { id: 1 }));
        assert_eq!(sink.total("checkpoint").count, 1);
        assert_eq!(sink.total("missing"), SpanTotal::default());
        assert_eq!(sink.checkpoint_bytes(), (800, 500));
    }
}
