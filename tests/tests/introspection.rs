//! Live-introspection acceptance suite: hierarchical span tracing,
//! Chrome trace export, the std-only scrape endpoint, and multi-run
//! report aggregation with regression gating.
//!
//! The headline checks mirror the observability contract:
//!
//! * a seeded chaos run produces a Chrome trace that is byte-identical
//!   at compute parallelism 1 and 8 (spans are stamped with the run
//!   clock and allocated on the coordinator only);
//! * `GET /metrics` serves Prometheus text exposition in which every
//!   line parses;
//! * aggregated reports from repeated deterministic runs stay inside
//!   the committed baseline (`tests/data/report_baseline.json`).

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;

use easybo::{
    chrome_trace_json, gate, parse_baseline, render_span_tree, span_tree, EasyBo, FaultPlan,
    FaultyBlackBox, ReportSet, RetryPolicy, RunReport, ScrapeServer, StatusBoard, Telemetry,
};
use easybo_exec::{CostedFunction, SimTimeModel};
use easybo_opt::Bounds;
use easybo_telemetry::replay::parse_jsonl;
use easybo_telemetry::{to_json_line, Event, TimedEvent};
use proptest::prelude::*;

fn objective(x: &[f64]) -> f64 {
    (-((x[0] - 0.35).powi(2) + (x[1] - 0.65).powi(2))).exp()
}

fn toy_blackbox(seed: u64) -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let bounds = Bounds::unit_cube(2).unwrap();
    let time = SimTimeModel::new(&bounds, 40.0, 0.3, seed);
    CostedFunction::new("toy", bounds, time, objective)
}

/// A seeded chaos run (failures + retries + checkpoints) with a
/// recording telemetry handle at the given compute parallelism.
/// Returns `(events, chrome_trace, rendered_span_tree)`.
fn chaos_run(parallelism: usize) -> (Vec<TimedEvent>, String, String) {
    let plan = FaultPlan {
        seed: 5,
        fail_rate: 0.2,
        ..FaultPlan::default()
    };
    let bb = FaultyBlackBox::new(toy_blackbox(7), plan);
    let ckpt = std::env::temp_dir().join(format!(
        "easybo-introspection-{}-k{parallelism}.snap",
        std::process::id()
    ));
    let (telemetry, recorder) = Telemetry::recording();
    let mut opt = EasyBo::new(Bounds::unit_cube(2).unwrap());
    opt.batch_size(4)
        .initial_points(6)
        .max_evals(20)
        .seed(3)
        .parallelism(parallelism)
        .retry_policy(RetryPolicy::default().max_attempts(6).backoff(5.0, 2.0))
        .checkpoint_to(&ckpt)
        .checkpoint_every(4)
        .telemetry(telemetry.clone());
    let result = opt.run_blackbox(&bb).expect("chaos run completes");
    assert!(result.best_value.is_finite());
    std::fs::remove_file(&ckpt).ok();
    telemetry.flush();
    let events = recorder.events();
    let trace = chrome_trace_json(&events);
    let tree = render_span_tree(&span_tree(&events));
    (events, trace, tree)
}

/// Acceptance: the chaos run's Chrome trace and span tree are
/// bit-identical across compute parallelism 1 vs 8, and the span tree
/// contains every instrumented phase.
#[test]
fn chaos_chrome_trace_is_identical_across_parallelism() {
    let (events, trace_k1, tree_k1) = chaos_run(1);
    let (_, trace_k8, tree_k8) = chaos_run(8);
    assert_eq!(trace_k1, trace_k8, "chrome trace must not depend on k");
    assert_eq!(tree_k1, tree_k8, "span tree must not depend on k");

    // The exporter emits valid JSON with the Chrome trace envelope.
    let parsed = easybo_telemetry::parse_json(&trace_k1).expect("trace is valid JSON");
    let trace_events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(trace_events.len() > 20);

    // Every instrumented phase shows up in the span tree.
    let names: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| match &e.event {
            Event::SpanStart { name, .. } => Some(name.as_ref()),
            _ => None,
        })
        .collect();
    for phase in [
        "session_step",
        "gp_refit",
        "kernel_build",
        "cholesky",
        "lbfgs_restarts",
        "acquisition",
        "batch_predict",
        "nm_refine",
        "dispatch",
        "retry_backoff",
        "checkpoint",
        "snapshot_encode",
        "snapshot_fsync",
    ] {
        assert!(names.contains(phase), "missing phase span: {phase}");
        assert!(tree_k1.contains(phase), "span tree missing {phase}");
    }

    // Nesting: the GP phases sit under gp_refit under session_step.
    // (Steps serving the initial design never refit, so scan them all.)
    let roots = span_tree(&events);
    let refit = roots
        .iter()
        .filter(|n| n.name == "session_step")
        .flat_map(|n| &n.children)
        .find(|n| n.name == "gp_refit")
        .expect("gp_refit nested under session_step");
    assert!(refit.children.iter().any(|n| n.name == "kernel_build"));
    assert!(refit.children.iter().any(|n| n.name == "cholesky"));
}

/// The span stream survives the JSONL round trip byte-for-byte.
#[test]
fn chaos_span_stream_replays_from_jsonl() {
    let (events, _, _) = chaos_run(1);
    let jsonl = events
        .iter()
        .map(to_json_line)
        .collect::<Vec<_>>()
        .join("\n");
    let back = parse_jsonl(&jsonl).expect("replays");
    assert_eq!(events, back);
}

/// One HTTP GET against a `ScrapeServer`, returning (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    let (head, body) = response.split_once("\r\n\r\n").expect("has header block");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Acceptance: `/metrics` serves Prometheus text exposition v0.0.4 in
/// which every line is either a comment or `name{labels} value` with a
/// parsable finite value.
#[test]
fn scrape_endpoint_serves_valid_prometheus_exposition() {
    let (telemetry, _recorder) = Telemetry::recording();
    let mut opt = EasyBo::new(Bounds::unit_cube(2).unwrap());
    opt.batch_size(4)
        .initial_points(6)
        .max_evals(16)
        .seed(9)
        .telemetry(telemetry.clone());
    opt.run(objective).expect("runs");
    telemetry.flush();

    let board = StatusBoard::new();
    board.register("toy-run", telemetry);
    let server = ScrapeServer::with_board("127.0.0.1:0", board).expect("binds");
    let addr = server.local_addr();

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "bad status: {status}");
    assert!(!body.is_empty());
    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            let keyword = parts.next().expect("comment keyword");
            assert!(
                keyword == "TYPE" || keyword == "HELP",
                "bad comment line: {line}"
            );
            assert!(parts.next().is_some(), "comment missing metric: {line}");
            continue;
        }
        // Sample line: name{labels} value — split on the LAST space so
        // label values may contain spaces.
        let (series, value) = line.rsplit_once(' ').expect("sample has value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        assert!(value.is_finite(), "non-finite sample escaped: {line}");
        let name = series.split('{').next().expect("series name");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name: {line}"
        );
        assert!(name.starts_with("easybo_"), "unprefixed metric: {line}");
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "malformed labels: {line}"
                );
                assert!(
                    rest.contains("session=\"toy-run\""),
                    "missing label: {line}"
                );
            }
        }
        samples += 1;
    }
    assert!(samples >= 10, "expected a real exposition, got {samples}");
    assert!(body.contains("easybo_session_evals_finished"));
    assert!(body.contains("easybo_session_best_fom"));
    assert!(body.contains("easybo_session_spans"));

    // The JSON snapshot endpoint parses and names the session.
    let (status, body) = http_get(addr, "/sessions");
    assert!(status.contains("200"), "bad status: {status}");
    let parsed = easybo_telemetry::parse_json(&body).expect("valid JSON");
    let sessions = parsed
        .get("sessions")
        .and_then(|v| v.as_array())
        .expect("sessions array");
    assert_eq!(sessions.len(), 1);
    assert_eq!(
        sessions[0].get("name").and_then(|v| v.as_str()),
        Some("toy-run")
    );

    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "bad status: {status}");
    server.shutdown();
}

/// One deterministic instrumented run for the aggregation suite.
fn report_run(seed: u64) -> RunReport {
    let (telemetry, _recorder) = Telemetry::recording();
    let mut opt = EasyBo::new(Bounds::unit_cube(2).unwrap());
    opt.batch_size(4)
        .initial_points(6)
        .max_evals(20)
        .seed(seed)
        .telemetry(telemetry);
    opt.run(objective).expect("runs").report
}

fn report_set() -> ReportSet {
    ReportSet::from_reports((1..=4).map(report_run).collect())
}

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/report_baseline.json");

/// Acceptance: the aggregated report of four seeded runs stays inside
/// the committed baseline; a perturbed baseline is caught.
#[test]
fn aggregated_reports_pass_the_committed_regression_gate() {
    let aggregate = report_set().aggregate();
    assert_eq!(aggregate.runs, 4);

    let text = std::fs::read_to_string(BASELINE_PATH).expect("committed baseline");
    let baseline = parse_baseline(&text).expect("baseline parses");
    assert!(!baseline.is_empty());
    let regressions = gate(&aggregate, &baseline);
    assert!(
        regressions.is_empty(),
        "regressions vs committed baseline:\n{}",
        regressions
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The gate has teeth: shifting a bound flags the metric, and a
    // baseline metric the aggregate lacks is reported as missing.
    let mut poisoned = baseline.clone();
    if let Some(b) = poisoned.get_mut("completed") {
        b.mean += 10.0 * (b.tol + 1.0);
    }
    poisoned.insert(
        "no_such_metric".into(),
        easybo::GateBound {
            mean: 1.0,
            tol: 0.1,
        },
    );
    let caught = gate(&aggregate, &poisoned);
    assert!(caught.iter().any(|r| r.metric == "completed"));
    assert!(caught
        .iter()
        .any(|r| r.metric == "no_such_metric" && r.actual.is_nan()));

    // And the aggregate itself round-trips through its JSON form.
    let back = easybo::parse_aggregate(&aggregate.to_json()).expect("round-trips");
    assert_eq!(back.runs, aggregate.runs);
    assert_eq!(
        back.metric("completed").map(|s| s.mean),
        aggregate.metric("completed").map(|s| s.mean)
    );
}

/// Regenerates `tests/data/report_baseline.json` from the current
/// deterministic runs. Run manually after an intentional change:
///
/// ```text
/// cargo test -p easybo-integration --test introspection -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes the committed baseline; run explicitly after intentional changes"]
fn regenerate_report_baseline() {
    let aggregate = report_set().aggregate();
    let mut out = String::from("{\n");
    let mut first = true;
    for (name, stat) in &aggregate.metrics {
        // Only deterministic metrics belong in the gate: anything
        // wall-clock-derived varies run to run and host to host.
        if matches!(
            name.as_str(),
            "gp_fit_share" | "acq_share" | "checkpoint_share"
        ) {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        // Deterministic metrics gate tightly around the observed mean.
        let tol = (stat.mean.abs() * 1e-9).max(1e-9);
        out.push_str(&format!(
            "  \"{name}\": {{\"mean\": {}, \"tol\": {}}}",
            stat.mean, tol
        ));
    }
    out.push_str("\n}\n");
    std::fs::write(BASELINE_PATH, out).expect("writes baseline");
}

/// Satellite: checkpoint encode/fsync histograms surface in the report.
#[test]
fn checkpoint_histograms_surface_in_the_run_report() {
    let ckpt = std::env::temp_dir().join(format!(
        "easybo-introspection-hist-{}.snap",
        std::process::id()
    ));
    let (telemetry, _recorder) = Telemetry::recording();
    let mut opt = EasyBo::new(Bounds::unit_cube(2).unwrap());
    opt.batch_size(4)
        .initial_points(6)
        .max_evals(16)
        .seed(21)
        .checkpoint_to(&ckpt)
        .checkpoint_every(2)
        .telemetry(telemetry);
    let report = opt.run(objective).expect("runs").report;
    std::fs::remove_file(&ckpt).ok();

    let summary = report.summary.as_ref().expect("telemetry summary");
    assert!(summary.checkpoints_written > 0);
    let encode = report.snapshot_encode.as_ref().expect("encode histogram");
    let fsync = report.snapshot_fsync.as_ref().expect("fsync histogram");
    let sync = report.snapshot_sync.as_ref().expect("sync histogram");
    assert_eq!(encode.count, summary.checkpoints_written as u64);
    assert_eq!(fsync.count, summary.checkpoints_written as u64);
    assert_eq!(sync.count, summary.checkpoints_written as u64);
    assert!(encode.mean().expect("nonempty") > 0.0);
    assert!(fsync.mean().expect("nonempty") > 0.0);
    assert!(sync.mean().expect("nonempty") > 0.0);
    let share = report.checkpoint_share.expect("checkpoint share");
    assert!(share >= 0.0);
    let rendered = report.to_string();
    assert!(rendered.contains("checkpoints"), "report: {rendered}");
}

/// A run without checkpointing leaves the checkpoint fields empty.
#[test]
fn reports_without_checkpoints_omit_the_histograms() {
    let report = report_run(33);
    assert!(report.snapshot_encode.is_none());
    assert!(report.snapshot_fsync.is_none());
    assert!(report.snapshot_sync.is_none());
    assert!(report.checkpoint_share.is_none());
}

proptest! {
    /// Property: any well-formed span event stream survives the JSONL
    /// round trip (shortest-roundtrip floats, restricted names).
    #[test]
    fn span_jsonl_roundtrip(
        entries in proptest::collection::vec(
            (0u64..10_000, 0u64..10_000, 0usize..4, 0f64..1e6, 0u64..2),
            0..40,
        )
    ) {
        const NAMES: [&str; 4] = ["session_step", "gp_refit", "acquisition", "dispatch"];
        let events: Vec<TimedEvent> = entries
            .iter()
            .map(|&(id, parent, name_ix, time, end)| TimedEvent {
                time,
                event: if end == 1 {
                    Event::SpanEnd { id }
                } else {
                    Event::SpanStart {
                        id,
                        parent,
                        name: NAMES[name_ix].into(),
                    }
                },
            })
            .collect();
        let jsonl = events
            .iter()
            .map(to_json_line)
            .collect::<Vec<_>>()
            .join("\n");
        let back = parse_jsonl(&jsonl).expect("replays");
        prop_assert_eq!(events, back);
    }
}

/// Malformed span lines are rejected, not silently skipped.
#[test]
fn malformed_span_lines_are_rejected() {
    for line in [
        r#"{"t":1.0,"event":"SpanStart","id":7,"name":"x"}"#, // missing parent
        r#"{"t":1.0,"event":"SpanStart","parent":0,"name":"x"}"#, // missing id
        r#"{"t":1.0,"event":"SpanStart","id":7,"parent":0}"#, // missing name
        r#"{"t":1.0,"event":"SpanEnd"}"#,                     // missing id
        r#"{"t":1.0,"event":"SpanEnd","id":not_a_number}"#,   // garbage id
        r#"{"t":1.0,"event":"SpanSideways","id":7}"#,         // unknown kind
    ] {
        assert!(
            parse_jsonl(line).is_err(),
            "malformed line accepted: {line}"
        );
    }
}
